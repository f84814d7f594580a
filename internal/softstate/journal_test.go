package softstate

import (
	"reflect"
	"testing"
	"time"
)

// feedLog renders every record it is fed, in order (the registry reuses the
// batch slice, so nothing of it is kept).
type feedLog struct {
	seen  []string
	calls int
}

func (l *feedLog) JournalRegistry(recs []JournalRecord) {
	l.calls++
	for _, rec := range recs {
		l.seen = append(l.seen, feedLine(rec))
	}
}

// feedChan hands each rendered record to a reader on another goroutine —
// for transitions the background sweep feeds.
type feedChan chan string

func (c feedChan) JournalRegistry(recs []JournalRecord) {
	for _, rec := range recs {
		c <- feedLine(rec)
	}
}

func feedLine(rec JournalRecord) string {
	op := [...]string{"refresh", "remove", "expire"}[rec.Op]
	if rec.Item.Recovered {
		op = "restore"
	}
	return op + " " + rec.Item.Key
}

// TestFeedReachesEveryConsumerInApplyOrder: every consumer sees the
// transitions in the order the registry applied them, before the call that
// caused them returns, from the point it was installed — so a consumer
// installed after Restore (the durability log) never sees restored items.
func TestFeedReachesEveryConsumerInApplyOrder(t *testing.T) {
	clock := NewFakeClock()
	r := NewRegistry(clock)
	defer r.Close()
	journal, view1, view2 := &feedLog{}, &feedLog{}, &feedLog{}
	r.Observe(view1)
	r.Observe(view2)

	now := clock.Now()
	restored := r.Restore([]Item{
		{Key: "old", ExpiresAt: now.Add(time.Minute)},
		{Key: "lapsed", ExpiresAt: now.Add(-time.Minute)}, // dropped: no grace
	}, 0)
	if restored != 1 {
		t.Fatalf("restored %d items, want 1", restored)
	}
	r.Observe(journal) // boot order: after Restore, before traffic

	r.Refresh("a", nil, 10*time.Second)
	r.RefreshBatch([]Refreshment{{Key: "b", TTL: 20 * time.Second}, {Key: "old", TTL: time.Hour}})
	r.Remove("b")
	clock.Advance(15 * time.Second)
	r.Refresh("c", nil, time.Minute) // notices a's lapse first
	r.SetOwns(func(key string, _ any) bool { return key != "refused" })
	r.Refresh("refused", nil, time.Minute)

	traffic := []string{"refresh a", "refresh b", "refresh old", "remove b", "expire a", "refresh c"}
	if !reflect.DeepEqual(journal.seen, traffic) {
		t.Errorf("journal saw %v, want %v", journal.seen, traffic)
	}
	for i, view := range []*feedLog{view1, view2} {
		if want := append([]string{"restore old"}, traffic...); !reflect.DeepEqual(view.seen, want) {
			t.Errorf("observer %d saw %v, want %v", i+1, view.seen, want)
		}
	}
}
