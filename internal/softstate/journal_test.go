package softstate

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// feedLog renders every record it is fed, in order (the registry reuses the
// batch slice, so nothing of it is kept).
type feedLog struct{ seen []string }

func (l *feedLog) JournalRegistry(recs []JournalRecord) {
	for _, rec := range recs {
		op := [...]string{"refresh", "remove", "expire"}[rec.Op]
		if rec.Item.Recovered {
			op = "restore"
		}
		l.seen = append(l.seen, op+" "+rec.Item.Key)
	}
}

// TestFeedReachesEveryConsumerInApplyOrder: the durability journal and each
// observer see the same transitions in the order the registry applied them,
// before the call that caused them returns; only observers see Restore.
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
	r.SetJournal(journal) // boot order: after Restore, before traffic

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

// TestFeedSurvivesEventOverflow: the feed is not the lossy event channel —
// a pass far larger than a subscriber's buffer reaches a consumer whole.
func TestFeedSurvivesEventOverflow(t *testing.T) {
	clock := NewFakeClock()
	r := NewRegistry(clock)
	defer r.Close()
	view := &feedLog{}
	r.Observe(view)
	_, cancel := r.Subscribe() // never drained
	defer cancel()
	batch := make([]Refreshment, 1000)
	for i := range batch {
		batch[i] = Refreshment{Key: fmt.Sprintf("k%04d", i), TTL: time.Second}
	}
	r.RefreshBatch(batch)
	clock.Advance(time.Second)
	if n := r.Len(); n != 0 {
		t.Fatalf("%d items outlived their TTL", n)
	}
	if len(view.seen) != 2000 || view.seen[0] != "refresh k0000" || view.seen[1999] != "expire k0999" {
		t.Fatalf("consumer saw %d records (first %q, last %q), want 1000 refreshes then 1000 expiries",
			len(view.seen), view.seen[0], view.seen[len(view.seen)-1])
	}
}
