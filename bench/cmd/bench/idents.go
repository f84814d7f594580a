package main

import (
	"fmt"
	"sync"
	"time"
)

// identTable is the register-storm oracle: what the driver knows about
// every provider identity it has registered, shared between the register
// stream (writer) and the search stream (checker). It encodes the paper's
// Fig. 4 soft-state invariant from the client's side of the wire: a
// registration acked before a search was sent must be in the answer, and
// one whose validity lapsed more than staleGrace before must not.
type identTable struct {
	mu    sync.Mutex
	byURL map[string]*ident
	byVO  [voCount][]*ident
}

const staleGrace = time.Second

type ident struct {
	url        string
	vo         int
	firstSent  time.Time // zero until the first Add leaves
	firstAck   time.Time // zero until the first Add is acked
	sentUntil  time.Time // ValidUntil of the latest Add sent
	ackedUntil time.Time // ValidUntil of the latest Add acked
}

func newIdentTable() *identTable {
	return &identTable{byURL: map[string]*ident{}}
}

// sending records that an Add for url is about to leave.
func (t *identTable) sending(url string, vo int, now, validUntil time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.byURL[url]
	if id == nil {
		id = &ident{url: url, vo: vo, firstSent: now}
		t.byURL[url] = id
		t.byVO[vo] = append(t.byVO[vo], id)
	}
	id.sentUntil = validUntil
}

// acked records the server's success reply to the Add sent with validUntil.
func (t *identTable) acked(url string, now, validUntil time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.byURL[url]
	if id.firstAck.IsZero() {
		id.firstAck = now
	}
	id.ackedUntil = validUntil
}

// check verifies the name-index answer for one VO: urls are the providers
// the reply listed, sent and recv bracket the search.
func (t *identTable) check(vo int, urls []string, sent, recv time.Time) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	got := make(map[*ident]bool, len(urls))
	for _, u := range urls {
		id := t.byURL[u]
		if id == nil || id.firstSent.IsZero() || id.firstSent.After(recv) {
			return fmt.Errorf("vo%d: answer lists %s, which was never registered", vo, u)
		}
		if id.vo != vo {
			return fmt.Errorf("vo%d: answer lists %s, which registered in vo%d", vo, u, id.vo)
		}
		until := id.sentUntil
		if id.ackedUntil.After(until) {
			until = id.ackedUntil
		}
		if until.Add(staleGrace).Before(sent) {
			return fmt.Errorf("vo%d: stale answer: %s lapsed %v before the search", vo, u, sent.Sub(until))
		}
		if got[id] {
			return fmt.Errorf("vo%d: answer lists %s twice", vo, u)
		}
		got[id] = true
	}
	for _, id := range t.byVO[vo] {
		if got[id] || id.firstAck.IsZero() {
			continue
		}
		if id.firstAck.Before(sent) && id.ackedUntil.After(recv) {
			return fmt.Errorf("vo%d: answer misses %s, acked %v before the search", vo, id.url, sent.Sub(id.firstAck))
		}
	}
	return nil
}
