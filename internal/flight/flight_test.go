package flight

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mds2/internal/obs"
)

// TestDoSharesOneExecution parks joiners behind a gated leader: fn runs
// once, every joiner gets the leader's value with shared set, Joined has
// already counted them while they wait, and the retired flight lets the
// next call run fn again.
func TestDoSharesOneExecution(t *testing.T) {
	const callers = 16
	var joined obs.Counter
	g := Group[int]{Joined: &joined}
	var runs atomic.Int64
	gate := make(chan struct{})
	fn := func() (int, error) {
		runs.Add(1)
		<-gate
		return 42, nil
	}
	var wg sync.WaitGroup
	var sharedCalls atomic.Int64
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, shared, err := g.Do("k", fn)
			if v != 42 || err != nil {
				t.Errorf("Do = %d, %v", v, err)
			}
			if shared {
				sharedCalls.Add(1)
			}
		}()
	}
	for joined.Value() < callers-1 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if runs.Load() != 1 || sharedCalls.Load() != callers-1 {
		t.Fatalf("fn ran %d times, %d callers shared; want 1 and %d", runs.Load(), sharedCalls.Load(), callers-1)
	}
	if _, shared, _ := g.Do("k", func() (int, error) { return 7, nil }); shared || runs.Load() != 1 {
		t.Fatal("a retired flight must not serve the next call")
	}
}

func TestDoSharesTheError(t *testing.T) {
	var g Group[string]
	boom := errors.New("boom")
	if _, shared, err := g.Do("k", func() (string, error) { return "", boom }); shared || !errors.Is(err, boom) {
		t.Fatalf("shared = %v, err = %v", shared, err)
	}
}
