package giis

import (
	"strings"
	"testing"
	"time"

	"mds2/internal/ldap"
)

// BenchmarkFanoutSlowChild measures an aggregate search over 8 fast children
// plus one child delayed 500 ms — the paper's "one site behind a congested
// link" scenario.
//
//   - wait-all pins the pre-hedge behaviour: latency ≈ the slowest child.
//   - hedge-50ms shows the hedged fan-out: latency is bounded by the hedge
//     deadline (≤ ~2× 50 ms) and the result is flagged partial, with the
//     fast children's entries intact.
//
// partial-entries/op counts entries streamed per search (8 fast children ⇒ 8
// when the slow child is cut off, 9 when waited for).
func BenchmarkFanoutSlowChild(b *testing.B) {
	const (
		fastChildren = 8
		slowDelay    = 500 * time.Millisecond
		hedge        = 50 * time.Millisecond
	)
	run := func(b *testing.B, strategy *Strategy, wantHedged bool) {
		r := newFanoutRig(b, strategy, fastChildren, 1, slowDelay)
		total := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			entries, res := r.search(b)
			if res.Code != ldap.ResultSuccess {
				b.Fatalf("res = %+v", res)
			}
			if hedged := strings.Contains(res.Message, "hedge"); hedged != wantHedged {
				b.Fatalf("hedged = %v, want %v (message %q)", hedged, wantHedged, res.Message)
			}
			if len(entries) < fastChildren {
				b.Fatalf("entries = %d, want >= %d", len(entries), fastChildren)
			}
			total += len(entries)
		}
		b.ReportMetric(float64(total)/float64(b.N), "entries/op")
	}
	b.Run("wait-all", func(b *testing.B) {
		run(b, preset("chain", StrategyConfig{}), false)
	})
	b.Run("hedge-50ms", func(b *testing.B) {
		run(b, preset("chain", StrategyConfig{Fanout: Fanout{HedgeDeadline: hedge}}), true)
	})
}
