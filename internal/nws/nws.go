// Package nws reproduces the Network Weather Service integration of §4.1:
// an information source that measures network links on demand and predicts
// future performance with a battery of forecasters, selecting whichever has
// been most accurate so far (the NWS "dynamic predictor selection"). The
// paper's bandwidth provider exposes a *non-enumerable* namespace — entries
// for links between arbitrary endpoints are generated lazily per query —
// and this package supplies exactly that behaviour to the GRIS backend.
package nws

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Measurement is one observation of a link.
type Measurement struct {
	BandwidthMbps float64
	LatencyMs     float64
	At            time.Time
}

// link holds the hidden true process for one endpoint pair.
type link struct {
	rng           *rand.Rand
	baseBandwidth float64
	baseLatency   float64
	bw            float64 // AR(1) state
	lat           float64
}

func newLink(src, dst string) *link {
	h := fnv.New64a()
	h.Write([]byte(src))
	h.Write([]byte{0})
	h.Write([]byte(dst))
	seed := int64(h.Sum64())
	rng := rand.New(rand.NewSource(seed))
	// Base characteristics derive deterministically from the endpoints, so
	// any (src,dst) pair has a well-defined link without enumeration.
	base := 10 + rng.Float64()*90 // 10..100 Mbps
	lat := 5 + rng.Float64()*120  // 5..125 ms
	return &link{rng: rng, baseBandwidth: base, baseLatency: lat, bw: base, lat: lat}
}

func (l *link) measure(at time.Time) Measurement {
	// AR(1) with multiplicative noise; clamped positive.
	l.bw = l.baseBandwidth + 0.8*(l.bw-l.baseBandwidth) + 0.1*l.baseBandwidth*l.rng.NormFloat64()
	if l.bw < 0.1 {
		l.bw = 0.1
	}
	l.lat = l.baseLatency + 0.8*(l.lat-l.baseLatency) + 0.05*l.baseLatency*l.rng.NormFloat64()
	if l.lat < 0.1 {
		l.lat = 0.1
	}
	return Measurement{BandwidthMbps: l.bw, LatencyMs: l.lat, At: at}
}

// Forecaster predicts the next value of a series from past updates.
type Forecaster interface {
	Name() string
	Update(v float64)
	// Predict returns the forecast for the next value; ok is false until
	// the forecaster has enough history.
	Predict() (float64, bool)
}

// LastValue predicts the most recent observation.
type LastValue struct {
	v   float64
	has bool
}

// Name implements Forecaster.
func (*LastValue) Name() string { return "last" }

// Update implements Forecaster.
func (f *LastValue) Update(v float64) { f.v, f.has = v, true }

// Predict implements Forecaster.
func (f *LastValue) Predict() (float64, bool) { return f.v, f.has }

// RunningMean predicts the mean of all history.
type RunningMean struct {
	sum float64
	n   int
}

// Name implements Forecaster.
func (*RunningMean) Name() string { return "mean" }

// Update implements Forecaster.
func (f *RunningMean) Update(v float64) { f.sum += v; f.n++ }

// Predict implements Forecaster.
func (f *RunningMean) Predict() (float64, bool) {
	if f.n == 0 {
		return 0, false
	}
	return f.sum / float64(f.n), true
}

// Window predicts the mean of the last K observations.
type Window struct {
	K    int
	ring []float64
	pos  int
	n    int
}

// NewWindow returns a K-sample sliding mean.
func NewWindow(k int) *Window { return &Window{K: k, ring: make([]float64, k)} }

// Name implements Forecaster.
func (f *Window) Name() string { return fmt.Sprintf("win%d", f.K) }

// Update implements Forecaster.
func (f *Window) Update(v float64) {
	f.ring[f.pos] = v
	f.pos = (f.pos + 1) % f.K
	if f.n < f.K {
		f.n++
	}
}

// Predict implements Forecaster.
func (f *Window) Predict() (float64, bool) {
	if f.n == 0 {
		return 0, false
	}
	sum := 0.0
	for i := 0; i < f.n; i++ {
		sum += f.ring[i]
	}
	return sum / float64(f.n), true
}

// Median predicts the median of the last K observations, robust to the
// outliers bursty networks produce.
type Median struct {
	K    int
	ring []float64
	pos  int
	n    int
}

// NewMedian returns a K-sample sliding median.
func NewMedian(k int) *Median { return &Median{K: k, ring: make([]float64, k)} }

// Name implements Forecaster.
func (f *Median) Name() string { return fmt.Sprintf("med%d", f.K) }

// Update implements Forecaster.
func (f *Median) Update(v float64) {
	f.ring[f.pos] = v
	f.pos = (f.pos + 1) % f.K
	if f.n < f.K {
		f.n++
	}
}

// Predict implements Forecaster.
func (f *Median) Predict() (float64, bool) {
	if f.n == 0 {
		return 0, false
	}
	tmp := append([]float64(nil), f.ring[:f.n]...)
	sort.Float64s(tmp)
	return tmp[len(tmp)/2], true
}

// ExpSmoothing predicts an exponentially weighted moving average.
type ExpSmoothing struct {
	Alpha float64
	v     float64
	has   bool
}

// NewExpSmoothing returns an EWMA forecaster with smoothing factor alpha.
func NewExpSmoothing(alpha float64) *ExpSmoothing { return &ExpSmoothing{Alpha: alpha} }

// Name implements Forecaster.
func (f *ExpSmoothing) Name() string { return fmt.Sprintf("ewma%.2f", f.Alpha) }

// Update implements Forecaster.
func (f *ExpSmoothing) Update(v float64) {
	if !f.has {
		f.v, f.has = v, true
		return
	}
	f.v += f.Alpha * (v - f.v)
}

// Predict implements Forecaster.
func (f *ExpSmoothing) Predict() (float64, bool) { return f.v, f.has }

// Battery runs several forecasters in parallel and predicts with whichever
// has the lowest mean squared error so far — the NWS selection strategy.
type Battery struct {
	members []Forecaster
	sqErr   []float64
	n       []int
	// pending holds each member's forecast made before the latest Update,
	// scored when the next truth arrives.
	pending []float64
	hasPred []bool
}

// NewBattery assembles the standard member set.
func NewBattery() *Battery {
	members := []Forecaster{
		&LastValue{}, &RunningMean{}, NewWindow(5), NewWindow(20),
		NewMedian(5), NewMedian(21), NewExpSmoothing(0.2), NewExpSmoothing(0.5),
	}
	return &Battery{
		members: members,
		sqErr:   make([]float64, len(members)),
		n:       make([]int, len(members)),
		pending: make([]float64, len(members)),
		hasPred: make([]bool, len(members)),
	}
}

// Update scores each member's outstanding forecast against the new truth,
// then feeds the truth to every member.
func (b *Battery) Update(v float64) {
	for i, m := range b.members {
		if b.hasPred[i] {
			d := b.pending[i] - v
			b.sqErr[i] += d * d
			b.n[i]++
		}
		m.Update(v)
		b.pending[i], b.hasPred[i] = m.Predict()
	}
}

// Predict returns the current best member's forecast and its name.
func (b *Battery) Predict() (float64, string, bool) {
	best := -1
	bestMSE := math.Inf(1)
	for i := range b.members {
		if !b.hasPred[i] {
			continue
		}
		mse := math.Inf(1)
		if b.n[i] > 0 {
			mse = b.sqErr[i] / float64(b.n[i])
		} else {
			mse = math.MaxFloat64 / 2 // unscored members rank last but are usable
		}
		if mse < bestMSE {
			bestMSE = mse
			best = i
		}
	}
	if best < 0 {
		return 0, "", false
	}
	return b.pending[best], b.members[best].Name(), true
}

// Service is the NWS facade the GRIS network backend queries: measurements
// and forecasts for links between arbitrary named endpoints, generated
// lazily per request.
type Service struct {
	mu        sync.Mutex
	links     map[string]*link
	batteries map[string]*Battery
	measured  int
}

// NewService returns an empty service.
func NewService() *Service {
	return &Service{links: map[string]*link{}, batteries: map[string]*Battery{}}
}

func linkKey(src, dst string) string { return src + "\x00" + dst }

// Measure performs (simulates) one experiment on the src→dst link and
// feeds the forecasters.
func (s *Service) Measure(src, dst string, at time.Time) Measurement {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := linkKey(src, dst)
	l, ok := s.links[key]
	if !ok {
		l = newLink(src, dst)
		s.links[key] = l
		s.batteries[key] = NewBattery()
	}
	m := l.measure(at)
	s.batteries[key].Update(m.BandwidthMbps)
	s.measured++
	return m
}

// Forecast returns the battery's bandwidth prediction for the link, and the
// name of the forecaster that produced it. ok is false when the link has
// never been measured.
func (s *Service) Forecast(src, dst string) (pred float64, forecaster string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, exists := s.batteries[linkKey(src, dst)]
	if !exists {
		return 0, "", false
	}
	return b.Predict()
}

// Measured returns the number of experiments run (providers use it to show
// queries trigger measurements rather than database reads).
func (s *Service) Measured() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.measured
}

// Battery exposes the per-link battery for experiment reporting.
func (s *Service) Battery(src, dst string) (*Battery, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.batteries[linkKey(src, dst)]
	return b, ok
}
