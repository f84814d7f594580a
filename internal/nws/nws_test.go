package nws

import (
	"math"
	"testing"
	"time"
)

var t0 = time.Date(2001, 6, 1, 0, 0, 0, 0, time.UTC)

func TestMeasurementsPositiveAndStationary(t *testing.T) {
	s := NewService()
	var sum float64
	const n = 500
	for i := 0; i < n; i++ {
		m := s.Measure("ufl.edu", "anl.gov", t0.Add(time.Duration(i)*time.Minute))
		if m.BandwidthMbps <= 0 || m.LatencyMs <= 0 {
			t.Fatalf("non-positive measurement %+v", m)
		}
		sum += m.BandwidthMbps
	}
	mean := sum / n
	if mean < 5 || mean > 150 {
		t.Errorf("mean bandwidth %f outside plausible band", mean)
	}
	if s.Measured() != n {
		t.Errorf("measured = %d", s.Measured())
	}
}

func TestLinksAreDeterministicPerEndpointPair(t *testing.T) {
	a, b := NewService(), NewService()
	for i := 0; i < 20; i++ {
		ma := a.Measure("x", "y", t0)
		mb := b.Measure("x", "y", t0)
		if ma.BandwidthMbps != mb.BandwidthMbps {
			t.Fatal("same endpoints diverged across services")
		}
	}
	// Direction matters (asymmetric routes).
	m1 := a.Measure("x", "y", t0)
	m2 := a.Measure("y", "x", t0)
	if m1.BandwidthMbps == m2.BandwidthMbps {
		t.Error("reverse link should be an independent process")
	}
}

func TestNonEnumerableNamespace(t *testing.T) {
	// Any endpoint pair works with no prior registration — the §4.1
	// lazily generated parametric namespace.
	s := NewService()
	pairs := [][2]string{{"a", "b"}, {"never.seen", "before.example"}, {"x", "x"}}
	for _, p := range pairs {
		if m := s.Measure(p[0], p[1], t0); m.BandwidthMbps <= 0 {
			t.Fatalf("pair %v unusable", p)
		}
	}
	// Forecast before measurement reports !ok.
	if _, _, ok := s.Forecast("un", "measured"); ok {
		t.Error("forecast without history should fail")
	}
}

func TestForecastAfterMeasurements(t *testing.T) {
	s := NewService()
	for i := 0; i < 100; i++ {
		s.Measure("src", "dst", t0.Add(time.Duration(i)*time.Minute))
	}
	pred, name, ok := s.Forecast("src", "dst")
	if !ok || name == "" {
		t.Fatal("forecast unavailable")
	}
	if pred <= 0 || pred > 300 {
		t.Errorf("prediction %f implausible", pred)
	}
}

func TestForecasterBasics(t *testing.T) {
	lv := &LastValue{}
	if _, ok := lv.Predict(); ok {
		t.Error("empty LastValue should not predict")
	}
	lv.Update(5)
	if v, ok := lv.Predict(); !ok || v != 5 {
		t.Errorf("LastValue = %f", v)
	}

	rm := &RunningMean{}
	for _, v := range []float64{2, 4, 6} {
		rm.Update(v)
	}
	if v, _ := rm.Predict(); v != 4 {
		t.Errorf("RunningMean = %f", v)
	}

	w := NewWindow(2)
	for _, v := range []float64{1, 100, 200} {
		w.Update(v)
	}
	if v, _ := w.Predict(); v != 150 {
		t.Errorf("Window = %f", v)
	}

	med := NewMedian(3)
	for _, v := range []float64{10, 1000, 20} {
		med.Update(v)
	}
	if v, _ := med.Predict(); v != 20 {
		t.Errorf("Median = %f", v)
	}

	ew := NewExpSmoothing(0.5)
	ew.Update(0)
	ew.Update(10)
	if v, _ := ew.Predict(); v != 5 {
		t.Errorf("ExpSmoothing = %f", v)
	}
}

func TestForecasterNamesDistinct(t *testing.T) {
	b := NewBattery()
	seen := map[string]bool{}
	for _, m := range b.members {
		if seen[m.Name()] {
			t.Fatalf("duplicate forecaster name %q", m.Name())
		}
		seen[m.Name()] = true
	}
}

func TestBatteryPicksAccurateForecaster(t *testing.T) {
	// Constant series: every forecaster converges; battery must predict the
	// constant.
	b := NewBattery()
	for i := 0; i < 50; i++ {
		b.Update(42)
	}
	pred, name, ok := b.Predict()
	if !ok || math.Abs(pred-42) > 1e-9 {
		t.Fatalf("battery on constant series: %f via %s", pred, name)
	}
}

func TestBatteryBeatsWorstMember(t *testing.T) {
	// Trending series: the running mean lags badly; the battery's choice
	// must have MSE no worse than the running mean's.
	b := NewBattery()
	var batterySqErr, meanSqErr float64
	n := 0
	ref := &RunningMean{}
	for i := 0; i < 300; i++ {
		truth := float64(i) // steadily rising
		if pred, _, ok := b.Predict(); ok {
			d := pred - truth
			batterySqErr += d * d
		}
		if pred, ok := ref.Predict(); ok {
			d := pred - truth
			meanSqErr += d * d
			n++
		}
		b.Update(truth)
		ref.Update(truth)
	}
	if n == 0 || batterySqErr >= meanSqErr {
		t.Errorf("battery MSE %f should beat running-mean MSE %f", batterySqErr, meanSqErr)
	}
}

func TestBatteryEmpty(t *testing.T) {
	b := NewBattery()
	if _, _, ok := b.Predict(); ok {
		t.Error("empty battery should not predict")
	}
}

func BenchmarkMeasure(b *testing.B) {
	s := NewService()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Measure("src", "dst", t0)
	}
}
