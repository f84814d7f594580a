package bloom

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNoFalseNegatives(t *testing.T) {
	f := New(4096, 4)
	items := make([]string, 500)
	for i := range items {
		items[i] = fmt.Sprintf("attr=value-%d", i)
		f.Add(items[i])
	}
	for _, s := range items {
		if !f.Test(s) {
			t.Fatalf("false negative for %q", s)
		}
	}
	if f.Count() != 500 {
		t.Errorf("count = %d", f.Count())
	}
}

func TestNoFalseNegativesQuick(t *testing.T) {
	f := NewForCapacity(1000, 0.01)
	check := func(s string) bool {
		f.Add(s)
		return f.Test(s)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFalsePositiveRateNearTarget(t *testing.T) {
	const n = 2000
	const target = 0.01
	f := NewForCapacity(n, target)
	for i := 0; i < n; i++ {
		f.Add(fmt.Sprintf("member-%d", i))
	}
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if f.Test(fmt.Sprintf("nonmember-%d", i)) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > target*3 {
		t.Errorf("observed FPR %f greatly exceeds target %f", rate, target)
	}
}

func TestEmptyFilterMatchesNothing(t *testing.T) {
	f := New(1024, 3)
	for i := 0; i < 100; i++ {
		if f.Test(fmt.Sprintf("x%d", i)) {
			t.Fatalf("empty filter matched x%d", i)
		}
	}
	if f.FillRatio() != 0 {
		t.Error("empty filter should have zero fill")
	}
}

func TestUnion(t *testing.T) {
	a, b := New(2048, 4), New(2048, 4)
	a.Add("only-a")
	b.Add("only-b")
	if !a.Union(b) {
		t.Fatal("union of same-geometry filters failed")
	}
	if !a.Test("only-a") || !a.Test("only-b") {
		t.Error("union lost members")
	}
	c := New(4096, 4)
	if a.Union(c) {
		t.Error("union of mismatched geometry should fail")
	}
	if a.Union(New(2048, 3)) {
		t.Error("union of mismatched k should fail")
	}
}

func TestGeometryClamping(t *testing.T) {
	f := New(1, 0)
	if f.Bits() < 64 {
		t.Errorf("bits = %d", f.Bits())
	}
	f.Add("x")
	if !f.Test("x") {
		t.Error("clamped filter broken")
	}
	g := NewForCapacity(0, 2.0) // both inputs out of range
	g.Add("y")
	if !g.Test("y") {
		t.Error("defaulted capacity filter broken")
	}
}

func TestSizeAccuracyTradeoff(t *testing.T) {
	// Smaller summaries must produce more false positives — the E5 curve.
	const n = 1000
	rates := make([]float64, 0, 3)
	for _, mbits := range []uint64{2048, 8192, 65536} {
		f := New(mbits, 4)
		for i := 0; i < n; i++ {
			f.Add(fmt.Sprintf("m%d", i))
		}
		fp := 0
		for i := 0; i < 5000; i++ {
			if f.Test(fmt.Sprintf("probe%d", i)) {
				fp++
			}
		}
		rates = append(rates, float64(fp)/5000)
	}
	if !(rates[0] > rates[1] && rates[1] >= rates[2]) {
		t.Errorf("FPR should fall with size: %v", rates)
	}
}

func TestFillRatioMonotone(t *testing.T) {
	f := New(1024, 3)
	prev := 0.0
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		f.Add(fmt.Sprintf("k%d", r.Int63()))
		fill := f.FillRatio()
		if fill < prev {
			t.Fatal("fill ratio decreased")
		}
		prev = fill
	}
	if prev <= 0 || prev > 1 {
		t.Errorf("fill = %f", prev)
	}
}

func BenchmarkAdd(b *testing.B) {
	f := NewForCapacity(100000, 0.01)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Add("objectclass=computer")
	}
}

func BenchmarkTest(b *testing.B) {
	f := NewForCapacity(10000, 0.01)
	for i := 0; i < 10000; i++ {
		f.Add(fmt.Sprintf("m%d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Test("m5000")
	}
}
