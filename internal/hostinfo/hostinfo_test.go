package hostinfo

import (
	"testing"
	"time"
)

func linuxSpec() Spec {
	return Spec{OS: "linux redhat", OSVer: "6.2", CPUType: "ia32", CPUCount: 4, MemoryMB: 2048}
}

func TestDeterministicEvolution(t *testing.T) {
	a := New("h", linuxSpec(), 42)
	b := New("h", linuxSpec(), 42)
	for i := 0; i < 50; i++ {
		a.Step(time.Minute)
		b.Step(time.Minute)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	if sa.Load1 != sb.Load1 || sa.Load5 != sb.Load5 {
		t.Fatalf("same seed diverged: %v vs %v", sa.Load1, sb.Load1)
	}
	c := New("h", linuxSpec(), 43)
	c.Step(50 * time.Minute)
	if c.Snapshot().Load1 == sa.Load1 {
		t.Error("different seeds should diverge")
	}
}

func TestLoadStaysNonNegativeAndBounded(t *testing.T) {
	h := New("h", linuxSpec(), 7)
	for i := 0; i < 24*60; i++ { // one simulated day
		h.Step(time.Minute)
		s := h.Snapshot()
		if s.Load1 < 0 || s.Load5 < 0 || s.Load15 < 0 {
			t.Fatalf("negative load at step %d: %+v", i, s)
		}
		if s.Load1 > 10*float64(h.Spec.CPUCount) {
			t.Fatalf("implausible load %f", s.Load1)
		}
	}
}

func TestLoadAveragesSmooth(t *testing.T) {
	h := New("h", linuxSpec(), 7)
	var v1, v15 float64
	// Variance of load15 must be well below variance of load1.
	var sum1, sum15, sq1, sq15 float64
	const n = 600
	for i := 0; i < n; i++ {
		h.Step(time.Minute)
		s := h.Snapshot()
		sum1 += s.Load1
		sum15 += s.Load15
		sq1 += s.Load1 * s.Load1
		sq15 += s.Load15 * s.Load15
	}
	v1 = sq1/n - (sum1/n)*(sum1/n)
	v15 = sq15/n - (sum15/n)*(sum15/n)
	if v15 >= v1 {
		t.Errorf("load15 variance %f should be below load1 variance %f", v15, v1)
	}
}

func TestFilesystemBounds(t *testing.T) {
	h := New("h", linuxSpec(), 3)
	for i := 0; i < 5000; i++ {
		h.Step(time.Minute)
	}
	for _, f := range h.Snapshot().FS {
		if f.FreeMB < 0 || f.FreeMB > f.TotalMB {
			t.Fatalf("fs %s out of bounds: %d/%d", f.Name, f.FreeMB, f.TotalMB)
		}
	}
}

func TestQueueBounds(t *testing.T) {
	h := New("h", linuxSpec(), 3)
	for i := 0; i < 1000; i++ {
		h.Step(time.Minute)
		for _, q := range h.Snapshot().Queues {
			if q.Running < 0 || q.Running > q.MaxJobs || q.Queued < 0 {
				t.Fatalf("queue %s out of bounds: %+v", q.Name, q)
			}
		}
	}
}

func TestFreeCPUs(t *testing.T) {
	s := Snapshot{Spec: Spec{CPUCount: 8}, Load5: 3.4}
	if got := s.FreeCPUs(); got != 5 {
		t.Errorf("FreeCPUs = %d, want 5", got)
	}
	s.Load5 = 100
	if got := s.FreeCPUs(); got != 0 {
		t.Errorf("overloaded FreeCPUs = %d, want 0", got)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	h := New("h", linuxSpec(), 1)
	s := h.Snapshot()
	s.FS[0].FreeMB = -999
	s.Queues[0].Running = -999
	if h.Snapshot().FS[0].FreeMB == -999 || h.Snapshot().Queues[0].Running == -999 {
		t.Error("snapshot aliases host state")
	}
}

func TestDiurnalCycle(t *testing.T) {
	// Mean load mid-afternoon should exceed mean load pre-dawn.
	h := New("h", linuxSpec(), 11)
	sumByHour := map[int]float64{}
	countByHour := map[int]int{}
	for day := 0; day < 5; day++ {
		for m := 0; m < 24*60; m++ {
			h.Step(time.Minute)
			s := h.Snapshot()
			sumByHour[s.At.Hour()] += s.Load1
			countByHour[s.At.Hour()]++
		}
	}
	afternoon := sumByHour[15] / float64(countByHour[15])
	predawn := sumByHour[4] / float64(countByHour[4])
	if afternoon <= predawn {
		t.Errorf("diurnal cycle missing: 15h=%f 4h=%f", afternoon, predawn)
	}
}
