package main

import (
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The sandbox this benchmark runs in does not execute at a steady speed.
// For seconds to minutes at a time the same code costs 1.2x to 1.6x its
// usual CPU time (no steal time is reported and a register-only loop barely
// notices, so it is the host's memory system under other tenants, not this
// guest's scheduler). Every time-based metric, wall or CPU, inherits that
// factor, and no amount of slicing removes it when a whole run falls into a
// slow phase: ten identical runs of the raw numbers spread 15-40 %.
//
// The speedometer measures the factor while the workload runs. Every
// speedEvery it executes a small fixed reference mix on its own locked
// thread — allocate and touch small objects, then round-trip a pipe with
// plain syscalls, the two things a directory server's hot path is made of —
// and records the thread CPU time of each part. CPU time, not wall time, so
// being descheduled by the busy workload does not count; only how fast the
// core ran. The mix costs about 1 % of one core.
//
// A slice's speed factor is the mean over the two parts of (median time in
// the slice / nominal time). Each time-based metric of the slice is scaled
// by it before the median over slices is taken, so reported times are
// "milliseconds at nominal machine speed": comparable between two commits
// measured minutes apart on this kind of box, which is what the gate needs.
// On the calibration runs this cut the run-to-run spread of every time-based
// metric by 2-4x (CALIBRATION.md). Counts (allocations, bytes, RSS) are
// never scaled, and the raw values are kept in the -json document.

const (
	speedEvery = 20 * time.Millisecond
	refAllocs  = 3000 // 48-byte objects allocated per sample
	refTrips   = 150  // pipe write+read pairs per sample
	// Nominal CPU time of each part on the calibration box in its usual
	// state under this benchmark. They only fix the unit: any constants
	// cancel out of a parent-versus-change comparison.
	nominalAlloc = 100 * time.Microsecond
	nominalTrips = 107 * time.Microsecond
)

// speedSample is one execution of the reference mix.
type speedSample struct {
	at           time.Time
	alloc, trips time.Duration
}

type speedometer struct {
	mu      sync.Mutex
	samples []speedSample
	stop    chan struct{}
	done    chan struct{}
}

// threadCPU reads the calling thread's CPU clock.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// startSpeedometer begins sampling; close stops it.
func startSpeedometer() (*speedometer, error) {
	var pipe [2]int
	if err := syscall.Pipe(pipe[:]); err != nil {
		return nil, err
	}
	s := &speedometer{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer syscall.Close(pipe[0])
		defer syscall.Close(pipe[1])
		// The thread CPU clock only means something if all readings of a
		// sample come from one thread.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		keep := make([][]byte, 0, 512)
		buf := make([]byte, 64)
		t := time.NewTicker(speedEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			at, c0 := time.Now(), threadCPU()
			for i := 0; i < refAllocs; i++ {
				if len(keep) == cap(keep) {
					keep = keep[:0]
				}
				b := make([]byte, 48)
				b[0] = byte(i)
				keep = append(keep, b)
			}
			c1 := threadCPU()
			for i := 0; i < refTrips; i++ {
				syscall.Write(pipe[1], buf)
				syscall.Read(pipe[0], buf)
			}
			c2 := threadCPU()
			s.mu.Lock()
			s.samples = append(s.samples, speedSample{at, c1 - c0, c2 - c1})
			s.mu.Unlock()
		}
	}()
	return s, nil
}

func (s *speedometer) close() {
	close(s.stop)
	<-s.done
}

func medianDuration(d []time.Duration) time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[len(d)/2]
}

// factor is how much slower than nominal the machine ran between a and b
// (1 if no sample was taken in the interval, or on a nil speedometer).
func (s *speedometer) factor(a, b time.Time) float64 {
	if s == nil {
		return 1
	}
	var alloc, trips []time.Duration
	s.mu.Lock()
	for _, sm := range s.samples {
		if !sm.at.Before(a) && sm.at.Before(b) {
			alloc = append(alloc, sm.alloc)
			trips = append(trips, sm.trips)
		}
	}
	s.mu.Unlock()
	if len(alloc) == 0 {
		return 1
	}
	return (float64(medianDuration(alloc))/float64(nominalAlloc) +
		float64(medianDuration(trips))/float64(nominalTrips)) / 2
}
