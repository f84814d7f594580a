package main

import (
	"math"
	"sort"
)

// sliceCount is how many equal slices the timed window is cut into. Every
// rate and latency metric is the median of its per-slice values, so one
// noisy-neighbour burst costs one slice, not the run.
const sliceCount = 10

// sample is one completed operation: when it completed and how long it
// took, both in nanoseconds (done as an offset from the window start).
type sample struct {
	done int64
	lat  int64
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values. vals is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted
// latencies; 0 for none.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sliceStat is what one slice of the window contributes.
type sliceStat struct {
	n             int
	perS          float64
	p50, p90, p99 float64 // ms
	// speed is the machine's slowness factor over the slice (see speed.go);
	// fast(t) and rate(r) scale a time or a rate to nominal speed.
	speed float64
}

func (s sliceStat) fast(t float64) float64 { return t / s.speed }
func (s sliceStat) rate(r float64) float64 { return r * s.speed }

// sliceStats buckets samples by completion time into the slices delimited
// by bounds (len = slices+1, ns offsets, ascending) and summarises each.
// Samples completing outside [bounds[0], bounds[last]) are ignored. speed
// holds one slowness factor per slice; nil means nominal speed throughout.
func sliceStats(samples []sample, bounds []int64, speed []float64) []sliceStat {
	n := len(bounds) - 1
	if n < 1 {
		return nil
	}
	lats := make([][]int64, n)
	for _, s := range samples {
		k := sort.Search(len(bounds), func(i int) bool { return bounds[i] > s.done }) - 1
		if k < 0 || k >= n {
			continue
		}
		lats[k] = append(lats[k], s.lat)
	}
	out := make([]sliceStat, n)
	for k, l := range lats {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
		out[k] = sliceStat{
			n:     len(l),
			perS:  float64(len(l)) / (float64(bounds[k+1]-bounds[k]) / 1e9),
			p50:   float64(percentile(l, 0.50)) / 1e6,
			p90:   float64(percentile(l, 0.90)) / 1e6,
			p99:   float64(percentile(l, 0.99)) / 1e6,
			speed: 1,
		}
		if speed != nil {
			out[k].speed = speed[k]
		}
	}
	return out
}

// metricValue is one reported number with what it was computed from.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples int       `json:"samples,omitempty"`
	Slices  []float64 `json:"slices,omitempty"`
}

// overSlices reports the median of one per-slice quantity.
func overSlices(stats []sliceStat, unit string, pick func(sliceStat) float64) metricValue {
	mv := metricValue{Unit: unit}
	for _, s := range stats {
		mv.Slices = append(mv.Slices, pick(s))
		mv.Samples += s.n
	}
	mv.Value = median(mv.Slices)
	return mv
}
