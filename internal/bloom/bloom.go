// Package bloom implements the Bloom filter used to reproduce the lossy
// aggregation alternative the paper cites from the Service Discovery
// Service (§5.1: directories "could also use lossy aggregation techniques,
// as in the Service Discovery Service, which hashes descriptions and
// summarizes hashes via Bloom filtering"). A GIIS index plugin summarizes
// each child's searchable terms into a filter and routes queries only to
// children whose summaries match.
package bloom

import (
	"hash/fnv"
	"math"
	"math/bits"
)

// Filter is a fixed-size Bloom filter using double hashing (Kirsch &
// Mitzenmacher) over FNV-64. The zero value is unusable; call New.
type Filter struct {
	bits []uint64
	m    uint64 // number of bits
	k    int    // number of hash functions
	n    int    // elements added
}

// New creates a filter with m bits and k hash functions. m is rounded up to
// a multiple of 64; m and k are clamped to sane minimums.
func New(m uint64, k int) *Filter {
	if m < 64 {
		m = 64
	}
	if k < 1 {
		k = 1
	}
	words := (m + 63) / 64
	return &Filter{bits: make([]uint64, words), m: words * 64, k: k}
}

// NewForCapacity sizes a filter for n expected elements at target false
// positive rate p, using the standard m = -n·lnp/ln²2, k = (m/n)·ln2.
func NewForCapacity(n int, p float64) *Filter {
	if n < 1 {
		n = 1
	}
	if p <= 0 || p >= 1 {
		p = 0.01
	}
	m := uint64(math.Ceil(-float64(n) * math.Log(p) / (math.Ln2 * math.Ln2)))
	k := int(math.Round(float64(m) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	return New(m, k)
}

func hashPair(s string) (uint64, uint64) {
	h1 := fnv.New64a()
	h1.Write([]byte(s))
	a := h1.Sum64()
	h2 := fnv.New64()
	h2.Write([]byte(s))
	h2.Write([]byte{0x9e})
	b := h2.Sum64() | 1 // odd, so strides cover the table
	return a, b
}

// Add inserts a term.
func (f *Filter) Add(s string) {
	a, b := hashPair(s)
	for i := 0; i < f.k; i++ {
		idx := (a + uint64(i)*b) % f.m
		f.bits[idx/64] |= 1 << (idx % 64)
	}
	f.n++
}

// Test reports whether s may have been added (false positives possible,
// false negatives impossible).
func (f *Filter) Test(s string) bool {
	a, b := hashPair(s)
	for i := 0; i < f.k; i++ {
		idx := (a + uint64(i)*b) % f.m
		if f.bits[idx/64]&(1<<(idx%64)) == 0 {
			return false
		}
	}
	return true
}

// Union merges other into f; both must have identical geometry.
func (f *Filter) Union(other *Filter) bool {
	if f.m != other.m || f.k != other.k {
		return false
	}
	for i := range f.bits {
		f.bits[i] |= other.bits[i]
	}
	f.n += other.n
	return true
}

// Count returns the number of Add calls.
func (f *Filter) Count() int { return f.n }

// Bits returns the filter size in bits.
func (f *Filter) Bits() uint64 { return f.m }

// FillRatio returns the fraction of set bits.
func (f *Filter) FillRatio() float64 {
	set := 0
	for _, w := range f.bits {
		set += bits.OnesCount64(w)
	}
	return float64(set) / float64(f.m)
}
