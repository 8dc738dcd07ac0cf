// Package simrng provides deterministic, named random-number streams.
//
// Every stochastic decision in the simulation draws from a stream derived
// from a root seed and a hierarchical name. Two runs with the same root
// seed produce byte-identical results, and adding a new consumer stream
// does not perturb existing streams (unlike sharing a single rand.Rand).
package simrng

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// Source derives independent deterministic streams from a root seed.
// The zero value is a valid source with seed 0.
type Source struct {
	seed uint64
}

// New returns a Source rooted at the given seed.
func New(seed uint64) *Source {
	return &Source{seed: seed}
}

// Seed reports the root seed of the source.
func (s *Source) Seed() uint64 {
	return s.seed
}

// Child returns a Source whose streams are independent from the parent's
// and from any sibling's. It is used to give each subsystem its own
// namespace.
func (s *Source) Child(name string) *Source {
	return &Source{seed: deriveSeed(s.seed, name)}
}

// Stream returns a new deterministic *rand.Rand for the given name.
// Repeated calls with the same name return generators with identical
// sequences; callers that need evolving state must retain the generator.
func (s *Source) Stream(name string) *rand.Rand {
	return rand.New(rand.NewSource(int64(deriveSeed(s.seed, name))))
}

// deriveSeed mixes the parent seed with a name using FNV-1a followed by a
// splitmix64 finalizer so that structurally similar names map to
// well-separated seeds.
func deriveSeed(seed uint64, name string) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(seed >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(name))
	return splitmix64(h.Sum64())
}

// splitmix64 is the finalizer of the SplitMix64 generator; it is a strong
// 64-bit mixing function.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Pick returns a uniformly random element of items. It panics if items is
// empty, mirroring the behaviour of indexing an empty slice.
func Pick[T any](r *rand.Rand, items []T) T {
	return items[r.Intn(len(items))]
}

// Poisson samples a Poisson-distributed count with the given mean using
// Knuth's algorithm for small means and a normal approximation for large
// ones. A non-positive mean yields 0.
func Poisson(r *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		// Normal approximation with continuity correction.
		n := int(r.NormFloat64()*math.Sqrt(mean) + mean + 0.5)
		if n < 0 {
			return 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// SampleWithoutReplacement returns k distinct integers in [0, n) in random
// order. If k >= n it returns a permutation of [0, n).
func SampleWithoutReplacement(r *rand.Rand, n, k int) []int {
	if k >= n {
		return r.Perm(n)
	}
	// Partial Fisher-Yates over a sparse map keeps this O(k) in memory.
	swapped := make(map[int]int, k)
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		vi, ok := swapped[i]
		if !ok {
			vi = i
		}
		vj, ok := swapped[j]
		if !ok {
			vj = j
		}
		swapped[i], swapped[j] = vj, vi
		out = append(out, vj)
	}
	return out
}
