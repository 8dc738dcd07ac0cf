package behavior

import "sort"

// FeatureHash returns the 64-bit FNV-1a hash of a feature string — the
// interned integer representation used by FeatureSet, whose hash order is
// also the token order of the bcluster prefix index. Inlined (rather than hash/fnv) so the per-feature
// cost is a tight loop with no allocation.
func FeatureHash(f string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(f); i++ {
		h ^= uint64(f[i])
		h *= prime64
	}
	return h
}

// FeatureSet is the interned integer representation of a behavioral
// profile: the sorted, deduplicated set of 64-bit feature hashes. It is
// the hot-path currency of the B-clustering — Jaccard similarity becomes
// a linear merge over two sorted uint64 slices instead of a string-map
// intersection, and the prefix index posts each set under its first
// (smallest) hashes without re-hashing any feature string. Hash order is
// fixed, so a set's prefix is the same on every shard, restart and epoch.
//
// Two distinct features collide only when their FNV-64 hashes collide
// (probability ~2⁻⁶⁴ per pair), in which case the set is one element
// smaller than the profile; the differential tests against the map-based
// Jaccard make this trade explicit.
type FeatureSet []uint64

// normalize sorts the set and drops duplicate hashes in place.
func (fs *FeatureSet) normalize() {
	s := *fs
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	out := s[:0]
	for i, h := range s {
		if i == 0 || h != s[i-1] {
			out = append(out, h)
		}
	}
	*fs = out
}

// Jaccard computes |A∩B| / |A∪B| by merging the two sorted hash sets;
// two empty sets have similarity 1, mirroring Profile.Jaccard.
func (fs FeatureSet) Jaccard(other FeatureSet) float64 {
	if len(fs) == 0 && len(other) == 0 {
		return 1
	}
	i, j, inter := 0, 0, 0
	for i < len(fs) && j < len(other) {
		a, b := fs[i], other[j]
		switch {
		case a == b:
			inter++
			i++
			j++
		case a < b:
			i++
		default:
			j++
		}
	}
	union := len(fs) + len(other) - inter
	return float64(inter) / float64(union)
}
