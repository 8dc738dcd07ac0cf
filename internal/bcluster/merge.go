package bcluster

import (
	"fmt"
	"math"

	"repro/internal/behavior"
)

// Merge combines several Incremental clusterers — one per shard, over
// disjoint sample sets — into a single Result whose membership partition
// is identical to Run over the union of their inputs.
//
// Every intra-shard link is already resolved: each shard ran the full
// LSH probe over its own samples. What a shard cannot see is a candidate
// pair straddling a shard boundary, and LSH makes those cheap to find
// after the fact — a pair is a candidate exactly when its signatures
// collide in at least one band, a property of the cached signatures
// alone. Merge therefore:
//
//  1. Seeds a global union-find with each shard's components.
//  2. Rebuilds the per-band buckets over every integrated sample from
//     the cached MinHash signatures (no profile re-hashing), and
//     verifies, by exact Jaccard over the interned feature sets, only
//     the cross-shard pairs not already in one component.
//  3. Assembles the closure with Run's canonical cluster order.
//
// Parked samples (added but not yet verified by their shard) stay
// outside the probe and surface as singletons, mirroring each shard's
// own Result. Merged CandidatePairs and Links extend the per-shard sums
// by the cross-shard probe work; like the per-shard counters they are
// path-dependent (component pruning fires at different points than a
// batch Run), while Samples and the partition itself are exact.
//
// The Result is self-contained. Callers must not run Add/Amend/Verify
// on any part concurrently with Merge.
func Merge(parts []*Incremental) (*Result, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("bcluster: merge of zero parts")
	}
	cfg := parts[0].cfg
	total := 0
	for _, p := range parts {
		if p.cfg.NumHashes != cfg.NumHashes || p.cfg.Bands != cfg.Bands ||
			p.cfg.Threshold != cfg.Threshold || p.cfg.Seed != cfg.Seed ||
			p.cfg.MergeResistance != cfg.MergeResistance ||
			p.cfg.TrustPenalty != cfg.TrustPenalty ||
			p.cfg.GroupQuorum != cfg.GroupQuorum {
			return nil, fmt.Errorf("bcluster: merge with mismatched configs %+v vs %+v", p.cfg, cfg)
		}
		total += len(p.inputs)
	}
	if total > math.MaxUint32 {
		return nil, fmt.Errorf("bcluster: %d merged inputs overflow the packed pair keys", total)
	}

	inputs := make([]Input, 0, total)
	sets := make([]behavior.FeatureSet, 0, total)
	shard := make([]int, 0, total)
	offsets := make([]int, len(parts))
	seen := make(map[string]struct{}, total)
	uf := newUnionFind(total)
	stats := Stats{Samples: total}
	for pi, p := range parts {
		off := len(inputs)
		offsets[pi] = off
		for i, in := range p.inputs {
			if _, dup := seen[in.ID]; dup {
				return nil, fmt.Errorf("bcluster: merge saw sample ID %q on more than one part", in.ID)
			}
			seen[in.ID] = struct{}{}
			inputs = append(inputs, in)
			sets = append(sets, p.sets[i])
			shard = append(shard, pi)
			if r := p.root(i); r != i {
				uf.union(off+i, off+r)
			}
		}
		stats.CandidatePairs += p.stats.CandidatePairs
		stats.Links += p.stats.Links
	}

	// Cross-shard probe. Buckets are rebuilt per band over the cached
	// signatures; the grouper orders buckets by first appearance and
	// members in (shard, arrival) order, so the probe sequence — and the
	// union-find layout it produces — is a pure function of the parts.
	rows := cfg.NumHashes / cfg.Bands
	buckets := newGrouper(total)
	failed := make(map[uint64]struct{})
	for band := 0; band < cfg.Bands; band++ {
		buckets.reset()
		for pi, p := range parts {
			off := offsets[pi]
			for i := 0; i < p.integrated; i++ {
				// Quarantined samples are outside link formation on
				// their own shard; keep them out of cross-shard links
				// too.
				if p.excluded(i) {
					continue
				}
				buckets.add(bandKey(p.sigs[i][band*rows:(band+1)*rows], uint64(band)), off+i)
			}
		}
		for _, members := range buckets.groups[:buckets.used] {
			if len(members) < 2 {
				continue
			}
			// A single-shard bucket proposes nothing: the owning shard
			// already linked or rejected each of its pairs.
			s0 := shard[members[0]]
			multi := false
			for _, m := range members[1:] {
				if shard[m] != s0 {
					multi = true
					break
				}
			}
			if !multi {
				continue
			}
			for a := 0; a < len(members); a++ {
				for b := a + 1; b < len(members); b++ {
					i, j := members[a], members[b]
					if shard[i] == shard[j] || uf.find(i) == uf.find(j) {
						continue
					}
					// The effective threshold reduces to cfg.Threshold
					// when the trust penalty is off.
					t := cfg.effThreshold(inputs[i].Distrust, inputs[j].Distrust)
					if sizesCannotLink(len(sets[i]), len(sets[j]), t) {
						continue
					}
					pair := uint64(i)<<32 | uint64(j)
					if _, miss := failed[pair]; miss {
						continue
					}
					stats.CandidatePairs++
					if sets[i].Jaccard(sets[j]) >= t {
						stats.Links++
						uf.union(i, j)
					} else {
						failed[pair] = struct{}{}
					}
				}
			}
		}
	}
	return assemble(inputs, uf, stats), nil
}
