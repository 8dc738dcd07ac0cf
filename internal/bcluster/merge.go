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
// probe over its own samples. What a shard cannot see is a pair
// straddling a shard boundary, and the shards' prefix indexes find those
// without rebuilding anything: such a pair shares a prefix token, and
// both samples are posted under it in their own shard's index. Merge
// therefore:
//
//  1. Seeds a global union-find with each shard's components.
//  2. Probes, shard by shard, every posted sample against the indexes of
//     the shards before it, verifying by exact Jaccard only the pairs not
//     already in one component. A duplicate that its shard linked to a
//     first copy instead of posting finds the same links through that
//     copy.
//  3. Assembles the closure with Run's canonical cluster order.
//
// Parked samples (added but not yet verified by their shard) stay
// outside the probe and surface as singletons, mirroring each shard's
// own Result; quarantined samples are not posted and stay out of
// cross-shard links too. Merged CandidatePairs and Links extend the
// per-shard sums by the cross-shard probe work; like the per-shard
// counters they are path-dependent (component pruning fires at
// different points than a batch Run), while Samples and the partition
// itself are exact.
//
// The Result is self-contained and the parts are only read. Callers must
// not run Add/Amend/Verify on any part concurrently with Merge.
func Merge(parts []*Incremental) (*Result, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("bcluster: merge of zero parts")
	}
	cfg := parts[0].cfg
	total := 0
	for _, p := range parts {
		if p.cfg != cfg {
			return nil, fmt.Errorf("bcluster: merge with mismatched configs %+v vs %+v", p.cfg, cfg)
		}
		total += len(p.inputs)
	}
	if total > math.MaxUint32 {
		return nil, fmt.Errorf("bcluster: %d merged inputs overflow the probe stamps", total)
	}

	// m is the merged clusterer's probe state: the union of the parts'
	// samples in (part, arrival) order, the global union-find and stamps.
	m := &Incremental{
		cfg:      cfg,
		inputs:   make([]Input, 0, total),
		sets:     make([]behavior.FeatureSet, 0, total),
		uf:       newUnionFind(total),
		failedIn: make([]uint32, total),
		stats:    Stats{Samples: total},
	}
	offsets := make([]int, len(parts))
	seen := make(map[string]struct{}, total)
	for pi, p := range parts {
		off := len(m.inputs)
		offsets[pi] = off
		for i, in := range p.inputs {
			if _, dup := seen[in.ID]; dup {
				return nil, fmt.Errorf("bcluster: merge saw sample ID %q on more than one part", in.ID)
			}
			seen[in.ID] = struct{}{}
			m.inputs = append(m.inputs, in)
			m.sets = append(m.sets, p.sets[i])
			if r := p.root(i); r != i {
				m.uf.union(off+i, off+r)
			}
		}
		m.stats.CandidatePairs += p.stats.CandidatePairs
		m.stats.Links += p.stats.Links
	}

	// Cross-shard probe, in (part, posting) order, so the probe sequence —
	// and the union-find layout it produces — is a pure function of the
	// parts.
	for pi := 1; pi < len(parts); pi++ {
		p := parts[pi]
		for _, j := range p.posted {
			for _, tok := range prefix(p.sets[j], cfg.Threshold) {
				for qi, q := range parts[:pi] {
					if b := q.index[tok]; b != nil {
						m.scan(b, offsets[qi], offsets[pi]+j)
					}
				}
			}
		}
	}
	return assemble(m.inputs, m.uf, m.stats), nil
}
