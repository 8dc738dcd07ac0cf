package bcluster

import (
	"fmt"
	"math"

	"repro/internal/behavior"
)

// Incremental is the streaming counterpart of Run: samples are added one
// at a time, parked in a pending pool, and integrated into the LSH index
// and the union-find at the next verification epoch (Verify).
//
// The final partition is identical to the batch Run over the same
// samples, regardless of arrival order or epoch boundaries: a pair is a
// candidate exactly when the two signatures collide in at least one LSH
// band — a property of the signatures alone — and the single-linkage
// closure over the candidate pairs that pass the Jaccard threshold does
// not depend on the order the links are discovered in. Stats, by
// contrast, are path-dependent (the component pruning that avoids
// re-verifying already-linked pairs fires at different points), so only
// the membership partition is comparable across the two implementations.
//
// An Incremental is not safe for concurrent use; the streaming service
// serializes mutation on its ingest worker and snapshots under a lock.
type Incremental struct {
	cfg  Config
	rows int

	byID   map[string]int
	inputs []Input
	sets   []behavior.FeatureSet
	sigs   [][]uint64

	uf      *unionFind
	buckets []map[uint64]*bucket // per band: band key -> integrated members
	// failedIn is the failed-pair memo of one probe: failedIn[i] == j+1
	// means pair (i, j) missed the threshold while sample j was being
	// integrated. Probes run in strictly increasing j and no later probe
	// forms pair (i, j) again, so older stamps are dead and the memo
	// stays one word per sample, however many pairs fail.
	failedIn []uint32
	stats    Stats

	// integrated is the watermark: inputs[:integrated] are in the LSH
	// index and the union-find; inputs[integrated:] are parked.
	integrated int
	epochs     int
	merges     int

	// def holds the poisoning-defense state; nil unless a defense knob
	// is nonzero (see defense.go).
	def *defenseState
}

// NewIncremental returns an empty incremental clusterer.
func NewIncremental(cfg Config) (*Incremental, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	buckets := make([]map[uint64]*bucket, cfg.Bands)
	for b := range buckets {
		buckets[b] = make(map[uint64]*bucket)
	}
	inc := &Incremental{
		cfg:     cfg,
		rows:    cfg.NumHashes / cfg.Bands,
		byID:    make(map[string]int),
		buckets: buckets,
		uf:      newUnionFind(0),
	}
	if cfg.defenseEnabled() {
		inc.def = &defenseState{
			groupCount: make(map[string]int),
			holds:      make(map[int][2]int),
		}
	}
	return inc, nil
}

// Add parks one sample for the next verification epoch. The MinHash
// signature is computed eagerly (it depends only on the profile), so
// Verify is a pure probe-and-link pass.
func (inc *Incremental) Add(in Input) error {
	if in.ID == "" {
		return fmt.Errorf("bcluster: input with empty ID")
	}
	if _, dup := inc.byID[in.ID]; dup {
		return fmt.Errorf("bcluster: duplicate input ID %q", in.ID)
	}
	if in.Profile == nil {
		return fmt.Errorf("bcluster: input %q has nil profile", in.ID)
	}
	if len(inc.inputs) >= math.MaxUint32 {
		return fmt.Errorf("bcluster: %d inputs overflow the packed pair keys", len(inc.inputs))
	}
	set := in.Profile.FeatureSet()
	inc.byID[in.ID] = len(inc.inputs)
	inc.inputs = append(inc.inputs, in)
	inc.sets = append(inc.sets, set)
	inc.sigs = append(inc.sigs, signature(set, inc.cfg))
	inc.stats.Samples++
	return nil
}

// Amend replaces the profile of a still-parked sample — the streaming
// service uses it when a late event moves a sample's first-seen instant
// backwards and the re-executed profile differs. Amending an already
// integrated sample is an error: its links are part of the partition.
func (inc *Incremental) Amend(id string, p *behavior.Profile) error {
	idx, ok := inc.byID[id]
	if !ok {
		return fmt.Errorf("bcluster: amend of unknown sample %q", id)
	}
	if idx < inc.integrated {
		return fmt.Errorf("bcluster: sample %q already verified; its profile is frozen", id)
	}
	if p == nil {
		return fmt.Errorf("bcluster: amend of %q with nil profile", id)
	}
	set := p.FeatureSet()
	inc.inputs[idx].Profile = p
	inc.sets[idx] = set
	inc.sigs[idx] = signature(set, inc.cfg)
	return nil
}

// Pending reports the number of parked samples awaiting Verify.
func (inc *Incremental) Pending() int { return len(inc.inputs) - inc.integrated }

// Samples reports the total number of added samples.
func (inc *Incremental) Samples() int { return len(inc.inputs) }

// Epochs reports the number of completed verification epochs.
func (inc *Incremental) Epochs() int { return inc.epochs }

// Components reports the number of clusters the current partition has,
// counting each parked sample as its own singleton component.
func (inc *Incremental) Components() int { return len(inc.inputs) - inc.merges }

// Has reports whether a sample ID has been added.
func (inc *Incremental) Has(id string) bool {
	_, ok := inc.byID[id]
	return ok
}

// Verify runs one verification epoch: every parked sample is probed
// against the LSH index in arrival order, candidate pairs in different
// components are verified by exact Jaccard, passing pairs are linked, and
// the sample joins the index. A no-op when nothing is parked.
func (inc *Incremental) Verify() {
	if inc.Pending() == 0 {
		return
	}
	inc.uf.grow(len(inc.inputs))
	if inc.def != nil {
		inc.growDefense()
		for j := inc.integrated; j < len(inc.inputs); j++ {
			inc.integrateDefended(j)
		}
		inc.integrated = len(inc.inputs)
		if !inc.def.restoring {
			inc.releaseCorroborated()
		}
		inc.epochs++
		return
	}
	inc.failedIn = append(inc.failedIn, make([]uint32, len(inc.inputs)-len(inc.failedIn))...)
	for j := inc.integrated; j < len(inc.inputs); j++ {
		inc.integrate(j)
	}
	inc.integrated = len(inc.inputs)
	inc.epochs++
}

// bucket is one LSH band bucket of integrated sample indices. uniform is
// a monotone watermark: members[:uniform] are known to be pairwise in the
// same union-find component. Unions never split components, so the
// watermark only ever advances.
type bucket struct {
	members []int
	uniform int
}

// integrate probes sample j against every band bucket and links it into
// the partition.
//
// The probe is what used to make Verify superlinear: a popular bucket is
// history-sized, and every new collision rescanned all of it even though
// almost every member was already in j's component (the scan skipped each
// one individually after two find calls). The uniform watermark turns
// that whole rescan into O(1): when the bucket is fully uniform and j
// already shares its component, every pair (i, j) would take the
// same-root skip — no candidate counted, no Jaccard run, no memo written,
// no link made — so skipping the scan leaves partition and stats exactly
// as the full scan would, byte for byte.
func (inc *Incremental) integrate(j int) {
	sig := inc.sigs[j]
	stamp := uint32(j) + 1
	for band := 0; band < inc.cfg.Bands; band++ {
		key := bandKey(sig[band*inc.rows:(band+1)*inc.rows], uint64(band))
		b := inc.buckets[band][key]
		if b == nil {
			b = &bucket{}
			inc.buckets[band][key] = b
		}
		if len(b.members) > 0 {
			r0 := inc.uf.find(b.members[0])
			for b.uniform < len(b.members) && inc.uf.find(b.members[b.uniform]) == r0 {
				b.uniform++
			}
			if b.uniform == len(b.members) && inc.uf.find(j) == r0 {
				b.members = append(b.members, j)
				b.uniform++
				continue
			}
		}
		// The scan's remaining quadratic tail is j's FIRST collision with
		// its component-to-be: j is not yet linked, so the fast path above
		// misses and the scan walks the whole history-sized bucket even
		// though every member past the first is a same-root skip once the
		// first Jaccard links j in. Same cure as above: members[:uniform]
		// are pairwise same-root, so the moment one of them shares j's
		// root the rest of the prefix would all take the same-root skip —
		// jump the cursor to the watermark instead of paying two finds per
		// member. Only same-root pairs are skipped, so partition and stats
		// stay byte-identical to the full scan.
		for idx := 0; idx < len(b.members); idx++ {
			i := b.members[idx]
			if inc.uf.find(i) == inc.uf.find(j) {
				if idx < b.uniform {
					idx = b.uniform - 1
				}
				continue
			}
			if sizesCannotLink(len(inc.sets[i]), len(inc.sets[j]), inc.cfg.Threshold) || inc.failedIn[i] == stamp {
				continue
			}
			inc.stats.CandidatePairs++
			if inc.sets[i].Jaccard(inc.sets[j]) >= inc.cfg.Threshold {
				inc.stats.Links++
				inc.uf.union(i, j)
				inc.merges++
			} else {
				inc.failedIn[i] = stamp
			}
		}
		b.members = append(b.members, j)
	}
}

// Result assembles the current partition into sorted clusters, parked
// samples included (they are singletons unless a previous epoch linked
// them). The snapshot never mutates the union-find, so it is safe to call
// under a read lock while no Verify/Add is running.
func (inc *Incremental) Result() *Result {
	roots := make([]int, len(inc.inputs))
	for i := range roots {
		roots[i] = inc.root(i)
	}
	return assembleRoots(inc.inputs, roots, inc.stats)
}

// root resolves a component representative without path mutation;
// samples beyond the union-find (parked since the last Verify) are their
// own roots.
func (inc *Incremental) root(x int) int {
	if x >= len(inc.uf.parent) {
		return x
	}
	for inc.uf.parent[x] != x {
		x = inc.uf.parent[x]
	}
	return x
}

// Stats returns the cumulative probe statistics. CandidatePairs and
// Links are path-dependent (see the type comment); Samples matches Run.
func (inc *Incremental) Stats() Stats { return inc.stats }
