package bcluster

import (
	"fmt"
	"math"

	"repro/internal/behavior"
)

// Incremental is the streaming counterpart of Run: samples are added one
// at a time, parked in a pending pool, and integrated into the prefix
// index and the union-find at the next verification epoch (Verify).
//
// The final partition is identical to the batch Run over the same
// samples, regardless of arrival order or epoch boundaries: every pair at
// or above the threshold shares a prefix token, so the probe proposes
// every link, and the single-linkage closure of the links does not
// depend on the order they are discovered in. Stats, by contrast, are
// path-dependent (the component pruning that avoids re-verifying
// already-linked pairs fires at different points), so only the
// membership partition is comparable across arrival orders; in one
// arrival order they are the same whatever the epoch boundaries.
//
// An Incremental is not safe for concurrent use; the streaming service
// serializes mutation on its ingest worker and snapshots under a lock.
type Incremental struct {
	cfg Config

	byID   map[string]int
	inputs []member
	// sets[i] is inputs[i].Set.Hashes(), kept beside it for the probe.
	sets []behavior.FeatureSet

	uf *unionFind
	// index posts each integrated sample under its prefix tokens (see
	// prefix): token -> the samples posted under it, in posting order.
	index map[uint64]*bucket
	// posted lists the samples in the index, in posting order. A copy of
	// an earlier set is linked to its first copy instead of being posted,
	// and a quarantined sample is not posted.
	posted []int
	// firstCopy maps each distinct set the undefended probe has posted
	// to its first copy. Sets are interned, so one pointer is one set.
	firstCopy map[*behavior.Set]int
	// failedIn is the failed-pair stamp of one probe: failedIn[i] == j+1
	// means pair (i, j) missed the threshold while sample j was being
	// integrated. A pair can share several prefix tokens; the stamp keeps
	// it from being verified twice. Probes run in strictly increasing j
	// and no later probe forms pair (i, j) again, so older stamps are dead
	// and the stamp stays one word per sample, however many pairs fail.
	failedIn []uint32
	stats    Stats

	// integrated is the watermark: inputs[:integrated] are in the index
	// and the union-find; inputs[integrated:] are parked.
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
	inc := &Incremental{
		cfg:       cfg,
		byID:      make(map[string]int),
		index:     make(map[uint64]*bucket),
		firstCopy: make(map[*behavior.Set]int),
		uf:        newUnionFind(0),
	}
	if cfg.Defended() {
		inc.def = &defenseState{
			groupCount: make(map[string]int),
			holds:      make(map[int][2]int),
		}
	}
	return inc, nil
}

// member is what the clusterer keeps of one Input: the profile is
// interned into its Set and dropped.
type member struct {
	ID       string
	Set      *behavior.Set
	Group    string
	Distrust float64
}

// Add parks one sample for the next verification epoch. The profile is
// interned eagerly (the set depends only on the profile), so Verify is a
// pure probe-and-link pass; a profile the stream already interned costs
// one pointer load.
func (inc *Incremental) Add(in Input) error {
	if in.Profile == nil {
		return fmt.Errorf("bcluster: input %q has nil profile", in.ID)
	}
	set, err := behavior.Intern(in.Profile)
	if err != nil {
		return fmt.Errorf("bcluster: input %q: %w", in.ID, err)
	}
	return inc.add(member{ID: in.ID, Set: set, Group: in.Group, Distrust: in.Distrust})
}

func (inc *Incremental) add(m member) error {
	if m.ID == "" {
		return fmt.Errorf("bcluster: input with empty ID")
	}
	if _, dup := inc.byID[m.ID]; dup {
		return fmt.Errorf("bcluster: duplicate input ID %q", m.ID)
	}
	if len(inc.inputs) >= math.MaxUint32 {
		return fmt.Errorf("bcluster: %d inputs overflow the probe stamps", len(inc.inputs))
	}
	inc.byID[m.ID] = len(inc.inputs)
	inc.inputs = append(inc.inputs, m)
	inc.sets = append(inc.sets, m.Set.Hashes())
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
	set, err := behavior.Intern(p)
	if err != nil {
		return fmt.Errorf("bcluster: amend of %q: %w", id, err)
	}
	inc.inputs[idx].Set = set
	inc.sets[idx] = set.Hashes()
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
// against the prefix index in arrival order, candidate pairs in different
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

// bucket is the posting list of one prefix token. uniform is a monotone
// watermark: members[:uniform] are known to be pairwise in the same
// union-find component. Unions never split components, so the watermark
// only ever advances.
type bucket struct {
	members []int
	uniform int
}

// integrate probes sample j against the postings of its prefix tokens
// and links it into the partition.
//
// A copy of an already posted set links to the first copy and skips the
// probe: the copy is at Jaccard 1 with it, and at the undefended path's
// one threshold every other sample links to both or to neither.
//
// A popular posting list is history-sized, and almost every member is
// already in j's component. The uniform watermark turns a rescan of such
// a list into O(1): when the list is fully uniform and j already shares
// its component, every pair (i, j) would take the same-root skip — no
// candidate counted, no Jaccard run, no stamp written, no link made — so
// skipping the scan leaves partition and stats exactly as the full scan
// would, byte for byte.
func (inc *Incremental) integrate(j int) {
	if c, ok := inc.firstCopy[inc.inputs[j].Set]; ok {
		inc.stats.CandidatePairs++
		inc.stats.Links++
		inc.uf.union(c, j)
		inc.merges++
		return
	}
	inc.firstCopy[inc.inputs[j].Set] = j
	for _, tok := range prefix(inc.sets[j], inc.cfg.Threshold) {
		b := inc.index[tok]
		if b == nil {
			b = &bucket{}
			inc.index[tok] = b
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
		inc.scan(b, 0, j)
		b.members = append(b.members, j)
	}
	inc.posted = append(inc.posted, j)
}

// scan verifies sample j against the members of posting list b, which
// are numbered from off in j's numbering (Merge probes other parts' lists;
// integrate passes 0), and links j to every member that clears the pair's
// threshold.
//
// j's first link into a component otherwise walks the whole list even
// though every member past the first is a same-root skip once that link
// is made. members[:uniform] are pairwise same-root, so the moment one of
// them shares j's root the rest of the prefix would all take the
// same-root skip — the cursor jumps to the watermark instead of paying
// two finds per member. Only same-root pairs are skipped, so partition
// and stats stay byte-identical to the full scan.
func (inc *Incremental) scan(b *bucket, off, j int) {
	stamp := uint32(j) + 1
	t := inc.cfg.Threshold
	for idx := 0; idx < len(b.members); idx++ {
		i := off + b.members[idx]
		if inc.uf.find(i) == inc.uf.find(j) {
			if idx < b.uniform {
				idx = b.uniform - 1
			}
			continue
		}
		if inc.cfg.TrustPenalty > 0 {
			t = inc.cfg.effThreshold(inc.inputs[i].Distrust, inc.inputs[j].Distrust)
		}
		if sizesCannotLink(len(inc.sets[i]), len(inc.sets[j]), t) || inc.failedIn[i] == stamp {
			continue
		}
		inc.stats.CandidatePairs++
		if inc.sets[i].Jaccard(inc.sets[j]) >= t {
			inc.stats.Links++
			inc.uf.union(i, j)
			inc.merges++
		} else {
			inc.failedIn[i] = stamp
		}
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
