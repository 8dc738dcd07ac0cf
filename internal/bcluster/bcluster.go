// Package bcluster implements scalable behavior-based malware clustering
// after Bayer et al. (NDSS'09), the system behind the Anubis B-clusters
// the paper correlates against.
//
// Samples are represented by behavioral profiles (feature sets). Instead
// of computing all O(n²) pairwise distances, profiles are summarized by
// MinHash signatures; locality-sensitive hashing over signature bands
// proposes candidate pairs, whose exact Jaccard similarity is then
// verified; single-linkage clustering (transitive closure over verified
// links, i.e. union-find) produces the final clusters.
//
// The package also exposes an exact O(n²) baseline used by the ablation
// benchmarks to reproduce the scalability claim.
package bcluster

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/behavior"
)

// Config are the clustering parameters.
type Config struct {
	// NumHashes is the MinHash signature length; it must equal Bands*Rows.
	NumHashes int
	// Bands is the number of LSH bands.
	Bands int
	// Threshold is the minimum exact Jaccard similarity for two samples to
	// be linked.
	Threshold float64
	// Seed decorrelates the hash family.
	Seed uint64
	// Workers bounds the goroutines of both parallel stages — MinHash
	// signature construction and exact-Jaccard candidate verification; 0
	// defers to core.Scenario.Parallelism (and ultimately GOMAXPROCS).
	// Clusters and Stats are byte-identical at every worker count.
	Workers int

	// Online poisoning defenses (see defense.go). All three default to
	// zero = off; with every knob at zero the incremental clusterer runs
	// the original, byte-identical code path. They apply to Incremental
	// only — the batch Run is the undefended reference implementation.

	// MergeResistance quarantines a sample whose links would join two
	// established components of at least this size (0 = off).
	MergeResistance int
	// TrustPenalty scales how much a pair's worst Distrust raises its
	// link threshold (0 = off).
	TrustPenalty float64
	// GroupQuorum parks a sample whose links contradict its static group
	// once the group has at least this many integrated members (0 = off).
	GroupQuorum int
}

// DefaultConfig mirrors the regime of the original system: a 0.7
// similarity threshold with a signature of 96 hashes in 32 bands of 3.
func DefaultConfig() Config {
	return Config{NumHashes: 96, Bands: 32, Threshold: 0.7, Seed: 0x5eed}
}

// Validate checks parameter consistency.
func (c Config) Validate() error {
	if c.NumHashes <= 0 || c.Bands <= 0 {
		return fmt.Errorf("bcluster: NumHashes (%d) and Bands (%d) must be positive", c.NumHashes, c.Bands)
	}
	if c.NumHashes%c.Bands != 0 {
		return fmt.Errorf("bcluster: NumHashes (%d) must be a multiple of Bands (%d)", c.NumHashes, c.Bands)
	}
	if c.Threshold <= 0 || c.Threshold > 1 {
		return fmt.Errorf("bcluster: Threshold %v outside (0,1]", c.Threshold)
	}
	if c.MergeResistance < 0 {
		return fmt.Errorf("bcluster: MergeResistance must be non-negative, got %d", c.MergeResistance)
	}
	if c.TrustPenalty < 0 || c.TrustPenalty > 1 {
		return fmt.Errorf("bcluster: TrustPenalty %v outside [0,1]", c.TrustPenalty)
	}
	if c.GroupQuorum < 0 {
		return fmt.Errorf("bcluster: GroupQuorum must be non-negative, got %d", c.GroupQuorum)
	}
	return nil
}

// Input is one sample to cluster.
type Input struct {
	// ID identifies the sample (e.g. its MD5).
	ID string
	// Profile is the sample's behavioral profile.
	Profile *behavior.Profile
	// Group is the sample's static-perspective placement (the streaming
	// service passes its μ instance). Only consulted by the anomaly-gate
	// defense; empty opts out.
	Group string
	// Distrust is the provenance weight in [0,1] of the client that
	// submitted the sample. Only consulted by the trust-penalty defense.
	Distrust float64
}

// Cluster is one behavioral cluster.
type Cluster struct {
	// ID is a dense cluster index, assigned largest-cluster-first.
	ID int
	// Members lists the sample IDs, sorted.
	Members []string
}

// Size returns the number of members.
func (c Cluster) Size() int { return len(c.Members) }

// Result is the outcome of a clustering run.
type Result struct {
	Clusters []Cluster
	// Stats describe the work performed, for the scalability comparison.
	Stats Stats
	byID  map[string]int
}

// Stats counts the comparisons a run performed.
type Stats struct {
	// Samples is the input size.
	Samples int
	// CandidatePairs is the number of pairs whose exact Jaccard was
	// computed: the LSH-proposed pairs that component pruning, the size
	// bound (sizesCannotLink) and the failed-pair memo let through. It
	// equals all pairs for the exact baseline.
	CandidatePairs int
	// Links is the number of pairs whose exact similarity passed the
	// threshold.
	Links int
}

// ClusterOf returns the cluster index of a sample ID, or -1.
func (r *Result) ClusterOf(id string) int {
	if i, ok := r.byID[id]; ok {
		return i
	}
	return -1
}

// Singletons returns the clusters with exactly one member.
func (r *Result) Singletons() []Cluster {
	var out []Cluster
	for _, c := range r.Clusters {
		if c.Size() == 1 {
			out = append(out, c)
		}
	}
	return out
}

// Run clusters the inputs with MinHash+LSH candidate generation.
//
// The hot path is staged. (1) A worker pool interns every profile into a
// behavior.FeatureSet and computes its MinHash signature from the
// precomputed feature hashes. (2) Per LSH band, a bucket scan proposes
// candidate pairs: buckets whose members already share one union-find
// component are skipped after a single linear root scan, pairs whose
// sizes alone rule out a link are rejected in O(1), and pairs that
// failed verification in an earlier band are deduplicated via packed
// uint64(i)<<32|j keys. (3) The remaining multi-component buckets are
// verified by a bounded worker pool computing merge-based exact Jaccard;
// the verified links are applied to the union-find in sorted order
// behind a per-band barrier. Every stage partitions work independently
// of scheduling, so Clusters and Stats are byte-identical at any
// Config.Workers value.
func Run(inputs []Input, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(inputs) > math.MaxUint32 {
		return nil, fmt.Errorf("bcluster: %d inputs overflow the packed pair keys", len(inputs))
	}
	ids := make(map[string]bool, len(inputs))
	for _, in := range inputs {
		if in.ID == "" {
			return nil, fmt.Errorf("bcluster: input with empty ID")
		}
		if ids[in.ID] {
			return nil, fmt.Errorf("bcluster: duplicate input ID %q", in.ID)
		}
		if in.Profile == nil {
			return nil, fmt.Errorf("bcluster: input %q has nil profile", in.ID)
		}
		ids[in.ID] = true
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sets := make([]behavior.FeatureSet, len(inputs))
	parallelChunks(len(inputs), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sets[i] = inputs[i].Profile.FeatureSet()
		}
	})

	// Identical feature sets produce identical signatures, and sandbox
	// runs of the same variant under the same environment outcomes are
	// exact duplicates, so signatures are computed once per distinct set
	// and shared. share[i] is the index of the first input with i's set.
	share := make([]int, len(inputs))
	reps := make([]int, 0, len(inputs))
	canon := make(map[uint64][]int, len(inputs))
	for i := range sets {
		h := contentHash(sets[i])
		rep := -1
		for _, c := range canon[h] {
			if featureSetsEqual(sets[c], sets[i]) {
				rep = c
				break
			}
		}
		if rep == -1 {
			canon[h] = append(canon[h], i)
			reps = append(reps, i)
			rep = i
		}
		share[i] = rep
	}
	sigs := make([][]uint64, len(inputs))
	parallelChunks(len(reps), workers, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			sigs[reps[k]] = signature(sets[reps[k]], cfg)
		}
	})
	for i := range sigs {
		if sigs[i] == nil {
			sigs[i] = sigs[share[i]]
		}
	}

	rows := cfg.NumHashes / cfg.Bands
	uf := newUnionFind(len(inputs))
	roots := make([]int, len(inputs))
	// failed holds the packed keys of pairs that already missed the
	// threshold; verified pairs need no memo because their endpoints
	// share a component from then on.
	failed := make(map[uint64]struct{})
	stats := Stats{Samples: len(inputs)}
	buckets := newGrouper(len(inputs))
	var jobs [][]int
	var links []uint64

	for band := 0; band < cfg.Bands; band++ {
		for i := range roots {
			roots[i] = uf.find(i)
		}
		buckets.reset()
		for i, sig := range sigs {
			buckets.add(bandKey(sig[band*rows:(band+1)*rows], uint64(band)), i)
		}
		// A bucket can only propose pairs when it spans more than one
		// existing component; one linear root scan replaces the O(m²)
		// pairwise find scan the serial implementation performed on
		// every band revisit of an already-merged bucket.
		jobs = jobs[:0]
		for _, members := range buckets.groups[:buckets.used] {
			if len(members) < 2 {
				continue
			}
			r0 := roots[members[0]]
			for _, m := range members[1:] {
				if roots[m] != r0 {
					jobs = append(jobs, members)
					break
				}
			}
		}
		if len(jobs) == 0 {
			continue
		}
		// Buckets of one band are member-disjoint, so they verify as
		// self-contained jobs: each sees only the component structure
		// from previous bands (roots) plus its own in-bucket merges.
		verdicts := make([]bucketVerdict, len(jobs))
		parallelChunks(len(jobs), workers, func(lo, hi int) {
			scratch := newBucketScratch()
			for k := lo; k < hi; k++ {
				verdicts[k] = verifyBucket(jobs[k], roots, sets, failed, cfg.Threshold, scratch)
			}
		})
		links = links[:0]
		for k := range verdicts {
			stats.CandidatePairs += verdicts[k].pairs
			stats.Links += len(verdicts[k].links)
			links = append(links, verdicts[k].links...)
			for _, key := range verdicts[k].failed {
				failed[key] = struct{}{}
			}
		}
		// The components are union-order-independent, but a fixed order
		// keeps the union-find layout — and with it the next band's
		// roots snapshot — reproducible byte for byte.
		sort.Slice(links, func(a, b int) bool { return links[a] < links[b] })
		for _, key := range links {
			uf.union(int(key>>32), int(key&math.MaxUint32))
		}
	}
	return assemble(inputs, uf, stats), nil
}

// bucketVerdict is one bucket's verification outcome: how many candidate
// pairs it proposed, and the packed keys of the pairs that passed
// (links) or missed (failed) the similarity threshold.
type bucketVerdict struct {
	pairs  int
	links  []uint64
	failed []uint64
}

// bucketScratch is per-worker state reused across bucket jobs: a tiny
// union-find over the distinct components represented in one bucket.
type bucketScratch struct {
	index  map[int]int32
	parent []int32
	ids    []int32
}

func newBucketScratch() *bucketScratch {
	return &bucketScratch{index: make(map[int]int32)}
}

// verifyBucket replays the serial implementation's scan over one bucket:
// pairs are visited in member order, pairs whose endpoints already share
// a component (from previous bands, or merged earlier in this bucket)
// are skipped, pairs the size bound rules out and previously failed
// pairs are skipped, and every other pair is verified by exact Jaccard
// over the interned feature sets. The verdict depends only on the
// band-start roots and the failed set, never on scheduling.
func verifyBucket(members []int, roots []int, sets []behavior.FeatureSet, failed map[uint64]struct{}, threshold float64, s *bucketScratch) bucketVerdict {
	clear(s.index)
	s.parent = s.parent[:0]
	s.ids = s.ids[:0]
	for _, m := range members {
		id, ok := s.index[roots[m]]
		if !ok {
			id = int32(len(s.parent))
			s.index[roots[m]] = id
			s.parent = append(s.parent, id)
		}
		s.ids = append(s.ids, id)
	}
	parent := s.parent
	var v bucketVerdict
	for a := 0; a < len(members); a++ {
		for b := a + 1; b < len(members); b++ {
			la, lb := s.ids[a], s.ids[b]
			for parent[la] != la {
				parent[la] = parent[parent[la]]
				la = parent[la]
			}
			for parent[lb] != lb {
				parent[lb] = parent[parent[lb]]
				lb = parent[lb]
			}
			if la == lb {
				continue
			}
			i, j := members[a], members[b]
			if sizesCannotLink(len(sets[i]), len(sets[j]), threshold) {
				continue
			}
			key := uint64(i)<<32 | uint64(j)
			if _, seen := failed[key]; seen {
				continue
			}
			v.pairs++
			if sets[i].Jaccard(sets[j]) >= threshold {
				v.links = append(v.links, key)
				s.parent[lb] = la
			} else {
				v.failed = append(v.failed, key)
			}
		}
	}
	return v
}

// sizesCannotLink reports whether feature sets of sizes a and b are too
// unequal to reach Jaccard t: |A∩B| ≤ min and |A∪B| ≥ max, so J ≤
// min/max. It divides in float64 as FeatureSet.Jaccard does, and
// rounding is monotone, so it never rejects a pair that would link
// (DESIGN.md §6). Two empty sets have Jaccard 1 and are exempt.
func sizesCannotLink(a, b int, t float64) bool {
	lo, hi := min(a, b), max(a, b)
	return hi > 0 && float64(lo)/float64(hi) < t
}

// grouper buckets sample indices by band key, reusing its backing
// storage across bands so the steady-state scan allocates nothing.
// Groups are ordered by first appearance, i.e. by sample index.
type grouper struct {
	slot   map[uint64]int
	groups [][]int
	used   int
}

func newGrouper(n int) *grouper {
	return &grouper{slot: make(map[uint64]int, n)}
}

func (g *grouper) reset() {
	clear(g.slot)
	for i := 0; i < g.used; i++ {
		g.groups[i] = g.groups[i][:0]
	}
	g.used = 0
}

func (g *grouper) add(key uint64, i int) {
	s, ok := g.slot[key]
	if !ok {
		s = g.used
		g.slot[key] = s
		if s == len(g.groups) {
			g.groups = append(g.groups, nil)
		}
		g.used++
	}
	g.groups[s] = append(g.groups[s], i)
}

// parallelChunks splits [0,n) into one contiguous chunk per worker and
// runs fn on each; with a single worker it runs inline. The partition is
// a pure function of n and workers, never of scheduling, which is what
// lets callers write results into disjoint slice ranges and stay
// deterministic at any worker count.
func parallelChunks(n, workers int, fn func(lo, hi int)) {
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// RunExact clusters the inputs with the naive all-pairs comparison. It is
// the baseline for the LSH-vs-exact ablation; both must produce identical
// clusters whenever LSH recall is sufficient. Verification uses the same
// interned FeatureSet representation as Run, so the ablation isolates
// candidate generation rather than Jaccard implementation details.
func RunExact(inputs []Input, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sets := make([]behavior.FeatureSet, len(inputs))
	parallelChunks(len(inputs), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sets[i] = inputs[i].Profile.FeatureSet()
		}
	})
	uf := newUnionFind(len(inputs))
	stats := Stats{Samples: len(inputs)}
	for i := 0; i < len(inputs); i++ {
		for j := i + 1; j < len(inputs); j++ {
			stats.CandidatePairs++
			if sets[i].Jaccard(sets[j]) >= cfg.Threshold {
				stats.Links++
				uf.union(i, j)
			}
		}
	}
	return assemble(inputs, uf, stats), nil
}

// assemble converts union-find components into sorted clusters.
func assemble(inputs []Input, uf *unionFind, stats Stats) *Result {
	roots := make([]int, len(inputs))
	for i := range roots {
		roots[i] = uf.find(i)
	}
	return assembleRoots(inputs, roots, stats)
}

// assembleRoots converts a precomputed component-root vector into sorted
// clusters; Incremental.Result uses it with non-mutating root resolution
// so snapshots are safe under a read lock.
func assembleRoots(inputs []Input, roots []int, stats Stats) *Result {
	groups := make(map[int][]string)
	for i, in := range inputs {
		groups[roots[i]] = append(groups[roots[i]], in.ID)
	}
	clusters := make([]Cluster, 0, len(groups))
	for _, members := range groups {
		sort.Strings(members)
		clusters = append(clusters, Cluster{Members: members})
	}
	sort.Slice(clusters, func(a, b int) bool {
		if len(clusters[a].Members) != len(clusters[b].Members) {
			return len(clusters[a].Members) > len(clusters[b].Members)
		}
		return clusters[a].Members[0] < clusters[b].Members[0]
	})
	res := &Result{Clusters: clusters, Stats: stats, byID: make(map[string]int, len(inputs))}
	for i := range res.Clusters {
		res.Clusters[i].ID = i
		for _, m := range res.Clusters[i].Members {
			res.byID[m] = i
		}
	}
	return res
}

// signature computes the MinHash signature from a profile's interned
// feature hashes. Per feature, two base hashes are derived once and the
// i-th hash function is h1 + i·h2 (double hashing after
// Kirsch–Mitzenmacher): one add per slot instead of an independent
// finalizer per slot. Together with reading precomputed feature hashes
// instead of re-hashing strings, this is what makes signature
// construction — the former hot spot — cheap (see BENCH_bcluster.json).
func signature(fs behavior.FeatureSet, cfg Config) []uint64 {
	sig := make([]uint64, cfg.NumHashes)
	for i := range sig {
		sig[i] = math.MaxUint64
	}
	if len(sig) == 96 {
		// Fixed-size view of the default signature length: the array
		// pointer removes bounds checks from the innermost loop.
		s := (*[96]uint64)(sig)
		for _, fh := range fs {
			h := mix(fh ^ cfg.Seed)
			step := mix(fh+0x9e3779b97f4a7c15*(cfg.Seed|1)) | 1
			for i := range s {
				// Branchless min: the update rate decays harmonically
				// across features, so a branch here mispredicts often.
				s[i] = min(s[i], h)
				h += step
			}
		}
		return sig
	}
	for _, fh := range fs {
		h := mix(fh ^ cfg.Seed)
		step := mix(fh+0x9e3779b97f4a7c15*(cfg.Seed|1)) | 1
		for i := range sig {
			if h < sig[i] {
				sig[i] = h
			}
			h += step
		}
	}
	return sig
}

// contentHash folds a feature set into one 64-bit key for signature
// deduplication; featureSetsEqual resolves the (astronomically rare)
// fold collisions.
func contentHash(fs behavior.FeatureSet) uint64 {
	h := uint64(len(fs)) * 0x9e3779b97f4a7c15
	for _, v := range fs {
		h = mix(h ^ v)
	}
	return h
}

func featureSetsEqual(a, b behavior.FeatureSet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func bandKey(rows []uint64, band uint64) uint64 {
	h := band*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	for _, r := range rows {
		h = mix(h ^ r)
	}
	return h
}

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unionFind is a weighted quick-union with path halving.
type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

// grow extends the forest to n elements, each new element its own root.
func (uf *unionFind) grow(n int) {
	for i := len(uf.parent); i < n; i++ {
		uf.parent = append(uf.parent, i)
		uf.rank = append(uf.rank, 0)
	}
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
}
