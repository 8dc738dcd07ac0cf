// Package bcluster implements behavior-based malware clustering after
// Bayer et al. (NDSS'09), the system behind the Anubis B-clusters the
// paper correlates against: two samples are linked when the Jaccard
// similarity of their behavioral profiles (feature sets) reaches a
// threshold, and clusters are the single-linkage closure of the links.
//
// Instead of computing all O(n²) pairwise similarities, every sample is
// posted in an inverted index under its prefix tokens: the smallest
// hashes of its sorted feature set, as many as a pair at the threshold
// needs to share one (a prefix-filter similarity join, Bayardo et al.,
// WWW'07). A new sample probes the postings of its own prefix tokens,
// every candidate pair is verified by exact Jaccard, and a union-find
// closes the verified links. Every pair at or above the threshold shares
// a prefix token, so the partition is exactly the one the all-pairs rule
// gives. Run, the streaming Incremental and the shard Merge share this
// one engine.
//
// RunExact, the naive all-pairs comparison, is the test oracle and the
// baseline of the scalability ablation.
package bcluster

import (
	"fmt"
	"sort"

	"repro/internal/behavior"
)

// Config are the clustering parameters.
type Config struct {
	// Threshold is the minimum exact Jaccard similarity for two samples to
	// be linked.
	Threshold float64

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
// similarity threshold.
func DefaultConfig() Config {
	return Config{Threshold: 0.7}
}

// Validate checks parameter consistency.
func (c Config) Validate() error {
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
	// computed — the pairs sharing a prefix token that the same-component
	// skip, the size bound (sizesCannotLink) and the per-probe stamp let
	// through — plus one for each duplicate linked to the first copy of
	// its set by content. It equals all pairs for the exact baseline.
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

// Run clusters the inputs in one verification epoch of an Incremental:
// the inputs are added in order and verified once, so a batch run, the
// streaming clusterer and a checkpoint restore walk the same probe
// sequence. The defense knobs are ignored: Run is the undefended
// reference.
func Run(inputs []Input, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.MergeResistance, cfg.TrustPenalty, cfg.GroupQuorum = 0, 0, 0
	inc, err := NewIncremental(cfg)
	if err != nil {
		return nil, err
	}
	for _, in := range inputs {
		if err := inc.Add(in); err != nil {
			return nil, err
		}
	}
	inc.Verify()
	return inc.Result(), nil
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

// prefix returns the tokens a feature set is posted and probed under at
// threshold t: its first n-o+1 hashes, where n is its size and o the least
// overlap with float64(o)/float64(n) >= t. A pair at Jaccard >= t shares
// at least that overlap — the union is at least n, and float64 division
// rounds monotonically — so, in any fixed order of the hashes, it shares
// its smallest common hash inside both prefixes (DESIGN.md §6). A raised
// threshold needs a larger overlap, hence a shorter prefix, so the
// postings at the base threshold cover every trust-raised one. Empty sets
// are at Jaccard 1 with each other and share one token; should a real
// hash equal it, the collision only adds candidates that verification
// rejects.
func prefix(fs behavior.FeatureSet, t float64) []uint64 {
	n := len(fs)
	if n == 0 {
		return emptyPrefix
	}
	o := int(t * float64(n))
	for o > 0 && float64(o-1)/float64(n) >= t {
		o--
	}
	for float64(o)/float64(n) < t {
		o++
	}
	return fs[:n-o+1]
}

var emptyPrefix = []uint64{0}

// RunExact clusters the inputs with the naive all-pairs comparison. It is
// the test oracle for Run, which must produce the identical partition,
// and the baseline of the scalability ablation. Verification uses the
// same interned hash sets as Run, so the ablation
// isolates candidate generation rather than Jaccard implementation
// details.
func RunExact(inputs []Input, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	members := make([]member, len(inputs))
	sets := make([]behavior.FeatureSet, len(inputs))
	for i, in := range inputs {
		if in.Profile == nil {
			return nil, fmt.Errorf("bcluster: input %q has nil profile", in.ID)
		}
		set, err := behavior.Intern(in.Profile)
		if err != nil {
			return nil, fmt.Errorf("bcluster: input %q: %w", in.ID, err)
		}
		members[i], sets[i] = member{ID: in.ID, Set: set}, set.Hashes()
	}
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
	return assemble(members, uf, stats), nil
}

// assemble converts union-find components into sorted clusters.
func assemble(inputs []member, uf *unionFind, stats Stats) *Result {
	roots := make([]int, len(inputs))
	for i := range roots {
		roots[i] = uf.find(i)
	}
	return assembleRoots(inputs, roots, stats)
}

// assembleRoots converts a precomputed component-root vector into sorted
// clusters; Incremental.Result uses it with non-mutating root resolution
// so snapshots are safe under a read lock.
func assembleRoots(inputs []member, roots []int, stats Stats) *Result {
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
