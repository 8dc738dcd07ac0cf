// Package julisch implements attribute-oriented induction clustering
// after Julisch (ACM TISSEC 2003), the technique the paper's EPM
// clustering explicitly simplifies.
//
// Julisch's algorithm groups alarms (here: attack instances) by
// repeatedly generalizing attribute values along per-attribute
// generalization hierarchies — taxonomy trees whose root is the "any"
// value — until some generalized tuple covers at least minSize instances.
// Unlike EPM's single-shot invariant test, the hierarchy lets values
// generalize gradually (exact port → port class → any), trading cluster
// specificity for coverage.
//
// The reproduction uses it as an ablation baseline: EPM reaches nearly
// the same partition with a fraction of the machinery, which is the
// paper's justification for the simplification.
package julisch

import (
	"fmt"
	"sort"
	"strings"
)

// Any is the root value of every hierarchy.
const Any = "*"

// Hierarchy maps a value to its parent value; values absent from the map
// generalize directly to Any. A nil Hierarchy generalizes everything to
// Any in one step (the degenerate taxonomy, equivalent to EPM's wildcard).
type Hierarchy map[string]string

// Parent returns the next generalization of v.
func (h Hierarchy) Parent(v string) string {
	if v == Any {
		return Any
	}
	if h != nil {
		if p, ok := h[v]; ok {
			return p
		}
	}
	return Any
}

const maxDepth = 16

// Validate rejects hierarchies with cycles or excessive depth.
func (h Hierarchy) Validate() error {
	for v := range h {
		if v == Any {
			return fmt.Errorf("julisch: hierarchy maps the Any value")
		}
		cur := v
		for i := 0; ; i++ {
			if cur == Any {
				break
			}
			if i >= maxDepth {
				return fmt.Errorf("julisch: hierarchy depth from %q exceeds %d (cycle?)", v, maxDepth)
			}
			cur = h.Parent(cur)
		}
	}
	return nil
}

// Attribute describes one tuple column.
type Attribute struct {
	Name      string
	Hierarchy Hierarchy
}

// Instance is one attack instance.
type Instance struct {
	ID     string
	Values []string
}

// Cluster is one generalized group.
type Cluster struct {
	// ID is a dense index, largest cluster first.
	ID int
	// Tuple is the generalized tuple covering the members.
	Tuple []string
	// InstanceIDs lists the covered instances, sorted.
	InstanceIDs []string
}

// Size returns the number of members.
func (c Cluster) Size() int { return len(c.InstanceIDs) }

// Result is the clustering outcome.
type Result struct {
	Attributes []Attribute
	MinSize    int
	Clusters   []Cluster
	// Generalizations counts attribute-generalization rounds performed.
	Generalizations int
	byInstance      map[string]int
}

// ClusterOf returns the cluster index of an instance, or -1.
func (r *Result) ClusterOf(id string) int {
	if i, ok := r.byInstance[id]; ok {
		return i
	}
	return -1
}

// Run executes attribute-oriented induction: while some instance's tuple
// covers fewer than minSize instances, generalize the attribute whose
// generalization reduces the number of distinct tuples the most (a greedy
// heuristic in the spirit of Julisch's F_min selection), then extract the
// clusters.
func Run(attrs []Attribute, instances []Instance, minSize int) (*Result, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("julisch: no attributes")
	}
	if minSize < 1 {
		return nil, fmt.Errorf("julisch: minSize must be >= 1, got %d", minSize)
	}
	for _, a := range attrs {
		if err := a.Hierarchy.Validate(); err != nil {
			return nil, fmt.Errorf("julisch: attribute %q: %w", a.Name, err)
		}
	}
	seen := make(map[string]bool, len(instances))
	for _, in := range instances {
		if in.ID == "" {
			return nil, fmt.Errorf("julisch: instance with empty ID")
		}
		if seen[in.ID] {
			return nil, fmt.Errorf("julisch: duplicate instance ID %q", in.ID)
		}
		seen[in.ID] = true
		if len(in.Values) != len(attrs) {
			return nil, fmt.Errorf("julisch: instance %q has %d values for %d attributes",
				in.ID, len(in.Values), len(attrs))
		}
	}

	res := &Result{
		Attributes: attrs,
		MinSize:    minSize,
		byInstance: make(map[string]int, len(instances)),
	}
	if len(instances) == 0 {
		return res, nil
	}

	// Working copy of the tuples; generalization mutates these in place.
	tuples := make([][]string, len(instances))
	for i, in := range instances {
		tuples[i] = append([]string(nil), in.Values...)
	}

	countTuples := func() map[string]int {
		counts := make(map[string]int)
		for _, t := range tuples {
			counts[key(t)]++
		}
		return counts
	}

	for {
		counts := countTuples()
		if minCount(counts) >= minSize {
			break
		}
		// Pick the attribute whose one-step generalization (applied to
		// every tuple) yields the fewest distinct tuples, i.e. merges the
		// most. Skip attributes already fully generalized.
		best, bestDistinct := -1, len(tuples)+1
		for ai := range attrs {
			generalizable := false
			trial := make(map[string]bool)
			for _, t := range tuples {
				v := t[ai]
				if v != Any {
					generalizable = true
					v = attrs[ai].Hierarchy.Parent(v)
				}
				probe := append(append([]string(nil), t[:ai]...), v)
				probe = append(probe, t[ai+1:]...)
				trial[key(probe)] = true
			}
			if !generalizable {
				continue
			}
			if len(trial) < bestDistinct {
				bestDistinct = len(trial)
				best = ai
			}
		}
		if best < 0 {
			// Everything is Any already; a single cluster remains.
			break
		}
		for _, t := range tuples {
			if t[best] != Any {
				t[best] = attrs[best].Hierarchy.Parent(t[best])
			}
		}
		res.Generalizations++
	}

	// Extract clusters from the final tuples.
	groups := make(map[string][]int)
	for i, t := range tuples {
		groups[key(t)] = append(groups[key(t)], i)
	}
	for _, idxs := range groups {
		c := Cluster{Tuple: append([]string(nil), tuples[idxs[0]]...)}
		for _, i := range idxs {
			c.InstanceIDs = append(c.InstanceIDs, instances[i].ID)
		}
		sort.Strings(c.InstanceIDs)
		res.Clusters = append(res.Clusters, c)
	}
	sort.Slice(res.Clusters, func(a, b int) bool {
		if len(res.Clusters[a].InstanceIDs) != len(res.Clusters[b].InstanceIDs) {
			return len(res.Clusters[a].InstanceIDs) > len(res.Clusters[b].InstanceIDs)
		}
		return key(res.Clusters[a].Tuple) < key(res.Clusters[b].Tuple)
	})
	for i := range res.Clusters {
		res.Clusters[i].ID = i
		for _, id := range res.Clusters[i].InstanceIDs {
			res.byInstance[id] = i
		}
	}
	return res, nil
}

func key(t []string) string {
	return strings.Join(t, "\x1f")
}

func minCount(counts map[string]int) int {
	min := int(^uint(0) >> 1)
	for _, c := range counts {
		if c < min {
			min = c
		}
	}
	return min
}

// SizeBuckets builds a numeric generalization hierarchy for string-encoded
// integers: exact value → bucket of width step → bucket of width step*10
// → Any. Values that do not parse generalize straight to Any.
func SizeBuckets(values []string, step int) Hierarchy {
	if step <= 0 {
		step = 1024
	}
	h := make(Hierarchy)
	for _, v := range values {
		n, ok := atoi(v)
		if !ok {
			continue
		}
		b1 := fmt.Sprintf("[%d-%d)", n/step*step, n/step*step+step)
		big := step * 10
		b2 := fmt.Sprintf("[%d-%d)", n/big*big, n/big*big+big)
		h[v] = b1
		h[b1] = b2
	}
	return h
}

func atoi(s string) (int, bool) {
	if s == "" {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
		n = n*10 + int(s[i]-'0')
	}
	return n, true
}
