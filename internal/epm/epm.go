// Package epm implements EPM clustering, the paper's primary
// contribution: a deliberately simple pattern-discovery technique (a
// simplification of Julisch's attribute-oriented induction for IDS
// alerts) applied independently to the Exploit (ε), Payload (π), and
// Malware (μ) dimensions of code-injection attacks.
//
// The technique has four phases:
//
//  1. Feature definition — a schema of per-dimension features (Table 1).
//  2. Invariant discovery — a feature value is an invariant when it is
//     witnessed in enough attack instances, used by enough distinct
//     attackers, and observed by enough distinct honeypot addresses; the
//     thresholds used throughout the paper are (10, 3, 3).
//  3. Pattern discovery — the distinct combinations of invariant values
//     (with "do not care" wildcards for non-invariant positions) observed
//     in the dataset.
//  4. Pattern-based classification — every instance is assigned to the
//     most specific pattern matching its feature values; the instances of
//     one pattern form one cluster (E-, P-, or M-cluster depending on the
//     dimension).
//
// The approach assumes attacker randomization has limited scope: mutating
// every feature has a cost, so enough invariants survive to characterize
// each activity class. The paper shows this holds for the sophistication
// level of contemporary polymorphic engines.
package epm

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Wildcard is the "do not care" value in patterns.
const Wildcard = "*"

// Schema names the features of one EPM dimension, in column order.
type Schema struct {
	// Dimension is a label such as "epsilon", "pi", or "mu".
	Dimension string
	// Features are the feature (column) names.
	Features []string
}

// Validate checks the schema.
func (s Schema) Validate() error {
	if s.Dimension == "" {
		return fmt.Errorf("epm: schema needs a dimension label")
	}
	if len(s.Features) == 0 {
		return fmt.Errorf("epm: schema %q has no features", s.Dimension)
	}
	seen := make(map[string]bool, len(s.Features))
	for _, f := range s.Features {
		if f == "" {
			return fmt.Errorf("epm: schema %q has an empty feature name", s.Dimension)
		}
		if seen[f] {
			return fmt.Errorf("epm: schema %q repeats feature %q", s.Dimension, f)
		}
		seen[f] = true
	}
	return nil
}

// Instance is one attack instance projected onto one dimension.
type Instance struct {
	// ID identifies the attack event.
	ID string
	// Attacker identifies the attacking source (an IP address in the real
	// dataset); it feeds the "used by at least N attackers" relevance
	// constraint.
	Attacker string
	// Sensor identifies the honeypot address that observed the instance;
	// it feeds the "witnessed on at least N honeypot IPs" constraint.
	Sensor string
	// Values are the feature values, aligned with the schema columns.
	Values []string
}

// Thresholds configure invariant discovery.
type Thresholds struct {
	// MinInstances is the minimum number of attack instances a value must
	// appear in.
	MinInstances int
	// MinAttackers is the minimum number of distinct attackers that must
	// have used the value.
	MinAttackers int
	// MinSensors is the minimum number of distinct honeypot addresses that
	// must have witnessed the value.
	MinSensors int
}

// DefaultThresholds are the values used throughout the paper: an invariant
// must be seen in at least 10 attack instances, from at least 3 attackers,
// on at least 3 honeypot IPs.
func DefaultThresholds() Thresholds {
	return Thresholds{MinInstances: 10, MinAttackers: 3, MinSensors: 3}
}

// Validate checks the thresholds.
func (t Thresholds) Validate() error {
	if t.MinInstances < 1 || t.MinAttackers < 1 || t.MinSensors < 1 {
		return fmt.Errorf("epm: thresholds must be >= 1, got %+v", t)
	}
	return nil
}

// Pattern is a tuple of invariant values and wildcards.
type Pattern struct {
	Values []string
}

// Specificity counts the non-wildcard positions.
func (p Pattern) Specificity() int {
	n := 0
	for _, v := range p.Values {
		if v != Wildcard {
			n++
		}
	}
	return n
}

// Matches reports whether the pattern matches the given feature values.
func (p Pattern) Matches(values []string) bool {
	if len(values) != len(p.Values) {
		return false
	}
	for i, v := range p.Values {
		if v != Wildcard && v != values[i] {
			return false
		}
	}
	return true
}

// Key renders the pattern as a stable string.
func (p Pattern) Key() string {
	return strings.Join(p.Values, "\x1f")
}

// String renders the pattern for human consumption.
func (p Pattern) String() string {
	return "(" + strings.Join(p.Values, ", ") + ")"
}

// Cluster groups the instances classified under one pattern.
type Cluster struct {
	// ID is a dense index assigned largest-cluster-first within the
	// clustering.
	ID int
	// Pattern is the classification pattern of the cluster.
	Pattern Pattern
	// InstanceIDs lists the member attack instances, sorted.
	InstanceIDs []string
	// Attackers is the number of distinct attackers among members.
	Attackers int
	// Sensors is the number of distinct sensors among members.
	Sensors int
}

// Size returns the number of member instances.
func (c Cluster) Size() int { return len(c.InstanceIDs) }

// FeatureStat describes invariant discovery for one feature.
type FeatureStat struct {
	// Feature is the feature name.
	Feature string
	// Invariants is the number of invariant values discovered (the
	// rightmost column of Table 1).
	Invariants int
	// DistinctValues is the number of distinct values observed.
	DistinctValues int
}

// Clustering is the result of running EPM on one dimension.
type Clustering struct {
	Schema     Schema
	Thresholds Thresholds
	// Stats has one entry per schema feature, in order.
	Stats []FeatureStat
	// Clusters are the discovered clusters, largest first.
	Clusters []Cluster
	// invariants[i] is the set of invariant values of feature i.
	invariants []map[string]bool
	byInstance map[string]int
	byPattern  map[string]int
	// lookup, when set, answers ClusterOf instead of byInstance. The
	// incremental engine installs its membership index here so that
	// materializing an epoch never pays an O(instances) map rebuild.
	lookup func(instanceID string) int
}

// ClusterOf returns the cluster index of an instance ID, or -1.
func (c *Clustering) ClusterOf(instanceID string) int {
	if c.byInstance != nil {
		if i, ok := c.byInstance[instanceID]; ok {
			return i
		}
		return -1
	}
	if c.lookup != nil {
		return c.lookup(instanceID)
	}
	return -1
}

// Classify returns the most specific pattern of the clustering matching
// the given values and its cluster index. Ties on specificity are broken
// by pattern key for determinism. ok=false means no pattern matches.
// Wildcard is reserved for patterns: values containing "*" never classify.
//
// The common case is O(features): generalizing the values (keep invariant
// values, wildcard the rest) yields the most specific pattern that could
// match them — every discovered pattern carries only invariant values at
// its non-wildcard positions, so any pattern matching the values is a
// pointwise generalization of the generalized tuple. A byPattern hit is
// therefore the unique most-specific match; only a miss falls back to the
// linear scan over less specific patterns.
func (c *Clustering) Classify(values []string) (Pattern, int, bool) {
	if len(values) != len(c.Schema.Features) {
		return Pattern{}, -1, false
	}
	for _, v := range values {
		if v == Wildcard {
			return Pattern{}, -1, false
		}
	}
	if i, ok := c.byPattern[c.generalizedKey(values)]; ok {
		return c.Clusters[i].Pattern, i, true
	}
	return c.classifyScan(values)
}

// classifyScan is the exhaustive most-specific-match over all clusters,
// the reference the fast path falls back to (and is tested against).
func (c *Clustering) classifyScan(values []string) (Pattern, int, bool) {
	best := -1
	for i, cl := range c.Clusters {
		if !cl.Pattern.Matches(values) {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		bs, cs := c.Clusters[best].Pattern.Specificity(), cl.Pattern.Specificity()
		if cs > bs || (cs == bs && cl.Pattern.Key() < c.Clusters[best].Pattern.Key()) {
			best = i
		}
	}
	if best < 0 {
		return Pattern{}, -1, false
	}
	return c.Clusters[best].Pattern, best, true
}

// generalize keeps the invariant values and wildcards the rest.
func (c *Clustering) generalize(values []string) Pattern {
	return generalizeWith(values, c.invariants)
}

// generalizedKey is generalize(values).Key() in a single allocation, for
// the classification hot path.
func (c *Clustering) generalizedKey(values []string) string {
	return generalizedKeyWith(values, c.invariants)
}

// generalizeWith keeps the values that are invariants of their feature
// and wildcards the rest.
func generalizeWith(values []string, invariants []map[string]bool) Pattern {
	vals := make([]string, len(values))
	for fi, v := range values {
		if invariants[fi][v] {
			vals[fi] = v
		} else {
			vals[fi] = Wildcard
		}
	}
	return Pattern{Values: vals}
}

// generalizedKeyWith is generalizeWith(values, invariants).Key() in a
// single allocation.
func generalizedKeyWith(values []string, invariants []map[string]bool) string {
	n := len(values)
	for _, v := range values {
		n += len(v)
	}
	var b strings.Builder
	b.Grow(n)
	for fi, v := range values {
		if fi > 0 {
			b.WriteByte('\x1f')
		}
		if invariants[fi][v] {
			b.WriteString(v)
		} else {
			b.WriteString(Wildcard)
		}
	}
	return b.String()
}

// Run executes invariant discovery, pattern discovery, and classification
// over the instances, using one worker per available CPU. Use RunParallel
// to pin the worker count; the result is identical at any level.
func Run(schema Schema, instances []Instance, th Thresholds) (*Clustering, error) {
	return RunParallel(schema, instances, th, 0)
}

// RunParallel is Run with an explicit bound on worker goroutines; workers
// <= 0 selects GOMAXPROCS. The clustering is byte-identical regardless of
// the worker count: Phase-2 results are index-addressed per feature, and
// Phase-3 shard merging feeds a total ordering (size, then pattern key).
func RunParallel(schema Schema, instances []Instance, th Thresholds, workers int) (*Clustering, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if err := th.Validate(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	seenID := make(map[string]bool, len(instances))
	for _, in := range instances {
		if in.ID == "" {
			return nil, fmt.Errorf("epm: instance with empty ID")
		}
		if seenID[in.ID] {
			return nil, fmt.Errorf("epm: duplicate instance ID %q", in.ID)
		}
		seenID[in.ID] = true
		if in.Attacker == "" {
			return nil, fmt.Errorf("epm: instance %q has an empty attacker", in.ID)
		}
		if in.Sensor == "" {
			return nil, fmt.Errorf("epm: instance %q has an empty sensor", in.ID)
		}
		if len(in.Values) != len(schema.Features) {
			return nil, fmt.Errorf("epm: instance %q has %d values for %d features",
				in.ID, len(in.Values), len(schema.Features))
		}
		for _, v := range in.Values {
			if v == Wildcard {
				return nil, fmt.Errorf("epm: instance %q uses reserved value %q", in.ID, Wildcard)
			}
		}
	}

	c := &Clustering{
		Schema:     schema,
		Thresholds: th,
		Stats:      make([]FeatureStat, len(schema.Features)),
		invariants: make([]map[string]bool, len(schema.Features)),
		byInstance: make(map[string]int, len(instances)),
		byPattern:  make(map[string]int),
	}

	// Phase 2: invariant discovery. Each feature's value statistics are
	// independent, so features fan out across the pool; invariants[fi] and
	// Stats[fi] are index-addressed, so there are no ordering races.
	var wg sync.WaitGroup
	feats := make(chan int)
	for w := 0; w < min(workers, len(schema.Features)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for fi := range feats {
				c.discoverFeature(fi, instances, th)
			}
		}()
	}
	for fi := range schema.Features {
		feats <- fi
	}
	close(feats)
	wg.Wait()

	// Phase 3 + 4: pattern discovery and classification. Generalizing each
	// instance (keep invariant values, wildcard the rest) yields exactly
	// the observed invariant combinations; the generalized tuple of an
	// instance is also the most specific discovered pattern matching it,
	// so discovery and most-specific classification coincide (property
	// covered by tests). Grouping is sharded over contiguous instance
	// ranges; the merge below is order-insensitive because member IDs are
	// sorted per group and the cluster ordering is total.
	shardSize := (len(instances) + workers - 1) / workers
	var shards []map[string]*group
	var gw sync.WaitGroup
	for lo := 0; lo < len(instances); lo += shardSize {
		m := make(map[string]*group)
		shards = append(shards, m)
		gw.Add(1)
		go func(part []Instance, m map[string]*group) {
			defer gw.Done()
			for _, in := range part {
				p := c.generalize(in.Values)
				key := p.Key()
				g, ok := m[key]
				if !ok {
					g = &group{pattern: p, attackers: make(map[string]bool), sensors: make(map[string]bool)}
					m[key] = g
				}
				g.ids = append(g.ids, in.ID)
				g.attackers[in.Attacker] = true
				g.sensors[in.Sensor] = true
			}
		}(instances[lo:min(lo+shardSize, len(instances))], m)
	}
	gw.Wait()

	groups := make(map[string]*group)
	for _, m := range shards {
		for key, g := range m {
			dst, ok := groups[key]
			if !ok {
				groups[key] = g
				continue
			}
			dst.ids = append(dst.ids, g.ids...)
			for a := range g.attackers {
				dst.attackers[a] = true
			}
			for s := range g.sensors {
				dst.sensors[s] = true
			}
		}
	}

	c.Clusters = make([]Cluster, 0, len(groups))
	for _, g := range groups {
		sort.Strings(g.ids)
		c.Clusters = append(c.Clusters, Cluster{
			Pattern:     g.pattern,
			InstanceIDs: g.ids,
			Attackers:   len(g.attackers),
			Sensors:     len(g.sensors),
		})
	}
	sort.Slice(c.Clusters, func(a, b int) bool {
		if len(c.Clusters[a].InstanceIDs) != len(c.Clusters[b].InstanceIDs) {
			return len(c.Clusters[a].InstanceIDs) > len(c.Clusters[b].InstanceIDs)
		}
		return c.Clusters[a].Pattern.Key() < c.Clusters[b].Pattern.Key()
	})
	for i := range c.Clusters {
		c.Clusters[i].ID = i
		c.byPattern[c.Clusters[i].Pattern.Key()] = i
		for _, id := range c.Clusters[i].InstanceIDs {
			c.byInstance[id] = i
		}
	}
	return c, nil
}

// valueStat accumulates the Phase-2 relevance statistics of one value.
type valueStat struct {
	instances int
	attackers map[string]bool
	sensors   map[string]bool
}

// group accumulates the members of one generalized pattern during Phase 3.
type group struct {
	pattern   Pattern
	ids       []string
	attackers map[string]bool
	sensors   map[string]bool
}

// discoverFeature runs Phase-2 invariant discovery for feature fi.
func (c *Clustering) discoverFeature(fi int, instances []Instance, th Thresholds) {
	stats := make(map[string]*valueStat)
	for _, in := range instances {
		v := in.Values[fi]
		vs, ok := stats[v]
		if !ok {
			vs = &valueStat{attackers: make(map[string]bool), sensors: make(map[string]bool)}
			stats[v] = vs
		}
		vs.instances++
		vs.attackers[in.Attacker] = true
		vs.sensors[in.Sensor] = true
	}
	inv := make(map[string]bool)
	for v, vs := range stats {
		if vs.instances >= th.MinInstances &&
			len(vs.attackers) >= th.MinAttackers &&
			len(vs.sensors) >= th.MinSensors {
			inv[v] = true
		}
	}
	c.invariants[fi] = inv
	c.Stats[fi] = FeatureStat{
		Feature:        c.Schema.Features[fi],
		Invariants:     len(inv),
		DistinctValues: len(stats),
	}
}

// TotalInvariants sums the invariant counts over all features (the
// per-dimension totals reported in Table 1).
func (c *Clustering) TotalInvariants() int {
	n := 0
	for _, s := range c.Stats {
		n += s.Invariants
	}
	return n
}
