package epm

import (
	"fmt"
	"sort"
)

// Incremental is the streaming counterpart of RunParallel: instances are
// added one at a time and integrated at epoch boundaries, and the cost of
// an epoch tracks the number of instances added since the previous epoch
// — not the corpus size.
//
// The engine keeps three pieces of persistent state that RunParallel
// rebuilds from scratch on every call:
//
//   - Per-feature value-count sketches: for every (feature, value) pair,
//     the exact instance count and the distinct attacker and sensor sets
//     that feed the Phase-2 relevance thresholds. Sketches are mergeable
//     — an epoch folds only the new instances in — and because the
//     counts only grow, a value's invariant status is monotone: once a
//     value crosses the thresholds it stays an invariant forever.
//   - The invariant sets derived from the sketches.
//   - The pattern groups (the Phase-3 state): one accumulator per
//     generalized pattern holding its sorted member IDs and distinct
//     attacker/sensor sets.
//
// An epoch first merges the pending pool into the sketches. When no
// value crossed a relevance threshold, the invariant sets are unchanged,
// so every previously grouped instance generalizes to the same pattern
// as before and only the new instances need placing (a delta epoch).
// When a value did cross, patterns of existing instances may split —
// the crossing invalidates the pattern tree — and the engine falls back
// to regrouping every instance under the updated invariant sets (a full
// regroup). The fallback still skips Phase-2 entirely: the sketches
// already hold the exact counts.
//
// Either way the materialized Clustering is byte-identical to
// RunParallel over the same instances (the differential property test
// proves this at every epoch size), so callers that previously re-ran
// full discovery per epoch can switch paths without any output change.
//
// An Incremental is not safe for concurrent use. The Clustering returned
// by Epoch shares group storage with the engine and is valid until the
// next Epoch call; callers needing a longer-lived snapshot should
// serialize it (WriteJSON) before adding more instances.
type Incremental struct {
	schema Schema
	th     Thresholds

	// pending tracks only the IDs added since the last epoch; ingested
	// IDs are duplicate-checked against memberOf instead, so the engine
	// never keeps a second corpus-sized ID set alive.
	pending   map[string]struct{}
	instances []Instance
	ingested  int // instances[:ingested] are in the sketches and groups

	sketches   []map[string]*valueSketch
	invariants []map[string]bool

	groups   map[string]*igroup
	memberOf map[string]*igroup

	cur          *Clustering
	epochs       int
	deltaEpochs  int
	fullRegroups int
}

// valueSketch is the mergeable relevance counter of one feature value:
// the exact inputs of the Phase-2 invariant decision.
type valueSketch struct {
	instances int
	attackers map[string]struct{}
	sensors   map[string]struct{}
}

func (v *valueSketch) invariant(th Thresholds) bool {
	return v.instances >= th.MinInstances &&
		len(v.attackers) >= th.MinAttackers &&
		len(v.sensors) >= th.MinSensors
}

// igroup is the persistent accumulator of one generalized pattern.
type igroup struct {
	pattern   Pattern
	key       string
	ids       []string // sorted
	attackers map[string]struct{}
	sensors   map[string]struct{}
	idx       int // index in the last materialized Clustering
}

// NewIncremental returns an empty incremental engine.
func NewIncremental(schema Schema, th Thresholds) (*Incremental, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if err := th.Validate(); err != nil {
		return nil, err
	}
	inc := &Incremental{
		schema:     schema,
		th:         th,
		pending:    make(map[string]struct{}),
		sketches:   make([]map[string]*valueSketch, len(schema.Features)),
		invariants: make([]map[string]bool, len(schema.Features)),
		groups:     make(map[string]*igroup),
		memberOf:   make(map[string]*igroup),
	}
	for fi := range schema.Features {
		inc.sketches[fi] = make(map[string]*valueSketch)
		inc.invariants[fi] = make(map[string]bool)
	}
	return inc, nil
}

// Add appends one instance to the pending pool, enforcing exactly the
// input invariants RunParallel enforces.
func (inc *Incremental) Add(in Instance) error {
	if err := inc.validate(in); err != nil {
		return err
	}
	if _, ok := inc.memberOf[in.ID]; ok {
		return fmt.Errorf("epm: duplicate instance ID %q", in.ID)
	}
	if _, ok := inc.pending[in.ID]; ok {
		return fmt.Errorf("epm: duplicate instance ID %q", in.ID)
	}
	inc.pending[in.ID] = struct{}{}
	inc.instances = append(inc.instances, in)
	return nil
}

// AddTrusted is Add minus the duplicate-ID screen, for callers that
// already deduplicate IDs upstream (the streaming service's event store
// does): it keeps the field validation, which is cheap, and skips the
// two hash probes per arrival that only re-derive a fact the caller
// guarantees. Feeding it a duplicate ID silently diverges from the
// RunParallel contract, so a stream must either stay deduplicated or
// use Add throughout.
func (inc *Incremental) AddTrusted(in Instance) error {
	if err := inc.validate(in); err != nil {
		return err
	}
	inc.instances = append(inc.instances, in)
	return nil
}

func (inc *Incremental) validate(in Instance) error {
	if in.ID == "" {
		return fmt.Errorf("epm: instance with empty ID")
	}
	if in.Attacker == "" {
		return fmt.Errorf("epm: instance %q has an empty attacker", in.ID)
	}
	if in.Sensor == "" {
		return fmt.Errorf("epm: instance %q has an empty sensor", in.ID)
	}
	if len(in.Values) != len(inc.schema.Features) {
		return fmt.Errorf("epm: instance %q has %d values for %d features",
			in.ID, len(in.Values), len(inc.schema.Features))
	}
	for _, v := range in.Values {
		if v == Wildcard {
			return fmt.Errorf("epm: instance %q uses reserved value %q", in.ID, Wildcard)
		}
	}
	return nil
}

// Len reports the total number of added instances.
func (inc *Incremental) Len() int { return len(inc.instances) }

// Pending reports the instances added since the last epoch.
func (inc *Incremental) Pending() int { return len(inc.instances) - inc.ingested }

// Epochs, DeltaEpochs, and FullRegroups report how the work split:
// Epochs = DeltaEpochs + FullRegroups.
func (inc *Incremental) Epochs() int       { return inc.epochs }
func (inc *Incremental) DeltaEpochs() int  { return inc.deltaEpochs }
func (inc *Incremental) FullRegroups() int { return inc.fullRegroups }

// Instances exposes the instance log in arrival order. Callers must
// treat it as read-only.
func (inc *Incremental) Instances() []Instance { return inc.instances }

// Epoch integrates the pending pool and materializes the clustering over
// every instance added so far. The second return reports whether a
// threshold crossing forced the full-regroup fallback. The result is
// byte-identical to RunParallel over Instances().
func (inc *Incremental) Epoch() (*Clustering, bool) {
	delta := inc.instances[inc.ingested:]
	crossed := inc.mergeSketches(delta)
	full := crossed || inc.epochs == 0
	if full {
		inc.regroupAll()
	} else {
		for i := range delta {
			inc.place(&delta[i], true)
		}
	}
	inc.ingested = len(inc.instances)
	clear(inc.pending)
	inc.epochs++
	if full {
		inc.fullRegroups++
	} else {
		inc.deltaEpochs++
	}
	inc.cur = inc.materialize()
	return inc.cur, full
}

// mergeSketches folds the delta into the per-feature sketches and
// reports whether any value crossed the relevance thresholds (counts
// only grow, so crossings are strictly false -> true).
func (inc *Incremental) mergeSketches(delta []Instance) bool {
	crossed := false
	for fi := range inc.schema.Features {
		sk := inc.sketches[fi]
		inv := inc.invariants[fi]
		for i := range delta {
			in := &delta[i]
			v := in.Values[fi]
			vs, ok := sk[v]
			if !ok {
				vs = &valueSketch{
					attackers: make(map[string]struct{}),
					sensors:   make(map[string]struct{}),
				}
				sk[v] = vs
			}
			vs.instances++
			// Check-before-insert: almost every arrival repeats an
			// already-counted attacker/sensor, and a plain lookup skips
			// the write barrier and growth work a blind assign pays.
			if _, ok := vs.attackers[in.Attacker]; !ok {
				vs.attackers[in.Attacker] = struct{}{}
			}
			if _, ok := vs.sensors[in.Sensor]; !ok {
				vs.sensors[in.Sensor] = struct{}{}
			}
			if !inv[v] && vs.invariant(inc.th) {
				inv[v] = true
				crossed = true
			}
		}
	}
	return crossed
}

// place files one instance into its pattern group under the current
// invariant sets. Delta epochs insert in sorted position (the group is
// already sorted); regroupAll appends and sorts once at the end.
func (inc *Incremental) place(in *Instance, sorted bool) {
	key := generalizedKeyWith(in.Values, inc.invariants)
	g, ok := inc.groups[key]
	if !ok {
		g = &igroup{
			pattern:   generalizeWith(in.Values, inc.invariants),
			key:       key,
			attackers: make(map[string]struct{}),
			sensors:   make(map[string]struct{}),
		}
		inc.groups[key] = g
	}
	if sorted {
		g.insert(in.ID)
	} else {
		g.ids = append(g.ids, in.ID)
	}
	g.attackers[in.Attacker] = struct{}{}
	g.sensors[in.Sensor] = struct{}{}
	inc.memberOf[in.ID] = g
}

// regroupAll is the full-rebuild fallback: every instance is regrouped
// under the updated invariant sets. Phase 2 is not repeated — the
// sketches already hold the exact counts.
func (inc *Incremental) regroupAll() {
	inc.groups = make(map[string]*igroup, len(inc.groups))
	clear(inc.memberOf)
	for i := range inc.instances {
		inc.place(&inc.instances[i], false)
	}
	for _, g := range inc.groups {
		sort.Strings(g.ids)
	}
}

// insert adds id to the sorted member list. Monotonically increasing IDs
// (the common streaming case) append in O(1).
func (g *igroup) insert(id string) {
	if n := len(g.ids); n == 0 || g.ids[n-1] < id {
		g.ids = append(g.ids, id)
		return
	}
	pos := sort.SearchStrings(g.ids, id)
	g.ids = append(g.ids, "")
	copy(g.ids[pos+1:], g.ids[pos:])
	g.ids[pos] = id
}

// materialize assembles the current groups into a Clustering that is
// byte-identical to RunParallel's. Cost is O(groups log groups), never
// O(instances): cluster slices share the groups' member storage and
// instance lookup delegates to the engine's membership index.
func (inc *Incremental) materialize() *Clustering {
	c := &Clustering{
		Schema:     inc.schema,
		Thresholds: inc.th,
		Stats:      make([]FeatureStat, len(inc.schema.Features)),
		invariants: make([]map[string]bool, len(inc.schema.Features)),
		byPattern:  make(map[string]int, len(inc.groups)),
		lookup:     inc.clusterOf,
	}
	for fi, f := range inc.schema.Features {
		inv := make(map[string]bool, len(inc.invariants[fi]))
		for v := range inc.invariants[fi] {
			inv[v] = true
		}
		c.invariants[fi] = inv
		c.Stats[fi] = FeatureStat{
			Feature:        f,
			Invariants:     len(inv),
			DistinctValues: len(inc.sketches[fi]),
		}
	}
	order := make([]*igroup, 0, len(inc.groups))
	for _, g := range inc.groups {
		order = append(order, g)
	}
	sort.Slice(order, func(a, b int) bool {
		if len(order[a].ids) != len(order[b].ids) {
			return len(order[a].ids) > len(order[b].ids)
		}
		return order[a].key < order[b].key
	})
	c.Clusters = make([]Cluster, len(order))
	for i, g := range order {
		g.idx = i
		c.Clusters[i] = Cluster{
			ID:          i,
			Pattern:     g.pattern,
			InstanceIDs: g.ids,
			Attackers:   len(g.attackers),
			Sensors:     len(g.sensors),
		}
		c.byPattern[g.key] = i
	}
	return c
}

// clusterOf backs ClusterOf on materialized clusterings: the engine's
// membership index maps the ID to its group, whose idx was assigned at
// the last materialization.
func (inc *Incremental) clusterOf(id string) int {
	if g, ok := inc.memberOf[id]; ok {
		return g.idx
	}
	return -1
}
