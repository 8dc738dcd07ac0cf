package bcluster

import "sort"

// Online poisoning defenses ("Poisoning Behavioral Malware Clustering",
// Biggio, Rieck et al.). Three mitigations hook the incremental
// probe-and-link pass; all are off at the zero value of their knobs, in
// which case the clusterer runs the original byte-identical code path.
//
//   - Merge resistance (Config.MergeResistance = R): a sample whose
//     verified links span two or more established components, each of
//     size >= R, is the signature of a bridge attack — legitimate growth
//     joins one cluster at a time, because a sample genuinely similar to
//     two big clusters implies the clusters are similar to each other
//     and would have merged on their own. The sample is held in
//     quarantine: it joins no component and no posting list. A hold
//     records one attested member from each side. Corroboration lifts
//     it: a later sample attesting the same component pair that is
//     dissimilar to every bridge already held there is an independent
//     witness — resubmitted copies of one bridge are one bridge — and
//     its merge goes through; once the two sides share a root, every
//     hold on the pair is released and re-integrated.
//
//   - Provenance weighting (Config.TrustPenalty): every input carries a
//     Distrust weight in [0,1] (the streaming service derives it from
//     the per-client admission ledger). A candidate link is verified
//     against the raised threshold
//         Threshold + TrustPenalty * max(Distrust_i, Distrust_j),
//     capped at 1, so samples from suspicious clients need stronger
//     behavioral evidence to join a cluster. The max makes the predicate
//     symmetric: whether a pair links does not depend on which side
//     arrived first, which is what makes the defended partition
//     recoverable from a checkpoint.
//
//   - Anomaly-gated admission (Config.GroupQuorum = T): every input may
//     carry a static Group (the streaming service uses the sample's
//     E/P/M placement, i.e. its μ instance). A sample that links only
//     to samples of other groups, while at least T members of its own
//     group are already integrated and none of them is among its link
//     targets, contradicts its static perspective — the paper's
//     cross-perspective disagreement signal — and is parked instead of
//     clustered.
//
// Held and parked samples stay in the partition as singletons: they are
// queryable, never dropped, and excluded only from link formation. On
// an operator flush, DrainHeld converts them into permanent singletons
// so a drained stream reaches a stable state.
//
// In defended mode a probe must see all of a sample's links before the
// hold and park rules decide, so it visits each posted sample once, with
// no same-component pruning, no failed-pair stamp and no duplicate
// shortcut (with a trust penalty, a copy of a set can clear the threshold
// against a sample its first copy fails); a released hold is probed a
// second time. Probe statistics therefore differ from the
// undefended path (they are path-dependent anyway); the membership
// partition is exact. The size bound applies at each pair's effective
// threshold.

// Status is a sample's defense disposition.
type Status uint8

// Sample statuses. StatusClustered is the zero value so that undefended
// snapshots serialize without status fields.
const (
	// StatusClustered marks a normally integrated sample.
	StatusClustered Status = iota
	// StatusHeld marks a sample quarantined by merge resistance.
	StatusHeld
	// StatusParked marks a sample parked by the anomaly gate.
	StatusParked
	// StatusDrained marks a held or parked sample converted to a
	// permanent singleton by an operator flush.
	StatusDrained
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusClustered:
		return "clustered"
	case StatusHeld:
		return "held"
	case StatusParked:
		return "parked"
	case StatusDrained:
		return "drained"
	default:
		return "unknown"
	}
}

// DefenseStats counts defense activity. Current counts (Held, Parked)
// move on release and drain; totals are cumulative. After a checkpoint
// restore the totals are re-derived from the recorded statuses, so
// cumulative counters are approximate across recoveries (the partition
// itself is exact).
type DefenseStats struct {
	// Held and Parked are the samples currently quarantined or parked.
	Held   int `json:"held"`
	Parked int `json:"parked"`
	// HeldTotal and ParkedTotal count every hold and park decision.
	HeldTotal   int `json:"held_total"`
	ParkedTotal int `json:"parked_total"`
	// Released counts holds released after independent corroboration.
	Released int `json:"released"`
	// Drained counts quarantined samples converted to permanent
	// singletons by a flush.
	Drained int `json:"drained"`
}

// DefenseEvent records one hold or park decision, for provenance
// accounting in the streaming service.
type DefenseEvent struct {
	// ID is the affected sample.
	ID string
	// Status is StatusHeld or StatusParked.
	Status Status
}

// defenseState is allocated only when a defense knob is nonzero.
type defenseState struct {
	// status is parallel to inputs (meaningful up to the watermark).
	status []Status
	// compSize holds the component size at each union-find root.
	compSize []int
	// groupCount counts integrated, non-quarantined samples per group.
	groupCount map[string]int
	// holds maps a held input index to its attested pair: one linked
	// member from each of the two components the sample would join.
	holds map[int][2]int
	// events accumulates hold/park decisions until TakeDefenseEvents.
	events []DefenseEvent
	stats  DefenseStats
	// restoring suppresses rule evaluation and event emission while a
	// checkpoint replay applies recorded statuses.
	restoring     bool
	restoreStatus []Status
	restoreHolds  map[int][2]int
}

func (c Config) defenseEnabled() bool {
	return c.MergeResistance > 0 || c.TrustPenalty > 0 || c.GroupQuorum > 0
}

// DefenseStats returns the defense counters; zero when defenses are off.
func (inc *Incremental) DefenseStats() DefenseStats {
	if inc.def == nil {
		return DefenseStats{}
	}
	return inc.def.stats
}

// TakeDefenseEvents drains the hold/park decisions made since the last
// call. The streaming service turns them into per-client suspicion.
func (inc *Incremental) TakeDefenseEvents() []DefenseEvent {
	if inc.def == nil || len(inc.def.events) == 0 {
		return nil
	}
	ev := inc.def.events
	inc.def.events = nil
	return ev
}

// SampleStatus reports a sample's defense disposition. Unknown IDs and
// undefended clusterers report StatusClustered with ok=false and true
// respectively.
func (inc *Incremental) SampleStatus(id string) (Status, bool) {
	idx, ok := inc.byID[id]
	if !ok {
		return StatusClustered, false
	}
	if inc.def == nil || idx >= len(inc.def.status) {
		return StatusClustered, true
	}
	return inc.def.status[idx], true
}

// growDefense sizes the per-sample defense state to the input log.
func (inc *Incremental) growDefense() {
	d := inc.def
	for len(d.status) < len(inc.inputs) {
		d.status = append(d.status, StatusClustered)
	}
	for len(d.compSize) < len(inc.inputs) {
		d.compSize = append(d.compSize, 1)
	}
}

// sizeOf returns the component size at index i's root.
func (inc *Incremental) sizeOf(i int) int {
	return inc.def.compSize[inc.uf.find(i)]
}

// unionSized unions two components, maintaining root sizes.
func (inc *Incremental) unionSized(i, j int) {
	ri, rj := inc.uf.find(i), inc.uf.find(j)
	if ri == rj {
		return
	}
	total := inc.def.compSize[ri] + inc.def.compSize[rj]
	inc.uf.union(i, j)
	inc.merges++
	inc.def.compSize[inc.uf.find(i)] = total
}

// effThreshold is the symmetric trust-penalized link threshold for a
// candidate pair.
func (cfg Config) effThreshold(a, b float64) float64 {
	if cfg.TrustPenalty <= 0 {
		return cfg.Threshold
	}
	d := a
	if b > d {
		d = b
	}
	t := cfg.Threshold + cfg.TrustPenalty*d
	if t > 1 {
		t = 1
	}
	return t
}

// collectLinks probes sample j against the postings of its prefix tokens
// and returns the indices whose exact Jaccard clears the pair's effective
// threshold, in deterministic probe order. Unlike the undefended path it
// visits each member once through its own seen set instead of the
// failed-pair stamp, and does not post j.
func (inc *Incremental) collectLinks(j int) []int {
	in := inc.inputs[j]
	var links []int
	seen := make(map[int]bool)
	for _, tok := range prefix(inc.sets[j], inc.cfg.Threshold) {
		b := inc.index[tok]
		if b == nil {
			continue
		}
		for _, i := range b.members {
			if seen[i] {
				continue
			}
			seen[i] = true
			t := inc.cfg.effThreshold(in.Distrust, inc.inputs[i].Distrust)
			if sizesCannotLink(len(inc.sets[i]), len(inc.sets[j]), t) {
				continue
			}
			inc.stats.CandidatePairs++
			if inc.sets[i].Jaccard(inc.sets[j]) >= t {
				inc.stats.Links++
				links = append(links, i)
			}
		}
	}
	return links
}

// admit posts sample j under its prefix tokens and links it to its
// verified targets.
func (inc *Incremental) admit(j int, links []int) {
	for _, tok := range prefix(inc.sets[j], inc.cfg.Threshold) {
		b := inc.index[tok]
		if b == nil {
			b = &bucket{}
			inc.index[tok] = b
		}
		b.members = append(b.members, j)
	}
	inc.posted = append(inc.posted, j)
	for _, i := range links {
		inc.unionSized(i, j)
	}
	if g := inc.inputs[j].Group; g != "" {
		inc.def.groupCount[g]++
	}
}

// integrateDefended is the defended counterpart of integrate: it
// collects sample j's verified links first and applies the hold and
// park rules before any union happens.
func (inc *Incremental) integrateDefended(j int) {
	d := inc.def
	if d.restoring {
		inc.applyRestored(j)
		return
	}
	links := inc.collectLinks(j)

	if r := inc.cfg.MergeResistance; r > 0 {
		var bigA, bigB = -1, -1
		var rootA int
		for _, i := range links {
			if inc.sizeOf(i) < r {
				continue
			}
			root := inc.uf.find(i)
			switch {
			case bigA < 0:
				bigA, rootA = i, root
			case root != rootA:
				bigB = i
			}
			if bigB >= 0 {
				break
			}
		}
		if bigB >= 0 {
			// Corroboration check: a second sample attesting the same
			// component pair counts as an independent witness only if it
			// is behaviorally dissimilar to an existing hold — identical
			// copies of one bridge are one bridge, however many the
			// attacker submits. One independent witness corroborates the
			// merge: j is admitted, and the epoch-end release scan frees
			// the prior holds once the two sides share a root.
			if inc.independentWitness(j, bigA, bigB) {
				inc.admit(j, links)
				return
			}
			d.status[j] = StatusHeld
			d.holds[j] = [2]int{bigA, bigB}
			d.stats.Held++
			d.stats.HeldTotal++
			d.events = append(d.events, DefenseEvent{ID: inc.inputs[j].ID, Status: StatusHeld})
			return
		}
	}

	if q := inc.cfg.GroupQuorum; q > 0 {
		g := inc.inputs[j].Group
		if g != "" && len(links) > 0 && d.groupCount[g] >= q {
			same := false
			for _, i := range links {
				if inc.inputs[i].Group == g {
					same = true
					break
				}
			}
			if !same {
				d.status[j] = StatusParked
				d.stats.Parked++
				d.stats.ParkedTotal++
				d.events = append(d.events, DefenseEvent{ID: inc.inputs[j].ID, Status: StatusParked})
				return
			}
		}
	}

	inc.admit(j, links)
}

// independentWitness reports whether an existing hold attests the same
// component pair as sample j (linking bigA's and bigB's components) with
// a behaviorally dissimilar sample. Dissimilarity is judged by the plain
// Jaccard threshold, not the trust-penalized one: a distrusted client
// must not find it easier to count as independent. Resubmitting copies
// of one bridge therefore never corroborates it, while genuinely
// distinct evidence that two clusters belong together does.
func (inc *Incremental) independentWitness(j, bigA, bigB int) bool {
	ra, rb := inc.uf.find(bigA), inc.uf.find(bigB)
	if ra > rb {
		ra, rb = rb, ra
	}
	for h, pair := range inc.def.holds {
		pa, pb := inc.uf.find(pair[0]), inc.uf.find(pair[1])
		if pa > pb {
			pa, pb = pb, pa
		}
		if pa != ra || pb != rb {
			continue
		}
		t := inc.cfg.Threshold
		if sizesCannotLink(len(inc.sets[h]), len(inc.sets[j]), t) || inc.sets[h].Jaccard(inc.sets[j]) < t {
			return true
		}
	}
	return false
}

// applyRestored replays sample j under a recorded status instead of the
// live rules. Clustered samples re-link through the symmetric predicate
// (link existence is order-independent, so the closure matches the
// snapshotted partition); held, parked, and drained samples are excluded
// exactly as recorded.
func (inc *Incremental) applyRestored(j int) {
	d := inc.def
	st := StatusClustered
	if j < len(d.restoreStatus) {
		st = d.restoreStatus[j]
	}
	switch st {
	case StatusClustered:
		inc.admit(j, inc.collectLinks(j))
	case StatusHeld:
		d.status[j] = StatusHeld
		if p, ok := d.restoreHolds[j]; ok {
			d.holds[j] = p
		}
		d.stats.Held++
		d.stats.HeldTotal++
	case StatusParked:
		d.status[j] = StatusParked
		d.stats.Parked++
		d.stats.ParkedTotal++
	case StatusDrained:
		d.status[j] = StatusDrained
		d.stats.Drained++
	}
}

// releaseCorroborated re-integrates held samples whose two attested
// sides merged without them: the merge the hold prevented has been
// independently corroborated, so the sample was not the only bridge.
// Releases can cascade (a released sample's unions may corroborate
// another hold), so the scan runs to a fixpoint, in ascending index
// order for determinism.
func (inc *Incremental) releaseCorroborated() {
	d := inc.def
	for {
		var due []int
		for j, pair := range d.holds {
			if inc.uf.find(pair[0]) == inc.uf.find(pair[1]) {
				due = append(due, j)
			}
		}
		if len(due) == 0 {
			return
		}
		sort.Ints(due)
		for _, j := range due {
			delete(d.holds, j)
			d.status[j] = StatusClustered
			d.stats.Held--
			d.stats.Released++
			inc.integrateDefended(j)
		}
	}
}

// DrainHeld converts every held and parked sample into a permanent
// singleton, returning how many were drained. The streaming service
// calls it on an operator flush: a drained stream must reach a stable
// state, so quarantine does not outlive the drain — the samples stay
// queryable (and keep their singleton clusters) but never re-enter link
// formation.
func (inc *Incremental) DrainHeld() int {
	if inc.def == nil {
		return 0
	}
	d := inc.def
	n := 0
	for j, st := range d.status {
		if st == StatusHeld || st == StatusParked {
			d.status[j] = StatusDrained
			n++
		}
	}
	d.stats.Drained += n
	d.stats.Held = 0
	d.stats.Parked = 0
	d.holds = make(map[int][2]int)
	return n
}
