package bcluster

import (
	"fmt"

	"repro/internal/behavior"
)

// IncrementalInput is one sample's persisted clustering input: the ID
// and the interned behavior set its profile reduces to. Those two fields
// determine the feature set, its prefix tokens, and therefore the whole
// probe-and-link sequence. The set is the caller's to serialize (a
// checkpoint writes each distinct set once and refers to it). The
// defense fields (group, distrust, status, hold pair) are populated
// only by defended clusterers, and are omitted from the JSON when
// unset.
type IncrementalInput struct {
	ID       string        `json:"id"`
	Set      *behavior.Set `json:"-"`
	Group    string        `json:"group,omitempty"`
	Distrust float64       `json:"distrust,omitempty"`
	Status   Status        `json:"status,omitempty"`
	// HoldPair is the attested component pair of a held sample, as two
	// input indices; nil otherwise.
	HoldPair []int `json:"hold_pair,omitempty"`
}

// IncrementalState is a serializable snapshot of an Incremental: the
// inputs in arrival order, the integration watermark, and the epoch
// counter. Everything else (prefix index, union-find, probe stats) is a
// deterministic function of these and is rebuilt by RestoreIncremental.
// A live clusterer streams its snapshot instead of copying it: EachInput
// yields the inputs, Samples()-Pending() is the watermark, and Epochs()
// the counter.
type IncrementalState struct {
	Inputs     []IncrementalInput `json:"inputs"`
	Integrated int                `json:"integrated"`
	Epochs     int                `json:"epochs"`
}

// EachInput calls fn with each input's persisted record, in arrival
// order, without copying the clusterer's state. The record is reused
// between calls: fn must not retain it or modify its slices.
func (inc *Incremental) EachInput(fn func(*IncrementalInput)) {
	var (
		rec  IncrementalInput
		hold [2]int
	)
	for i, in := range inc.inputs {
		rec = IncrementalInput{
			ID:       in.ID,
			Set:      in.Set,
			Group:    in.Group,
			Distrust: in.Distrust,
		}
		if inc.def != nil && i < len(inc.def.status) {
			rec.Status = inc.def.status[i]
			if p, held := inc.def.holds[i]; held {
				hold = p
				rec.HoldPair = hold[:]
			}
		}
		fn(&rec)
	}
}

// RestoreIncremental rebuilds a clusterer from a State snapshot. The
// membership partition is identical to the snapshotted instance. A
// snapshot that cannot come from a clusterer — an unknown status, or a
// hold pair that is not two integrated indices, an input without a
// set — is refused before anything is rebuilt.
//
// Undefended, the rebuild is byte-identical in full — partition,
// index, and probe stats — because integration happens in strict
// arrival order regardless of how the original run partitioned it into
// epochs: replaying the integrated prefix as one verification epoch
// performs exactly the same probe sequence.
//
// Defended, the recorded statuses are applied instead of re-evaluating
// the hold/park rules (rule outcomes depend on epoch-relative timing the
// snapshot does not keep): clustered samples re-link through the
// symmetric trust-penalized predicate, whose closure is order-
// independent, and quarantined samples are excluded exactly as
// recorded. Probe statistics and cumulative defense counters are
// path-dependent and therefore approximate after a defended restore.
func RestoreIncremental(cfg Config, st IncrementalState) (*Incremental, error) {
	inc, err := NewIncremental(cfg)
	if err != nil {
		return nil, err
	}
	if st.Integrated < 0 || st.Integrated > len(st.Inputs) {
		return nil, fmt.Errorf("bcluster: restore watermark %d out of range [0,%d]", st.Integrated, len(st.Inputs))
	}
	for _, in := range st.Inputs {
		if in.Set == nil {
			return nil, fmt.Errorf("bcluster: restore: input %q has no behavior set", in.ID)
		}
		if in.Status > StatusDrained {
			return nil, fmt.Errorf("bcluster: restore: input %q has unknown status %d", in.ID, in.Status)
		}
		if in.HoldPair == nil {
			continue
		}
		if len(in.HoldPair) != 2 || min(in.HoldPair[0], in.HoldPair[1]) < 0 || max(in.HoldPair[0], in.HoldPair[1]) >= st.Integrated {
			return nil, fmt.Errorf("bcluster: restore: input %q holds pair %v, want two indices below the watermark %d", in.ID, in.HoldPair, st.Integrated)
		}
	}
	add := func(in IncrementalInput) error {
		return inc.add(member{ID: in.ID, Set: in.Set, Group: in.Group, Distrust: in.Distrust})
	}
	if inc.def != nil {
		inc.def.restoring = true
		inc.def.restoreStatus = make([]Status, st.Integrated)
		inc.def.restoreHolds = make(map[int][2]int)
		for i, in := range st.Inputs[:st.Integrated] {
			inc.def.restoreStatus[i] = in.Status
			if in.Status == StatusHeld && len(in.HoldPair) == 2 {
				inc.def.restoreHolds[i] = [2]int{in.HoldPair[0], in.HoldPair[1]}
			}
		}
	}
	for _, in := range st.Inputs[:st.Integrated] {
		if err := add(in); err != nil {
			return nil, fmt.Errorf("bcluster: restore: %w", err)
		}
	}
	inc.Verify()
	if inc.def != nil {
		inc.def.restoring = false
		inc.def.restoreStatus = nil
		inc.def.restoreHolds = nil
	}
	for _, in := range st.Inputs[st.Integrated:] {
		if err := add(in); err != nil {
			return nil, fmt.Errorf("bcluster: restore: %w", err)
		}
	}
	inc.epochs = st.Epochs
	return inc, nil
}
