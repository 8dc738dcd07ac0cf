package scriptgen

import (
	"fmt"
	"sort"
)

// Snapshot types serialize the matured part of FSM models so a central
// gateway can push refined models to its sensors (the FSM-sync arrow of
// the paper's Figure 1). Candidate bins are deliberately excluded: only
// the gateway learns; sensors receive generalized knowledge.

// EdgeSnapshot is one matured FSM transition.
type EdgeSnapshot struct {
	From    int     `json:"from"`
	To      int     `json:"to"`
	Pattern Pattern `json:"pattern"`
}

// FSMSnapshot is the matured model of one port.
type FSMSnapshot struct {
	Port   int            `json:"port"`
	States int            `json:"states"`
	Edges  []EdgeSnapshot `json:"edges"`
}

// SetSnapshot is the full per-port model set, with a version that
// increases whenever new knowledge matures.
type SetSnapshot struct {
	Version int           `json:"version"`
	FSMs    []FSMSnapshot `json:"fsms"`
}

// Snapshot exports the matured edges of the FSM.
func (f *FSM) Snapshot() FSMSnapshot {
	snap := FSMSnapshot{Port: f.Port, States: f.states}
	var walk func(*state)
	seen := map[int]bool{}
	walk = func(s *state) {
		if seen[s.id] {
			return
		}
		seen[s.id] = true
		for _, e := range s.edges {
			snap.Edges = append(snap.Edges, EdgeSnapshot{
				From:    s.id,
				To:      e.target.id,
				Pattern: clonePattern(e.pattern),
			})
			walk(e.target)
		}
	}
	walk(f.root)
	sort.Slice(snap.Edges, func(a, b int) bool {
		if snap.Edges[a].From != snap.Edges[b].From {
			return snap.Edges[a].From < snap.Edges[b].From
		}
		return snap.Edges[a].To < snap.Edges[b].To
	})
	return snap
}

func clonePattern(p Pattern) Pattern {
	out := Pattern{MinLen: p.MinLen, Regions: make([]Region, len(p.Regions))}
	for i, r := range p.Regions {
		out.Regions[i] = Region{Offset: r.Offset, Bytes: append([]byte(nil), r.Bytes...)}
	}
	return out
}

// RestoreFSM rebuilds a classification-only FSM from a snapshot. The
// result classifies exactly like the original's matured model; feeding it
// to Learn would start fresh bins, which sensors never do.
func RestoreFSM(snap FSMSnapshot) (*FSM, error) {
	f := NewFSM(snap.Port, 0)
	// Recreate the state set. State 0 is the root (created by NewFSM).
	statesByID := map[int]*state{0: f.root}
	need := func(id int) *state {
		if s, ok := statesByID[id]; ok {
			return s
		}
		s := &state{id: id}
		statesByID[id] = s
		return s
	}
	for _, e := range snap.Edges {
		if e.From < 0 || e.To < 0 || e.From == e.To {
			return nil, fmt.Errorf("scriptgen: invalid edge %d->%d in snapshot", e.From, e.To)
		}
		from, to := need(e.From), need(e.To)
		from.edges = append(from.edges, &edge{pattern: clonePattern(e.Pattern), target: to})
	}
	if snap.States < len(statesByID) {
		return nil, fmt.Errorf("scriptgen: snapshot declares %d states but references %d", snap.States, len(statesByID))
	}
	f.states = snap.States
	return f, nil
}

// Snapshot exports every port model.
func (s *Set) Snapshot(version int) SetSnapshot {
	snap := SetSnapshot{Version: version}
	for _, port := range s.Ports() {
		snap.FSMs = append(snap.FSMs, s.perPort[port].Snapshot())
	}
	return snap
}

// RestoreSet rebuilds a classification-only Set from a snapshot.
func RestoreSet(snap SetSnapshot) (*Set, error) {
	out := NewSet(0)
	for _, fs := range snap.FSMs {
		f, err := RestoreFSM(fs)
		if err != nil {
			return nil, err
		}
		out.perPort[fs.Port] = f
	}
	return out, nil
}
