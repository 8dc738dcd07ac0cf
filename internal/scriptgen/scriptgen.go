// Package scriptgen implements ScriptGen-style FSM protocol learning.
//
// SGNET sensors model protocol conversations as Finite State Machines
// learned from traffic: messages observed at the same protocol state are
// grouped, their invariant byte regions are extracted (region analysis),
// and the resulting patterns become FSM edges the sensors can then handle
// autonomously. Conversations that do not match any learned edge are
// proxied to a sample-factory oracle until enough exemplars accumulate to
// generalize a new edge.
//
// The ε classification feature of the paper — the "FSM path identifier" —
// is the path a conversation traverses in the learned FSM. Because
// implementation-specific constants (usernames, NetBIOS identifiers, …)
// are invariant across the attacks of one codebase, they survive region
// analysis and become part of the learned path, which is why FSM paths
// separate exploit implementations and not just protocols.
package scriptgen

import (
	"fmt"
	"sort"
)

// Learning parameters.
const (
	// DefaultMatureAfter is the number of exemplars a candidate bin needs
	// before it is generalized into an FSM edge.
	DefaultMatureAfter = 3
	// minPrefixAgreement is the minimum length of the common prefix two
	// messages must share to be considered instances of the same protocol
	// word during bin assignment. Protocol framing and implementation
	// constants concentrate at the start of requests, so prefix agreement
	// is the discriminator (a simplification of full region analysis).
	minPrefixAgreement = 25
	// minRunLen is the minimum length of an invariant byte run for it to
	// become a fixed region of a generalized pattern; shorter agreements
	// are treated as coincidence.
	minRunLen = 4
)

// Region is a fixed byte run at a known offset within a message pattern.
type Region struct {
	Offset int
	Bytes  []byte
}

// Pattern is a generalized message: a set of fixed regions; all other
// bytes are wildcards.
type Pattern struct {
	Regions []Region
	// MinLen records the length of the shortest exemplar seen during
	// generalization. It is informational: matching is driven purely by
	// the fixed regions, because trailing payload bytes legitimately vary
	// in length between attacks.
	MinLen int
}

// Matches reports whether msg satisfies every fixed region of the pattern.
func (p Pattern) Matches(msg []byte) bool {
	for _, reg := range p.Regions {
		end := reg.Offset + len(reg.Bytes)
		if end > len(msg) {
			return false
		}
		if !byteEqual(msg[reg.Offset:end], reg.Bytes) {
			return false
		}
	}
	return true
}

func byteEqual(a, b []byte) bool {
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

// generalize runs region analysis over exemplars: positions at which all
// exemplars agree, in runs of at least minRunLen, become fixed regions.
func generalize(exemplars [][]byte) Pattern {
	minLen := len(exemplars[0])
	for _, e := range exemplars[1:] {
		if len(e) < minLen {
			minLen = len(e)
		}
	}
	p := Pattern{MinLen: minLen}
	runStart := -1
	flush := func(end int) {
		if runStart >= 0 && end-runStart >= minRunLen {
			p.Regions = append(p.Regions, Region{
				Offset: runStart,
				Bytes:  append([]byte(nil), exemplars[0][runStart:end]...),
			})
		}
		runStart = -1
	}
	for i := 0; i < minLen; i++ {
		agree := true
		for _, e := range exemplars[1:] {
			if e[i] != exemplars[0][i] {
				agree = false
				break
			}
		}
		if agree {
			if runStart < 0 {
				runStart = i
			}
		} else {
			flush(i)
		}
	}
	flush(minLen)
	return p
}

func commonPrefixLen(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// state is one FSM node.
type state struct {
	id    int
	edges []*edge
	bins  []*bin
}

// edge is a matured, generalized transition.
type edge struct {
	pattern Pattern
	target  *state
}

// bin is a candidate transition still collecting exemplars.
type bin struct {
	exemplars [][]byte
	target    *state
}

// FSM is the learned model for one destination port.
type FSM struct {
	Port        int
	root        *state
	states      int
	matureAfter int
}

// NewFSM creates an empty FSM for the given port. matureAfter <= 0 selects
// DefaultMatureAfter.
func NewFSM(port, matureAfter int) *FSM {
	if matureAfter <= 0 {
		matureAfter = DefaultMatureAfter
	}
	f := &FSM{Port: port, matureAfter: matureAfter}
	f.root = f.newState()
	return f
}

func (f *FSM) newState() *state {
	s := &state{id: f.states}
	f.states++
	return s
}

// LearnResult summarizes how one conversation was handled.
type LearnResult struct {
	// Proxied reports that at least one message could not be handled by a
	// matured edge and required the sample-factory oracle.
	Proxied bool
	// NewEdges is the number of edges that matured during this learning
	// step.
	NewEdges int
}

// Learn feeds one conversation (client messages in order) into the model,
// updating bins and maturing edges as exemplar counts allow.
func (f *FSM) Learn(msgs [][]byte) LearnResult {
	var res LearnResult
	cur := f.root
	for _, msg := range msgs {
		if e := findEdge(cur.edges, msg); e != nil {
			cur = e.target
			continue
		}
		res.Proxied = true
		b := f.findBin(cur, msg)
		b.exemplars = append(b.exemplars, append([]byte(nil), msg...))
		next := b.target
		if len(b.exemplars) >= f.matureAfter {
			cur.edges = append(cur.edges, &edge{pattern: generalize(b.exemplars), target: b.target})
			cur.bins = removeBin(cur.bins, b)
			res.NewEdges++
		}
		cur = next
	}
	return res
}

func findEdge(edges []*edge, msg []byte) *edge {
	for _, e := range edges {
		if e.pattern.Matches(msg) {
			return e
		}
	}
	return nil
}

func (f *FSM) findBin(s *state, msg []byte) *bin {
	for _, b := range s.bins {
		if commonPrefixLen(b.exemplars[0], msg) >= minPrefixAgreement {
			return b
		}
	}
	b := &bin{target: f.newState()}
	s.bins = append(s.bins, b)
	return b
}

func removeBin(bins []*bin, target *bin) []*bin {
	for i, b := range bins {
		if b == target {
			return append(bins[:i], bins[i+1:]...)
		}
	}
	return bins
}

// Classify walks the matured edges of the model. It returns the FSM path
// identifier of the conversation and ok=true when every message matched a
// matured edge.
func (f *FSM) Classify(msgs [][]byte) (string, bool) {
	cur := f.root
	for _, msg := range msgs {
		e := findEdge(cur.edges, msg)
		if e == nil {
			return "", false
		}
		cur = e.target
	}
	return fmt.Sprintf("%d:s%d", f.Port, cur.id), true
}

// States reports the number of FSM states.
func (f *FSM) States() int { return f.states }

// Edges reports the number of matured edges.
func (f *FSM) Edges() int {
	n := 0
	var walk func(*state)
	seen := map[int]bool{}
	walk = func(s *state) {
		if seen[s.id] {
			return
		}
		seen[s.id] = true
		n += len(s.edges)
		for _, e := range s.edges {
			walk(e.target)
		}
	}
	walk(f.root)
	return n
}

// Set is the per-port collection of FSMs a deployment shares through its
// gateway.
type Set struct {
	perPort     map[int]*FSM
	matureAfter int
}

// NewSet creates an empty FSM set. matureAfter <= 0 selects
// DefaultMatureAfter for every port model.
func NewSet(matureAfter int) *Set {
	return &Set{perPort: make(map[int]*FSM), matureAfter: matureAfter}
}

// Learn feeds a conversation on the given port.
func (s *Set) Learn(port int, msgs [][]byte) LearnResult {
	f, ok := s.perPort[port]
	if !ok {
		f = NewFSM(port, s.matureAfter)
		s.perPort[port] = f
	}
	return f.Learn(msgs)
}

// Classify returns the FSM path identifier for a conversation, or
// ok=false when the conversation does not fully match the learned model.
func (s *Set) Classify(port int, msgs [][]byte) (string, bool) {
	f, ok := s.perPort[port]
	if !ok {
		return "", false
	}
	return f.Classify(msgs)
}

// Ports returns the ports with learned models, sorted.
func (s *Set) Ports() []int {
	out := make([]int, 0, len(s.perPort))
	for p := range s.perPort {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}
