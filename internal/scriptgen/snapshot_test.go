package scriptgen

import (
	"encoding/json"
	"testing"

	"repro/internal/exploit"
	"repro/internal/simrng"
)

// pendingBins reports the number of immature candidate bins of f.
func pendingBins(f *FSM) int {
	n := 0
	var walk func(*state)
	walk = func(s *state) {
		n += len(s.bins)
		for _, e := range s.edges {
			walk(e.target)
		}
		for _, b := range s.bins {
			walk(b.target)
		}
	}
	walk(f.root)
	return n
}

// edgeCount reports the number of matured edges across all ports of s.
func edgeCount(s *Set) int {
	n := 0
	for _, f := range s.perPort {
		n += f.Edges()
	}
	return n
}

// learnSet builds a Set with two matured implementations on one port and
// one on another.
func learnSet(t *testing.T) (*Set, []*exploit.Implementation) {
	t.Helper()
	implA := testImpl(t, "asn1", 445, 1, 2, "impl-a")
	implB := testImpl(t, "asn1", 445, 1, 3, "impl-b")
	implC := testImpl(t, "dcom", 135, 4, 5, "impl-c")
	r := simrng.New(20).Stream("snap")
	s := NewSet(3)
	for i := 0; i < 5; i++ {
		s.Learn(445, implA.Dialog(r, randPayload(r, 40+i)).ClientMessages())
		s.Learn(445, implB.Dialog(r, randPayload(r, 50+i)).ClientMessages())
		s.Learn(135, implC.Dialog(r, randPayload(r, 60+i)).ClientMessages())
	}
	return s, []*exploit.Implementation{implA, implB, implC}
}

func TestSnapshotRestoreClassifiesIdentically(t *testing.T) {
	s, impls := learnSet(t)
	snap := s.Snapshot(7)
	if snap.Version != 7 {
		t.Errorf("version = %d", snap.Version)
	}
	restored, err := RestoreSet(snap)
	if err != nil {
		t.Fatal(err)
	}
	r := simrng.New(21).Stream("probe")
	ports := []int{445, 445, 135}
	for i, impl := range impls {
		d := impl.Dialog(r, randPayload(r, 33+i)).ClientMessages()
		want, okWant := s.Classify(ports[i], d)
		got, okGot := restored.Classify(ports[i], d)
		if okWant != okGot || want != got {
			t.Errorf("impl %d: original %q/%v, restored %q/%v", i, want, okWant, got, okGot)
		}
		if !okGot {
			t.Errorf("impl %d not classified after restore", i)
		}
	}
}

func TestSnapshotExcludesBins(t *testing.T) {
	s, _ := learnSet(t)
	// One extra observation that does not mature.
	implD := testImpl(t, "asn1", 445, 1, 99, "impl-d")
	r := simrng.New(22).Stream("bins")
	s.Learn(445, implD.Dialog(r, nil).ClientMessages())

	restored, err := RestoreSet(s.Snapshot(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := pendingBins(restored.perPort[445]); got != 0 {
		t.Errorf("restored FSM has %d bins, want 0", got)
	}
	if _, ok := restored.Classify(445, implD.Dialog(r, nil).ClientMessages()); ok {
		t.Error("immature activity must stay unclassifiable after restore")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	s, impls := learnSet(t)
	snap := s.Snapshot(3)
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back SetSnapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSet(back)
	if err != nil {
		t.Fatal(err)
	}
	r := simrng.New(23).Stream("json")
	d := impls[0].Dialog(r, randPayload(r, 42)).ClientMessages()
	want, _ := s.Classify(445, d)
	got, ok := restored.Classify(445, d)
	if !ok || got != want {
		t.Errorf("after JSON round trip: %q/%v want %q", got, ok, want)
	}
}

func TestRestoreRejectsBadSnapshots(t *testing.T) {
	bad := FSMSnapshot{Port: 445, States: 1, Edges: []EdgeSnapshot{{From: 0, To: 0}}}
	if _, err := RestoreFSM(bad); err == nil {
		t.Error("self-loop edge must be rejected")
	}
	bad = FSMSnapshot{Port: 445, States: 1, Edges: []EdgeSnapshot{{From: 0, To: 5}}}
	if _, err := RestoreFSM(bad); err == nil {
		t.Error("state count mismatch must be rejected")
	}
	bad = FSMSnapshot{Port: 445, States: 2, Edges: []EdgeSnapshot{{From: -1, To: 1}}}
	if _, err := RestoreFSM(bad); err == nil {
		t.Error("negative state must be rejected")
	}
}

func TestEdgeCount(t *testing.T) {
	s, _ := learnSet(t)
	// 3 implementations x 3 stages... impl-c has 3 stages on its own port.
	if got := edgeCount(s); got < 6 {
		t.Errorf("EdgeCount = %d, want >= 6", got)
	}
	restored, err := RestoreSet(s.Snapshot(1))
	if err != nil {
		t.Fatal(err)
	}
	if edgeCount(restored) != edgeCount(s) {
		t.Errorf("edge counts differ: %d vs %d", edgeCount(restored), edgeCount(s))
	}
}
