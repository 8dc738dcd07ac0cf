package bcluster

import (
	"fmt"
	"reflect"
	"testing"
)

// defenseCfg is the config of the synthetic defense tests: a 0.45
// threshold lets their small hand-built profiles link at the Jaccard
// levels the tests use.
func defenseCfg() Config {
	cfg := DefaultConfig()
	cfg.Threshold = 0.45
	return cfg
}

func addAll(t *testing.T, inc *Incremental, inputs ...Input) {
	t.Helper()
	for _, in := range inputs {
		if err := inc.Add(in); err != nil {
			t.Fatal(err)
		}
	}
}

// clones returns n identical inputs id-0..id-(n-1) over the same features.
func clones(id string, n int, feats ...string) []Input {
	var out []Input
	for i := 0; i < n; i++ {
		out = append(out, Input{ID: fmt.Sprintf("%s-%d", id, i), Profile: mkProfile(feats...)})
	}
	return out
}

func TestDefenseZeroKnobsInert(t *testing.T) {
	inc, err := NewIncremental(defenseCfg())
	if err != nil {
		t.Fatal(err)
	}
	if inc.def != nil {
		t.Fatal("zero-knob clusterer allocated defense state")
	}
	addAll(t, inc, Input{ID: "a", Profile: mkProfile("x", "y")})
	inc.Verify()
	if st := inc.DefenseStats(); st != (DefenseStats{}) {
		t.Errorf("zero-knob DefenseStats = %+v", st)
	}
	if ev := inc.TakeDefenseEvents(); ev != nil {
		t.Errorf("zero-knob events = %v", ev)
	}
	if s, ok := inc.SampleStatus("a"); !ok || s != StatusClustered {
		t.Errorf("SampleStatus = %v, %v", s, ok)
	}
	if _, ok := inc.SampleStatus("missing"); ok {
		t.Error("unknown ID reported ok")
	}
	// A snapshot of an undefended clusterer must not carry defense fields.
	for _, in := range snapshot(inc).Inputs {
		if in.Status != StatusClustered || in.HoldPair != nil || in.Group != "" || in.Distrust != 0 {
			t.Errorf("undefended snapshot input carries defense fields: %+v", in)
		}
	}
}

func TestMergeResistanceHoldsBridge(t *testing.T) {
	cfg := defenseCfg()
	cfg.MergeResistance = 3
	inc, err := NewIncremental(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addAll(t, inc, clones("a", 3, "a1", "a2", "a3")...)
	addAll(t, inc, clones("b", 3, "b1", "b2", "b3")...)
	inc.Verify()

	// J(bridge, core) = 3/6 = 0.5 against both established cores.
	bridge := []string{"a1", "a2", "a3", "b1", "b2", "b3"}
	addAll(t, inc, Input{ID: "x-0", Profile: mkProfile(bridge...)})
	inc.Verify()

	if s, _ := inc.SampleStatus("x-0"); s != StatusHeld {
		t.Fatalf("bridge status = %v, want held", s)
	}
	res := inc.Result()
	if len(res.Clusters) != 3 {
		t.Fatalf("clusters = %d, want 3 (two cores + held singleton)", len(res.Clusters))
	}
	if res.ClusterOf("a-0") == res.ClusterOf("b-0") {
		t.Fatal("held bridge merged the cores anyway")
	}
	ev := inc.TakeDefenseEvents()
	if len(ev) != 1 || ev[0].ID != "x-0" || ev[0].Status != StatusHeld {
		t.Fatalf("events = %+v", ev)
	}
	if inc.TakeDefenseEvents() != nil {
		t.Fatal("TakeDefenseEvents did not drain")
	}

	// A byte-identical copy of the bridge is the same bridge: it must not
	// corroborate the merge, only pile into quarantine with the first.
	addAll(t, inc, Input{ID: "x-1", Profile: mkProfile(bridge...)})
	inc.Verify()
	if s, _ := inc.SampleStatus("x-1"); s != StatusHeld {
		t.Fatalf("copied bridge status = %v, want held", s)
	}
	st := inc.DefenseStats()
	if st.Held != 2 || st.HeldTotal != 2 || st.Released != 0 {
		t.Fatalf("stats = %+v", st)
	}

	// Drain: both quarantined samples become permanent singletons.
	if n := inc.DrainHeld(); n != 2 {
		t.Fatalf("DrainHeld = %d, want 2", n)
	}
	st = inc.DefenseStats()
	if st.Held != 0 || st.Drained != 2 {
		t.Fatalf("post-drain stats = %+v", st)
	}
	for _, id := range []string{"x-0", "x-1"} {
		if s, _ := inc.SampleStatus(id); s != StatusDrained {
			t.Errorf("%s status = %v, want drained", id, s)
		}
	}
	// Drained samples stay out of link formation: a new core member must
	// join its core without picking up the drained bridges.
	addAll(t, inc, Input{ID: "a-3", Profile: mkProfile("a1", "a2", "a3")})
	inc.Verify()
	res = inc.Result()
	if res.ClusterOf("a-3") != res.ClusterOf("a-0") {
		t.Fatal("new member did not rejoin its core after drain")
	}
	if res.ClusterOf("a-3") == res.ClusterOf("x-0") {
		t.Fatal("drained bridge re-entered link formation")
	}
}

func TestMergeResistanceCorroboration(t *testing.T) {
	cfg := defenseCfg()
	cfg.Threshold = 0.3
	cfg.MergeResistance = 3
	inc, err := NewIncremental(cfg)
	if err != nil {
		t.Fatal(err)
	}
	aFeats := []string{"a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9"}
	bFeats := []string{"b1", "b2", "b3", "b4", "b5", "b6", "b7", "b8", "b9"}
	addAll(t, inc, clones("a", 3, aFeats...)...)
	addAll(t, inc, clones("b", 3, bFeats...)...)
	inc.Verify()

	// Bridge over one half of each core: J(x, core) = 5/14 ≈ 0.357.
	addAll(t, inc, Input{ID: "x", Profile: mkProfile("a1", "a2", "a3", "a4", "a5", "b1", "b2", "b3", "b4", "b5")})
	inc.Verify()
	if s, _ := inc.SampleStatus("x"); s != StatusHeld {
		t.Fatalf("bridge status = %v, want held", s)
	}

	// An independent witness attests the same pair through the other
	// halves: J(w, core) = 5/14 but J(w, x) = 2/18 ≈ 0.11 < threshold.
	// One dissimilar witness corroborates the merge, and the release scan
	// then frees the original hold into the merged component.
	addAll(t, inc, Input{ID: "w", Profile: mkProfile("a5", "a6", "a7", "a8", "a9", "b5", "b6", "b7", "b8", "b9")})
	inc.Verify()
	res := inc.Result()
	if len(res.Clusters) != 1 {
		t.Fatalf("clusters = %d, want 1 merged cluster: %+v", len(res.Clusters), res.Clusters)
	}
	for _, id := range []string{"x", "w"} {
		if s, _ := inc.SampleStatus(id); s != StatusClustered {
			t.Errorf("%s status = %v, want clustered", id, s)
		}
	}
	st := inc.DefenseStats()
	if st.Held != 0 || st.HeldTotal != 1 || st.Released != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTrustPenaltyRaisesThreshold(t *testing.T) {
	cfg := defenseCfg()
	cfg.TrustPenalty = 0.5
	inc, err := NewIncremental(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addAll(t, inc,
		Input{ID: "v0", Profile: mkProfile("a1", "a2", "a3")},
		Input{ID: "v1", Profile: mkProfile("a1", "a2", "a3", "a4")}, // J=0.75 at effT=0.45: links
		Input{ID: "t0", Profile: mkProfile("a1", "a2", "a3")},       // J=1.0 at effT=0.9: links
		Input{ID: "t1", Profile: mkProfile("a1", "a2", "a3", "a5")}, // J=0.75 at effT=0.9: rejected
	)
	inc.inputs[2].Distrust = 0.9
	inc.inputs[3].Distrust = 0.9
	inc.Verify()
	res := inc.Result()
	if res.ClusterOf("v1") != res.ClusterOf("v0") {
		t.Error("trusted pair at J=0.75 must link at base threshold")
	}
	if res.ClusterOf("t0") != res.ClusterOf("v0") {
		t.Error("identical profiles must link even at maximum penalty")
	}
	if res.ClusterOf("t1") == res.ClusterOf("v0") {
		t.Error("distrusted pair at J=0.75 linked below the effective threshold")
	}
}

func TestEffThresholdSymmetricAndCapped(t *testing.T) {
	cfg := defenseCfg()
	cfg.TrustPenalty = 0.8
	if got, want := cfg.effThreshold(0.2, 0.6), cfg.Threshold+0.8*0.6; got != want {
		t.Errorf("effThreshold = %v, want %v", got, want)
	}
	if got := cfg.effThreshold(0.6, 0.2); got != cfg.effThreshold(0.2, 0.6) {
		t.Error("effThreshold is not symmetric")
	}
	if got := cfg.effThreshold(1, 1); got != 1 {
		t.Errorf("effThreshold not capped: %v", got)
	}
	cfg.TrustPenalty = 0
	if got := cfg.effThreshold(1, 1); got != cfg.Threshold {
		t.Errorf("zero penalty must reduce to base threshold, got %v", got)
	}
}

func TestAnomalyGateParksCrossGroupLinks(t *testing.T) {
	cfg := defenseCfg()
	cfg.GroupQuorum = 2
	inc, err := NewIncremental(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Victim group: three identical samples. Attacker group "mal":
	// two mutually dissimilar seeds establish the quorum.
	for i, in := range clones("v", 3, "a1", "a2", "a3") {
		in.Group = "victims"
		addAll(t, inc, in)
		_ = i
	}
	addAll(t, inc,
		Input{ID: "m0", Profile: mkProfile("m1", "m2", "m3"), Group: "mal"},
		Input{ID: "m1", Profile: mkProfile("n1", "n2", "n3"), Group: "mal"},
	)
	inc.Verify()

	// The dilution sample links only victims while its own group has
	// integrated quorum members it does not link: parked.
	addAll(t, inc, Input{ID: "d0", Profile: mkProfile("a1", "a2", "a3", "j1"), Group: "mal"})
	inc.Verify()
	if s, _ := inc.SampleStatus("d0"); s != StatusParked {
		t.Fatalf("dilution status = %v, want parked", s)
	}
	res := inc.Result()
	if res.ClusterOf("d0") == res.ClusterOf("v-0") {
		t.Fatal("parked sample joined the victim cluster")
	}
	st := inc.DefenseStats()
	if st.Parked != 1 || st.ParkedTotal != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// A same-group link defuses the gate: a sample similar to both the
	// victims and a fellow group member is consistent evidence.
	addAll(t, inc, Input{ID: "g0", Profile: mkProfile("a1", "a2", "a3"), Group: "victims"})
	inc.Verify()
	if s, _ := inc.SampleStatus("g0"); s != StatusClustered {
		t.Fatalf("same-group sample status = %v, want clustered", s)
	}
	// Ungrouped samples pass the gate regardless of what they link.
	addAll(t, inc, Input{ID: "u0", Profile: mkProfile("a1", "a2", "a3", "j2")})
	inc.Verify()
	if s, _ := inc.SampleStatus("u0"); s != StatusClustered {
		t.Fatalf("ungrouped sample status = %v, want clustered", s)
	}
}

func TestDefendedStateRestore(t *testing.T) {
	cfg := defenseCfg()
	cfg.MergeResistance = 3
	cfg.GroupQuorum = 2
	cfg.TrustPenalty = 0.5
	inc, err := NewIncremental(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addAll(t, inc, clones("a", 3, "a1", "a2", "a3")...)
	addAll(t, inc, clones("b", 3, "b1", "b2", "b3")...)
	addAll(t, inc,
		Input{ID: "m0", Profile: mkProfile("m1", "m2", "m3"), Group: "mal"},
		Input{ID: "m1", Profile: mkProfile("n1", "n2", "n3"), Group: "mal"},
	)
	inc.Verify()
	addAll(t, inc,
		Input{ID: "x", Profile: mkProfile("a1", "a2", "a3", "b1", "b2", "b3")},   // held
		Input{ID: "d", Profile: mkProfile("a1", "a2", "a3", "j1"), Group: "mal"}, // parked
	)
	inc.Verify()
	addAll(t, inc, Input{ID: "late", Profile: mkProfile("b1", "b2", "b3")}) // still parked pre-Verify

	st := snapshot(inc)
	got, err := RestoreIncremental(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snapshot(got), st) {
		t.Fatalf("restored state differs:\n got %+v\nwant %+v", snapshot(got), st)
	}
	want := inc.Result()
	res := got.Result()
	if !reflect.DeepEqual(res.Clusters, want.Clusters) {
		t.Fatalf("restored partition differs:\n got %+v\nwant %+v", res.Clusters, want.Clusters)
	}
	for _, id := range []string{"x", "d", "a-0", "m0"} {
		ws, _ := inc.SampleStatus(id)
		gs, _ := got.SampleStatus(id)
		if ws != gs {
			t.Errorf("%s: restored status %v, want %v", id, gs, ws)
		}
	}
	// The restored instance keeps enforcing: verifying the parked suffix
	// and a fresh bridge behaves as on the original.
	for _, c := range []*Incremental{inc, got} {
		addAll(t, c, Input{ID: "x2", Profile: mkProfile("a1", "a2", "a3", "b1", "b2", "b4")})
		c.Verify()
	}
	ws, _ := inc.SampleStatus("x2")
	gs, _ := got.SampleStatus("x2")
	if ws != gs {
		t.Fatalf("post-restore divergence on x2: %v vs %v", gs, ws)
	}
	if !reflect.DeepEqual(got.Result().Clusters, inc.Result().Clusters) {
		t.Fatal("post-restore partitions diverged")
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		StatusClustered: "clustered",
		StatusParked:    "parked",
		StatusHeld:      "held",
		StatusDrained:   "drained",
		Status(9):       "unknown",
	} {
		if got := s.String(); got != want {
			t.Errorf("Status(%d).String() = %q, want %q", s, got, want)
		}
	}
}
