package enrich

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/malgen"
	"repro/internal/sgnet"
	"repro/internal/simrng"
)

// buildScenario simulates a small landscape once per test.
func buildScenario(t *testing.T, seed uint64) (*malgen.Landscape, *dataset.Dataset, *Pipeline, *Result) {
	t.Helper()
	rng := simrng.New(seed)
	l, err := malgen.Generate(malgen.SmallConfig(), rng.Child("landscape"))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := sgnet.Simulate(l, sgnet.DefaultConfig(), rng.Child("sgnet"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(l, DefaultConfig(), rng.Child("enrich"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Enrich(sim.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	return l, sim.Dataset, p, res
}

func TestNewValidation(t *testing.T) {
	rng := simrng.New(1)
	if _, err := New(nil, DefaultConfig(), rng); err == nil {
		t.Error("nil landscape must error")
	}
	l, err := malgen.Generate(malgen.SmallConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.BCluster.Threshold = 0
	if _, err := New(l, bad, rng); err == nil {
		t.Error("invalid bcluster config must error")
	}
}

func TestEnrichLabelsAndProfiles(t *testing.T) {
	_, ds, _, res := buildScenario(t, 1)

	executable, labeled, profiled := 0, 0, 0
	for _, s := range ds.Samples() {
		if s.AVLabel != "" {
			labeled++
		}
		if s.Executable {
			executable++
			if len(s.Profile) > 0 {
				profiled++
			}
		} else if len(s.Profile) != 0 {
			t.Errorf("non-executable sample %s has a profile", s.MD5)
		}
	}
	if executable == 0 {
		t.Fatal("no executable samples")
	}
	if profiled != executable {
		t.Errorf("profiled %d of %d executable samples", profiled, executable)
	}
	if labeled < ds.SampleCount()/2 {
		t.Errorf("only %d of %d samples labeled", labeled, ds.SampleCount())
	}
	if res.Executed != executable {
		t.Errorf("Executed = %d, want %d", res.Executed, executable)
	}
	if res.BClusters == nil || len(res.BClusters.Clusters) == 0 {
		t.Fatal("no B-clusters")
	}
}

func TestWormLabelsAreRahack(t *testing.T) {
	l, ds, _, _ := buildScenario(t, 2)
	worm := l.Families[0]
	rahack, other := 0, 0
	for _, s := range ds.Samples() {
		if s.TruthFamily != worm.Name || s.AVLabel == "" {
			continue
		}
		if strings.HasPrefix(s.AVLabel, "W32.Rahack") {
			rahack++
		} else {
			other++
		}
	}
	if rahack == 0 {
		t.Fatal("no Rahack labels for worm samples")
	}
	if other > rahack/2 {
		t.Errorf("too much label noise: %d Rahack vs %d other", rahack, other)
	}
}

func TestWormBehaviorCollapsesToFewClusters(t *testing.T) {
	l, ds, _, res := buildScenario(t, 3)
	worm := l.Families[0]

	// Count distinct B-clusters holding non-degraded worm samples. Degraded
	// runs produce singletons by design; the bulk must land in at most two
	// clusters (the two behaviour generations).
	clusterCounts := map[int]int{}
	for _, s := range ds.Samples() {
		if s.TruthFamily != worm.Name || !s.Executable {
			continue
		}
		if c := res.BClusters.ClusterOf(s.MD5); c >= 0 {
			clusterCounts[c]++
		}
	}
	big := 0
	bigMembers := 0
	total := 0
	for _, n := range clusterCounts {
		total += n
		if n >= 5 {
			big++
			bigMembers += n
		}
	}
	if big == 0 || big > 2 {
		t.Errorf("worm samples form %d big B-clusters, want 1-2 (counts: %d clusters)", big, len(clusterCounts))
	}
	if float64(bigMembers) < 0.5*float64(total) {
		t.Errorf("only %d of %d worm samples in big clusters", bigMembers, total)
	}
}

func TestDegradedRunsBecomeSingletons(t *testing.T) {
	_, _, _, res := buildScenario(t, 4)
	if res.Degraded == 0 {
		t.Fatal("no degraded executions; fragility model inactive")
	}
	singles := len(res.BClusters.Singletons())
	if singles == 0 {
		t.Fatal("no singleton B-clusters despite degraded runs")
	}
	// Most B-clusters should be singletons, as in the paper (860 of 972).
	if frac := float64(singles) / float64(len(res.BClusters.Clusters)); frac < 0.4 {
		t.Errorf("singleton fraction = %.2f; expected singletons to dominate", frac)
	}
}

func TestReexecuteHealsDegradedProfiles(t *testing.T) {
	l, ds, p, res := buildScenario(t, 5)
	worm := l.Families[0]

	healedCount, tried := 0, 0
	for _, c := range res.BClusters.Singletons() {
		md5 := c.Members[0]
		s := ds.Sample(md5)
		if s.TruthFamily != worm.Name {
			continue
		}
		tried++
		profile, healed, err := p.Reexecute(ds, md5, 5)
		if err != nil {
			t.Fatal(err)
		}
		if healed {
			healedCount++
			// A healed worm profile must contain the family's stable
			// behaviour.
			if !profile.Has("scan|tcp/445") {
				t.Errorf("healed profile of %s missing worm scan feature: %v", md5, profile.Features())
			}
		}
		if len(s.Profile) == 0 {
			t.Error("Reexecute must update the stored profile")
		}
	}
	if tried == 0 {
		t.Skip("no worm singletons in this seed")
	}
	// Fragility ~0.17: five attempts heal with probability ~1-0.17^5.
	if healedCount == 0 {
		t.Error("re-execution healed nothing")
	}
}

func TestReexecuteErrors(t *testing.T) {
	_, ds, p, _ := buildScenario(t, 6)
	if _, _, err := p.Reexecute(ds, "no-such-md5", 3); err == nil {
		t.Error("unknown sample must error")
	}
	for _, s := range ds.Samples() {
		if !s.Executable {
			if _, _, err := p.Reexecute(ds, s.MD5, 3); err == nil {
				t.Error("non-executable sample must error")
			}
			break
		}
	}
}

func TestEnrichParallelMatchesSerial(t *testing.T) {
	build := func(workers int) (*dataset.Dataset, *Result) {
		rng := simrng.New(11)
		l, err := malgen.Generate(malgen.SmallConfig(), rng.Child("landscape"))
		if err != nil {
			t.Fatal(err)
		}
		sim, err := sgnet.Simulate(l, sgnet.DefaultConfig(), rng.Child("sgnet"))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Workers = workers
		p, err := New(l, cfg, rng.Child("enrich"))
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Enrich(sim.Dataset)
		if err != nil {
			t.Fatal(err)
		}
		return sim.Dataset, res
	}
	dsSerial, resSerial := build(1)
	dsParallel, resParallel := build(8)

	if len(resSerial.BClusters.Clusters) != len(resParallel.BClusters.Clusters) {
		t.Fatalf("B-cluster counts differ: %d vs %d",
			len(resSerial.BClusters.Clusters), len(resParallel.BClusters.Clusters))
	}
	if resSerial.Degraded != resParallel.Degraded {
		t.Fatalf("degraded counts differ: %d vs %d", resSerial.Degraded, resParallel.Degraded)
	}
	ss, sp := dsSerial.Samples(), dsParallel.Samples()
	for i := range ss {
		if len(ss[i].Profile) != len(sp[i].Profile) {
			t.Fatalf("sample %s profile differs between serial and parallel enrichment", ss[i].MD5)
		}
		for j := range ss[i].Profile {
			if ss[i].Profile[j] != sp[i].Profile[j] {
				t.Fatalf("sample %s profile feature %d differs", ss[i].MD5, j)
			}
		}
	}
}

func TestEnrichDeterminism(t *testing.T) {
	_, ds1, _, res1 := buildScenario(t, 7)
	_, ds2, _, res2 := buildScenario(t, 7)
	if len(res1.BClusters.Clusters) != len(res2.BClusters.Clusters) {
		t.Fatalf("B-cluster counts differ: %d vs %d", len(res1.BClusters.Clusters), len(res2.BClusters.Clusters))
	}
	s1, s2 := ds1.Samples(), ds2.Samples()
	for i := range s1 {
		if s1[i].AVLabel != s2[i].AVLabel {
			t.Fatalf("AV label differs for %s", s1[i].MD5)
		}
		if len(s1[i].Profile) != len(s2[i].Profile) {
			t.Fatalf("profile differs for %s", s1[i].MD5)
		}
	}
}
