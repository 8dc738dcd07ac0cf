package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/malgen"
)

// runSmall caches one small pipeline run across subtests.
func runSmall(t *testing.T) *Results {
	t.Helper()
	res, err := Run(SmallScenario())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunSmallScenario(t *testing.T) {
	res := runSmall(t)
	events, samples, executable, e, p, m, b := res.Counts()

	if events == 0 || samples == 0 {
		t.Fatalf("empty run: %d events, %d samples", events, samples)
	}
	if executable >= samples {
		t.Errorf("executable (%d) must be < samples (%d) under failure injection", executable, samples)
	}
	if e == 0 || p == 0 || m == 0 || b == 0 {
		t.Fatalf("missing clusterings: E=%d P=%d M=%d B=%d", e, p, m, b)
	}
	// The structural shape of §4.1: few E and P clusters, many more M
	// clusters; B dominated by singletons.
	if m <= e || m <= p {
		t.Errorf("M-clusters (%d) must exceed E (%d) and P (%d)", m, e, p)
	}
	singles := len(res.B.Singletons())
	if float64(singles) < 0.4*float64(b) {
		t.Errorf("singleton B-clusters = %d of %d; artifact population missing", singles, b)
	}
}

func TestRunInvalidScenario(t *testing.T) {
	s := SmallScenario()
	s.Landscape.WormVariants = 0
	if _, err := Run(s); err == nil {
		t.Error("invalid landscape config must fail")
	}
	s = SmallScenario()
	s.Deployment.Locations = 0
	if _, err := Run(s); err == nil {
		t.Error("invalid deployment config must fail")
	}
	s = SmallScenario()
	s.Enrichment.BCluster.Threshold = 1.5 // outside (0,1]
	if _, err := Run(s); err == nil {
		t.Error("invalid enrichment config must fail")
	}
	s = SmallScenario()
	s.Thresholds.MinInstances = 0
	if _, err := Run(s); err == nil {
		t.Error("invalid thresholds must fail")
	}
}

func TestRunDeterminism(t *testing.T) {
	a, err := Run(SmallScenario())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(SmallScenario())
	if err != nil {
		t.Fatal(err)
	}
	eventsA, _, _, _, _, _, _ := a.Counts()
	eventsB, _, _, _, _, _, _ := b.Counts()
	if eventsA != eventsB {
		t.Fatalf("event counts differ: %d vs %d", eventsA, eventsB)
	}
	if len(a.M.Clusters) != len(b.M.Clusters) || len(a.B.Clusters) != len(b.B.Clusters) {
		t.Error("cluster counts differ across identical scenarios")
	}
}

func TestEndToEndPaperPhenomena(t *testing.T) {
	res := runSmall(t)

	// 1. The worm's per-source sibling shares E and P clusters with it
	// (code sharing visible in the propagation vector).
	worm := res.Landscape.Families[0]
	var wormE, wormP, psE, psP = -1, -1, -1, -1
	for _, e := range res.Dataset.Events() {
		switch e.TruthFamily {
		case worm.Name:
			if wormE < 0 {
				wormE = res.E.ClusterOf(e.ID)
				wormP = res.P.ClusterOf(e.ID)
			}
		case malgen.PerSourceFamilyName:
			if psE < 0 {
				psE = res.E.ClusterOf(e.ID)
				psP = res.P.ClusterOf(e.ID)
			}
		}
	}
	if wormE < 0 || psE < 0 {
		t.Fatal("missing worm or per-source events")
	}
	if wormE != psE {
		t.Errorf("worm E-cluster %d != per-source E-cluster %d; propagation vector must be shared", wormE, psE)
	}
	if wormP != psP {
		t.Errorf("worm P-cluster %d != per-source P-cluster %d", wormP, psP)
	}

	// 2. The per-source M-cluster pattern has everything invariant except
	// the MD5 (the §4.2 M-cluster 13 listing).
	var psSample string
	for _, s := range res.Dataset.Samples() {
		if s.TruthFamily == malgen.PerSourceFamilyName && s.Executable {
			psSample = s.MD5
			break
		}
	}
	if psSample == "" {
		t.Fatal("no per-source sample")
	}
	mIdx := res.CrossMap.SampleM[psSample]
	pattern := res.M.Clusters[mIdx].Pattern
	if pattern.Values[0] != "*" {
		t.Errorf("per-source MD5 feature = %q, want wildcard", pattern.Values[0])
	}
	wildcards := 0
	for _, v := range pattern.Values {
		if v == "*" {
			wildcards++
		}
	}
	if wildcards != 1 {
		t.Errorf("per-source pattern has %d wildcards, want only the MD5: %v", wildcards, pattern.Values)
	}
	if pattern.Values[7] != "92" {
		t.Errorf("linker version = %q, want 92", pattern.Values[7])
	}

	// 3. The per-source M-cluster splits into multiple B-clusters
	// (environment-dependent behaviour).
	if got := len(res.CrossMap.MtoB[mIdx]); got < 2 {
		t.Errorf("per-source M-cluster maps to %d B-clusters, want >= 2", got)
	}

	// 4. Size-1 anomaly detection fires and is dominated by the worm.
	rep, err := analysis.FindSize1Anomalies(res.Dataset, res.E, res.P, res.B, res.CrossMap)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Anomalous) == 0 {
		t.Error("no size-1 anomalies detected")
	}
	top := analysis.TopCounts(rep.AVNames, 1)
	if len(top) == 0 || !strings.HasPrefix(top[0].K, "W32.Rahack") {
		t.Errorf("anomaly AV dominance = %+v", top)
	}

	// 5. IRC correlation recovers at least one multi-M-cluster channel or
	// shared subnet (Table 2 structure).
	rows, err := analysis.IRCCorrelation(res.Dataset, res.CrossMap)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no IRC correlation rows")
	}
}

// TestNewPipelineMatchesPrepare pins the daemon's start-up path: the
// pipeline NewPipeline builds without simulating the deployment labels
// and executes every simulated sample exactly as Prepare's pipeline does.
// Prepare's pipeline shares its landscape with the simulation, so this
// fails if simulating leaves behind any change the pipeline reads.
func TestNewPipelineMatchesPrepare(t *testing.T) {
	s := SmallScenario()
	_, sim, want, err := Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := NewPipeline(s)
	if err != nil {
		t.Fatal(err)
	}
	executed := 0
	for _, smp := range sim.Dataset.Samples() {
		a, b := *smp, *smp
		if err := want.LabelSample(&a); err != nil {
			t.Fatal(err)
		}
		if err := got.LabelSample(&b); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("sample %s: labels %q %v, want %q %v", smp.MD5, b.AVLabel, b.AVLabels, a.AVLabel, a.AVLabels)
		}
		if !smp.Executable {
			continue
		}
		pa, da, err := want.ExecuteSample(smp)
		if err != nil {
			t.Fatal(err)
		}
		pb, db, err := got.ExecuteSample(smp)
		if err != nil {
			t.Fatal(err)
		}
		if da != db || !reflect.DeepEqual(pa.Features(), pb.Features()) {
			t.Fatalf("sample %s: execution differs (degraded %v vs %v)", smp.MD5, db, da)
		}
		executed++
	}
	if executed == 0 {
		t.Fatal("scenario has no executable samples; the test compares nothing")
	}
}
