// Benchmarks regenerating every table and figure of the paper's
// evaluation section, plus the ablation benches called out in DESIGN.md.
//
// The table/figure benches measure the cost of regenerating the artifact
// from an already-simulated dataset (the analysis is what the paper's
// pipeline re-runs); BenchmarkBigPicture measures the full pipeline.
// Custom metrics report the headline quantities so `go test -bench` output
// doubles as a summary of the reproduction.
package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/bcluster"
	"repro/internal/benchdata"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/epm"
	"repro/internal/julisch"
	"repro/internal/pe"
	"repro/internal/polymorph"
	"repro/internal/validity"
)

var (
	pipelineOnce sync.Once
	pipelineRes  *core.Results
	pipelineErr  error
)

// pipeline runs the small scenario once and shares it across benches.
func pipeline(b *testing.B) *core.Results {
	b.Helper()
	pipelineOnce.Do(func() {
		pipelineRes, pipelineErr = core.Run(core.SmallScenario())
	})
	if pipelineErr != nil {
		b.Fatal(pipelineErr)
	}
	return pipelineRes
}

// BenchmarkBigPicture regenerates the §4.1 headline counts: the complete
// pipeline from landscape generation to all four clusterings.
func BenchmarkBigPicture(b *testing.B) {
	skipPaperScale(b)
	b.ReportAllocs()
	var res *core.Results
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.Run(core.SmallScenario())
		if err != nil {
			b.Fatal(err)
		}
	}
	events, samples, executable, e, p, m, bc := res.Counts()
	b.ReportMetric(float64(events), "events")
	b.ReportMetric(float64(samples), "samples")
	b.ReportMetric(float64(executable), "executable")
	b.ReportMetric(float64(e), "E-clusters")
	b.ReportMetric(float64(p), "P-clusters")
	b.ReportMetric(float64(m), "M-clusters")
	b.ReportMetric(float64(bc), "B-clusters")
}

// skipPaperScale keeps the heavy pipeline benchmarks out of short mode,
// where the race-detector CI step (go test -race -short -bench .) would
// otherwise multiply their cost by the instrumentation overhead.
func skipPaperScale(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("paper-scale benchmark; skipped under -short (race CI)")
	}
}

// BenchmarkPipelineParallelism measures the end-to-end pipeline at
// pinned worker counts. Every level reports the same headline counts
// (the run is deterministic under the seed); only the wall clock moves.
func BenchmarkPipelineParallelism(b *testing.B) {
	skipPaperScale(b)
	for _, par := range []int{1, 2, 4, 0} {
		par := par
		name := fmt.Sprintf("parallelism-%d", par)
		if par == 0 {
			name = "parallelism-max"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var res *core.Results
			for i := 0; i < b.N; i++ {
				s := core.SmallScenario()
				s.Parallelism = par
				var err error
				res, err = core.Run(s)
				if err != nil {
					b.Fatal(err)
				}
			}
			_, _, _, e, p, m, bc := res.Counts()
			b.ReportMetric(float64(e+p+m+bc), "clusters")
		})
	}
}

// BenchmarkTable1Invariants regenerates Table 1: invariant discovery and
// classification over all three EPM dimensions.
func BenchmarkTable1Invariants(b *testing.B) {
	res := pipeline(b)
	th := epm.DefaultThresholds()
	eps := res.Dataset.EpsilonInstances()
	pis := res.Dataset.PiInstances()
	mus := res.Dataset.MuInstances()
	b.ReportAllocs()
	b.ResetTimer()
	var total int
	for i := 0; i < b.N; i++ {
		e, err := epm.Run(dataset.EpsilonSchema, eps, th)
		if err != nil {
			b.Fatal(err)
		}
		p, err := epm.Run(dataset.PiSchema, pis, th)
		if err != nil {
			b.Fatal(err)
		}
		m, err := epm.Run(dataset.MuSchema, mus, th)
		if err != nil {
			b.Fatal(err)
		}
		total = e.TotalInvariants() + p.TotalInvariants() + m.TotalInvariants()
	}
	b.ReportMetric(float64(total), "invariants")
}

// BenchmarkFigure3Relationships regenerates the E→P→M→B relationship
// graph with the paper's >=30-event filter.
func BenchmarkFigure3Relationships(b *testing.B) {
	res := pipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	var g *analysis.RelationGraph
	for i := 0; i < b.N; i++ {
		var err error
		g, err = analysis.BuildRelationGraph(res.Dataset, res.E, res.P, res.M, res.B, res.CrossMap, 30)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(g.MNodes)), "M-nodes")
	b.ReportMetric(float64(analysis.EdgeCount(g.MB)), "MB-edges")
}

// BenchmarkFigure4Size1 regenerates the size-1 B-cluster anomaly report.
func BenchmarkFigure4Size1(b *testing.B) {
	res := pipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	var rep *analysis.Size1Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = analysis.FindSize1Anomalies(res.Dataset, res.E, res.P, res.B, res.CrossMap)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.Size1B), "size-1")
	b.ReportMetric(float64(len(rep.Anomalous)), "anomalous")
}

// BenchmarkFigure5Context regenerates the propagation-context view of the
// largest multi-M B-cluster.
func BenchmarkFigure5Context(b *testing.B) {
	res := pipeline(b)
	multi := res.CrossMap.MultiMBClusters(res.B)
	if len(multi) == 0 {
		b.Skip("no multi-M B-cluster")
	}
	b.ReportAllocs()
	b.ResetTimer()
	var rep *analysis.ContextReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = analysis.PropagationContext(res.Dataset, res.M, res.B, res.CrossMap, multi[0])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rep.PerM)), "M-contexts")
}

// BenchmarkTable2IRC regenerates the IRC C&C correlation.
func BenchmarkTable2IRC(b *testing.B) {
	res := pipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	var rows []analysis.IRCRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = analysis.IRCCorrelation(res.Dataset, res.CrossMap)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rows)), "channels")
}

// BenchmarkRunVsExact is the scalability ablation behind the B-clustering
// design (Bayer et al. NDSS'09): Run's prefix-index candidate generation
// vs the naive O(n²) comparison, at increasing corpus sizes. The corpora come from
// internal/benchdata so cmd/benchjson measures the identical workload;
// `make bench-json` serializes this trajectory to BENCH_bcluster.json.
//
// Benchmark state is reset per iteration inside bcluster (profiles cache
// their FeatureSet, so the first iteration pays the interning cost and
// later ones measure the clustering hot path, matching the pipeline,
// which also builds each profile's set exactly once).
func BenchmarkRunVsExact(b *testing.B) {
	skipPaperScale(b)
	cfg := bcluster.DefaultConfig()
	for _, n := range benchdata.RunSizes {
		inputs := benchdata.Profiles(n)
		b.Run(fmt.Sprintf("run-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var stats bcluster.Stats
			for i := 0; i < b.N; i++ {
				res, err := bcluster.Run(inputs, cfg)
				if err != nil {
					b.Fatal(err)
				}
				stats = res.Stats
			}
			b.ReportMetric(float64(stats.CandidatePairs), "pairs")
			b.ReportMetric(float64(stats.Links), "links")
		})
	}
	for _, n := range benchdata.ExactSizes {
		inputs := benchdata.Profiles(n)
		b.Run(fmt.Sprintf("exact-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var stats bcluster.Stats
			for i := 0; i < b.N; i++ {
				res, err := bcluster.RunExact(inputs, cfg)
				if err != nil {
					b.Fatal(err)
				}
				stats = res.Stats
			}
			b.ReportMetric(float64(stats.CandidatePairs), "pairs")
			b.ReportMetric(float64(stats.Links), "links")
		})
	}
}

// BenchmarkInvariantThresholds measures the sensitivity of invariant
// discovery to the (instances, attackers, sensors) thresholds the paper
// fixes at (10, 3, 3).
func BenchmarkInvariantThresholds(b *testing.B) {
	res := pipeline(b)
	mus := res.Dataset.MuInstances()
	for _, th := range []epm.Thresholds{
		{MinInstances: 3, MinAttackers: 2, MinSensors: 2},
		{MinInstances: 10, MinAttackers: 3, MinSensors: 3},
		{MinInstances: 30, MinAttackers: 5, MinSensors: 5},
	} {
		th := th
		b.Run(fmt.Sprintf("i%d-a%d-s%d", th.MinInstances, th.MinAttackers, th.MinSensors), func(b *testing.B) {
			b.ReportAllocs()
			var m *epm.Clustering
			for i := 0; i < b.N; i++ {
				var err error
				m, err = epm.Run(dataset.MuSchema, mus, th)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(m.TotalInvariants()), "invariants")
			b.ReportMetric(float64(len(m.Clusters)), "clusters")
		})
	}
}

// BenchmarkMostSpecificMatch measures pattern classification throughput
// against the discovered M patterns.
func BenchmarkMostSpecificMatch(b *testing.B) {
	res := pipeline(b)
	mus := res.Dataset.MuInstances()
	if len(mus) == 0 {
		b.Skip("no mu instances")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := res.M.Classify(mus[i%len(mus)].Values); !ok {
			b.Fatal("classification failed")
		}
	}
}

// BenchmarkPolymorphResilience measures, per engine class, the fraction of
// mutated instances whose static features still match the family pattern
// — the property that makes EPM work against current engines.
func BenchmarkPolymorphResilience(b *testing.B) {
	template := &pe.Image{
		Machine:     pe.MachineI386,
		Subsystem:   pe.SubsystemGUI,
		LinkerMajor: 9, LinkerMinor: 2,
		OSMajor: 6, OSMinor: 4,
		Sections: []pe.Section{
			{Name: ".text", Data: make([]byte, 40960), Characteristics: pe.SectionCode | pe.SectionExecute | pe.SectionRead},
			{Name: ".data", Data: make([]byte, 8192), Characteristics: pe.SectionInitializedData | pe.SectionRead | pe.SectionWrite},
		},
		Imports: []pe.Import{{DLL: "KERNEL32.dll", Symbols: []string{"GetProcAddress", "LoadLibraryA"}}},
	}
	baseRaw, err := template.Build()
	if err != nil {
		b.Fatal(err)
	}
	base := pe.ExtractFeatures(baseRaw)

	for _, engine := range []polymorph.Engine{polymorph.None{}, polymorph.Allaple{Seed: 1}, polymorph.PerSource{Seed: 1}} {
		engine := engine
		b.Run(engine.Name(), func(b *testing.B) {
			b.ReportAllocs()
			matches := 0
			for i := 0; i < b.N; i++ {
				raw, err := engine.Mutate(template, polymorph.Context{Source: 10, Instance: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				ft := pe.ExtractFeatures(raw)
				if ft.Size == base.Size && ft.SectionNames == base.SectionNames &&
					ft.LinkerVersion == base.LinkerVersion && ft.Kernel32Symbols == base.Kernel32Symbols {
					matches++
				}
			}
			b.ReportMetric(float64(matches)/float64(b.N), "pattern-match-rate")
		})
	}
}

// BenchmarkEPMvsJulisch compares EPM against full attribute-oriented
// induction (Julisch, TISSEC'03) — the technique EPM simplifies — on the
// μ dimension, reporting cluster counts and agreement with ground truth.
func BenchmarkEPMvsJulisch(b *testing.B) {
	res := pipeline(b)
	mus := res.Dataset.MuInstances()

	// Ground truth per event: the variant that shipped the sample.
	truth := make(map[string]string)
	for _, e := range res.Dataset.Events() {
		if e.HasSample() {
			truth[e.ID] = e.TruthVariant
		}
	}

	// Julisch attributes mirror the μ schema, with a numeric hierarchy on
	// the file size and flat hierarchies elsewhere.
	sizes := make([]string, 0, len(mus))
	for _, in := range mus {
		sizes = append(sizes, in.Values[1])
	}
	attrs := make([]julisch.Attribute, len(dataset.MuSchema.Features))
	for i, name := range dataset.MuSchema.Features {
		attrs[i] = julisch.Attribute{Name: name}
	}
	attrs[1].Hierarchy = julisch.SizeBuckets(sizes, 1024)
	jin := make([]julisch.Instance, len(mus))
	for i, in := range mus {
		jin[i] = julisch.Instance{ID: in.ID, Values: in.Values}
	}

	score := func(labels map[string]string) float64 {
		rep, err := validity.Compare(validity.GroupByLabel(labels), truth)
		if err != nil {
			b.Fatal(err)
		}
		return rep.F
	}

	b.Run("epm", func(b *testing.B) {
		b.ReportAllocs()
		var m *epm.Clustering
		for i := 0; i < b.N; i++ {
			var err error
			m, err = epm.Run(dataset.MuSchema, mus, epm.DefaultThresholds())
			if err != nil {
				b.Fatal(err)
			}
		}
		labels := make(map[string]string, len(mus))
		for _, in := range mus {
			labels[in.ID] = fmt.Sprintf("M%d", m.ClusterOf(in.ID))
		}
		b.ReportMetric(float64(len(m.Clusters)), "clusters")
		b.ReportMetric(score(labels), "F-vs-truth")
	})
	b.Run("julisch", func(b *testing.B) {
		b.ReportAllocs()
		var jr *julisch.Result
		for i := 0; i < b.N; i++ {
			var err error
			jr, err = julisch.Run(attrs, jin, 10)
			if err != nil {
				b.Fatal(err)
			}
		}
		labels := make(map[string]string, len(jin))
		for _, in := range jin {
			labels[in.ID] = fmt.Sprintf("J%d", jr.ClusterOf(in.ID))
		}
		b.ReportMetric(float64(len(jr.Clusters)), "clusters")
		b.ReportMetric(float64(jr.Generalizations), "generalizations")
		b.ReportMetric(score(labels), "F-vs-truth")
	})
}

// BenchmarkPeHashBaseline measures the peHash baseline (Wicherski,
// LEET'09 — the paper's related-work comparator) over a polymorphic
// corpus and reports its agreement with ground truth, next to EPM's.
func BenchmarkPeHashBaseline(b *testing.B) {
	res := pipeline(b)

	// Regenerate one instance per executable sample is unnecessary: the
	// dataset already stores the observed peHash per sample.
	truth := make(map[string]string)
	hashLabels := make(map[string]string)
	for _, s := range res.Dataset.Samples() {
		truth[s.MD5] = s.TruthVariant
		if s.PEHash != "" {
			hashLabels[s.MD5] = s.PEHash
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var rep validity.Report
	for i := 0; i < b.N; i++ {
		groups := validity.GroupByLabel(hashLabels)
		var err error
		rep, err = validity.Compare(groups, truth)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.F, "pehash-F")
	b.ReportMetric(rep.AdjustedRand, "pehash-ARI")
}

// BenchmarkClusterValidity scores the EPM M-clustering against ground
// truth, the evaluation the paper could not run on real data.
func BenchmarkClusterValidity(b *testing.B) {
	res := pipeline(b)
	truth := make(map[string]string)
	for _, s := range res.Dataset.Samples() {
		truth[s.MD5] = s.TruthVariant
	}
	mLabels := make(map[string]string, len(res.CrossMap.SampleM))
	for md5, m := range res.CrossMap.SampleM {
		mLabels[md5] = fmt.Sprintf("M%d", m)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var rep validity.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = validity.Compare(validity.GroupByLabel(mLabels), truth)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.F, "epm-F")
	b.ReportMetric(rep.AdjustedRand, "epm-ARI")
}

// BenchmarkReexecutionHealing measures the §4.2 healing procedure:
// re-running anomalous samples until a stable profile appears.
func BenchmarkReexecutionHealing(b *testing.B) {
	res := pipeline(b)
	rep, err := analysis.FindSize1Anomalies(res.Dataset, res.E, res.P, res.B, res.CrossMap)
	if err != nil {
		b.Fatal(err)
	}
	if len(rep.Anomalous) == 0 {
		b.Skip("no anomalies")
	}
	b.ReportAllocs()
	b.ResetTimer()
	healed := 0
	for i := 0; i < b.N; i++ {
		a := rep.Anomalous[i%len(rep.Anomalous)]
		if _, ok, err := res.Pipeline.Reexecute(res.Dataset, a.MD5, 5); err == nil && ok {
			healed++
		}
	}
	b.ReportMetric(float64(healed)/float64(b.N), "healed-rate")
}
