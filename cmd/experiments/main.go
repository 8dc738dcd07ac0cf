// Command experiments regenerates every table and figure of the paper and
// prints the paper-reported value next to the measured one. Its output is
// the source of EXPERIMENTS.md.
//
// Usage:
//
//	experiments [-seed N] [-small] [-scenario file.json] [-parallelism N] [-run all|counts|diag|table1|figure3|figure4|mcluster13|figure5|table2|validity|avlabels|temporal|population|coverage|distributed]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/avsim"
	"repro/internal/core"
	"repro/internal/epm"
	"repro/internal/malgen"
	"repro/internal/netmodel"
	"repro/internal/report"
	"repro/internal/sgnet"
	"repro/internal/sgnetd"
	"repro/internal/simrng"
	"repro/internal/validity"
)

// selectors are the valid -run values, in presentation order.
var selectors = []string{
	"all", "counts", "diag", "table1", "figure3", "figure4", "mcluster13",
	"figure5", "table2", "validity", "avlabels", "temporal", "population",
	"coverage", "distributed",
}

func validSelector(sel string) bool {
	for _, s := range selectors {
		if s == sel {
			return true
		}
	}
	return false
}

func main() {
	seed := flag.Uint64("seed", 2010, "scenario seed")
	small := flag.Bool("small", false, "use the reduced scenario (fast, not paper-scale)")
	scenarioPath := flag.String("scenario", "", "scenario JSON file (overrides -small)")
	parallelism := flag.Int("parallelism", 0, "worker bound for every pipeline stage (0 = GOMAXPROCS)")
	runSel := flag.String("run", "all", "experiment to run: "+strings.Join(selectors, "|"))
	flag.Parse()

	if err := run(*seed, *small, *scenarioPath, *runSel, *parallelism); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(seed uint64, small bool, scenarioPath, sel string, parallelism int) error {
	if !validSelector(sel) {
		return fmt.Errorf("unknown -run selector %q; valid selectors: %s", sel, strings.Join(selectors, "|"))
	}
	scenario, name := core.DefaultScenario(), "default"
	if small {
		scenario, name = core.SmallScenario(), "small"
	}
	if scenarioPath != "" {
		loaded, err := core.LoadScenarioFile(scenarioPath)
		if err != nil {
			return err
		}
		scenario, name = loaded, scenarioPath
	}
	scenario.Seed = seed
	scenario.Parallelism = parallelism

	fmt.Printf("# Experiments (seed=%d, scenario=%s)\n\n", seed, name)
	// The extensions build their own landscapes and read no pipeline
	// result.
	switch sel {
	case "coverage":
		return coverage(scenario)
	case "distributed":
		return distributed(scenario)
	}
	res, err := core.Run(scenario)
	if err != nil {
		return err
	}

	want := func(name string) bool { return sel == "all" || sel == name }

	if want("counts") {
		if err := counts(res); err != nil {
			return err
		}
	}
	if sel == "diag" {
		diag(res)
	}
	if want("table1") {
		table1(res)
	}
	if want("figure3") {
		if err := figure3(res); err != nil {
			return err
		}
	}
	if want("figure4") {
		if err := figure4(res); err != nil {
			return err
		}
	}
	if want("mcluster13") {
		if err := mcluster13(res); err != nil {
			return err
		}
	}
	if want("figure5") {
		if err := figure5(res); err != nil {
			return err
		}
	}
	if want("table2") {
		if err := table2(res); err != nil {
			return err
		}
	}
	if want("validity") {
		if err := validityReport(res); err != nil {
			return err
		}
	}
	if want("avlabels") {
		avLabelReport(res)
	}
	if want("temporal") {
		if err := temporal(res); err != nil {
			return err
		}
	}
	if want("population") {
		if err := population(res); err != nil {
			return err
		}
	}
	return nil
}

// distributed re-runs the small scenario with the ε pipeline routed
// through a real TCP gateway + sensors (package sgnetd) and checks that
// the resulting FSM path assignments are identical to the monolithic run.
func distributed(base core.Scenario) error {
	s := base
	s.Landscape = malgen.SmallConfig()

	landscape := func() (*malgen.Landscape, error) {
		return malgen.Generate(s.Landscape, simrng.New(s.Seed).Child("landscape"))
	}
	l1, err := landscape()
	if err != nil {
		return err
	}
	mono, err := sgnet.Simulate(l1, s.Deployment, simrng.New(s.Seed).Child("sgnet"))
	if err != nil {
		return err
	}

	g := sgnetd.NewGateway(s.Deployment.MatureAfter)
	addr, err := g.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer func() {
		_ = g.Close()
		g.Wait()
	}()
	obs, err := sgnetd.NewDeploymentObserver(addr.String(), 5)
	if err != nil {
		return err
	}
	defer obs.Close()
	l2, err := landscape()
	if err != nil {
		return err
	}
	dist, err := sgnet.SimulateWith(l2, s.Deployment, simrng.New(s.Seed).Child("sgnet"), obs)
	if err != nil {
		return err
	}

	fmt.Println("## Distributed deployment equivalence (extension, small landscape)")
	me, de := mono.Dataset.Events(), dist.Dataset.Events()
	if len(me) != len(de) {
		return fmt.Errorf("event counts differ: %d vs %d", len(me), len(de))
	}
	mismatches := 0
	for i := range me {
		if me[i].FSMPath != de[i].FSMPath {
			mismatches++
		}
	}
	st := obs.Stats()
	fmt.Printf("events: %d   FSM-path mismatches vs monolithic: %d\n", len(me), mismatches)
	fmt.Printf("sensors handled %d conversations locally, proxied %d to the gateway oracle\n", st.Local, st.Proxied)
	fmt.Printf("gateway: %d oracle consultations, %d snapshots pushed, knowledge version %d\n",
		g.Stats().Observes, g.Stats().SnapshotsSent, g.Version())
	fmt.Println()
	return nil
}

// population prints capture-recapture population estimates next to ground
// truth: the deployment's small coverage hides true population sizes, but
// two-occasion capture-recapture over the study halves recovers them.
func population(res *core.Results) error {
	ests, err := analysis.EstimatePopulations(res.Dataset, res.M, 25)
	if err != nil {
		return err
	}
	// Ground truth per M-cluster: the union of the populations of every
	// variant whose samples fell into the cluster. Clusters mixing more
	// than three variants (e.g. the corrupted-sample catch-all) have no
	// meaningful single population and are skipped.
	variantsOf := map[int]map[string]bool{}
	for _, smp := range res.Dataset.Samples() {
		if m, ok := res.CrossMap.SampleM[smp.MD5]; ok {
			if variantsOf[m] == nil {
				variantsOf[m] = map[string]bool{}
			}
			variantsOf[m][smp.TruthVariant] = true
		}
	}
	truthPop := map[int]int{}
	for m, variants := range variantsOf {
		if len(variants) > 3 {
			continue
		}
		hosts := map[netmodel.IP]bool{}
		for name := range variants {
			v := res.Landscape.Variant(name)
			if v == nil {
				continue
			}
			for _, h := range v.Population.Hosts {
				hosts[h] = true
			}
		}
		if len(hosts) > 0 {
			truthPop[m] = len(hosts)
		}
	}
	fmt.Println("## Capture-recapture population estimation (extension)")
	fmt.Printf("%-10s %8s %10s %10s %12s %8s\n", "M-cluster", "events", "observed", "estimate", "true pop", "ratio")
	shown := 0
	for _, e := range ests {
		truth, ok := truthPop[e.MCluster]
		if !ok || !e.Usable() || e.Recaptured < 5 {
			continue
		}
		fmt.Printf("M%-9d %8d %10d %10.0f %12d %8.2f\n",
			e.MCluster, e.Events, e.Observed, e.Estimate, truth, e.Estimate/float64(truth))
		shown++
		if shown >= 15 {
			break
		}
	}
	fmt.Println()
	return nil
}

// coverage re-runs the small scenario at three deployment sizes and shows
// how observation coverage shapes the discovered clusters — the paper's
// remark that small coverage makes small populations nearly invisible.
func coverage(base core.Scenario) error {
	fmt.Println("## Deployment coverage ablation (extension, small landscape)")
	fmt.Printf("%-22s %8s %8s %6s %6s %6s\n", "deployment", "events", "samples", "E", "P", "M")
	for _, size := range []struct{ locations, sensors int }{
		{10, 2}, {30, 5}, {60, 10},
	} {
		s := base
		s.Landscape = malgen.SmallConfig()
		s.Deployment.Locations = size.locations
		s.Deployment.SensorsPerLocation = size.sensors
		res, err := core.Run(s)
		if err != nil {
			return err
		}
		events, samples, _, e, p, m, _ := res.Counts()
		fmt.Printf("%3d locs x %2d sensors  %8d %8d %6d %6d %6d\n",
			size.locations, size.sensors, events, samples, e, p, m)
	}
	fmt.Println("(the hit volume scales with monitored addresses; sub-threshold activity")
	fmt.Println(" becomes invariant — and clusterable — only at sufficient coverage)")
	fmt.Println()
	return nil
}

// temporal prints the cluster-evolution view: the churn of M-clusters
// over ~monthly periods and the long-lived worm background.
func temporal(res *core.Results) error {
	rep, err := analysis.Temporal(res.Dataset, res.M, 4)
	if err != nil {
		return err
	}
	fmt.Println("## Cluster evolution over the study period (extension)")
	fmt.Print(report.Temporal(rep, 10))
	fmt.Println()
	return nil
}

// avLabelReport quantifies cross-vendor AV label (in)consistency over the
// M-clusters — the known limitation of AV labels for classification the
// paper cites ([3], [7]) when justifying clustering over labels.
func avLabelReport(res *core.Results) {
	labels := make(map[string]map[string]string)
	for _, s := range res.Dataset.Samples() {
		if len(s.AVLabels) > 0 {
			labels[s.MD5] = s.AVLabels
		}
	}
	groups := make(map[int][]string)
	for md5, m := range res.CrossMap.SampleM {
		groups[m] = append(groups[m], md5)
	}
	clusters := make([][]string, 0, len(groups))
	for _, members := range groups {
		clusters = append(clusters, members)
	}
	rep := avsim.Consistency(labels, clusters)
	fmt.Println("## AV label consistency across vendors (per M-cluster)")
	fmt.Printf("samples labeled: %d   detection rate: %.3f   mean per-cluster label dominance: %.3f\n",
		rep.Samples, rep.DetectionRate, rep.MeanDominance)
	for _, vendor := range avsim.SortedVendors(rep.PerVendorFamilies) {
		fmt.Printf("  %-10s uses %d distinct family names\n", vendor, rep.PerVendorFamilies[vendor])
	}
	fmt.Println("vendors disagree on names (Rahack vs Allaple) yet are internally consistent,")
	fmt.Println("matching the limitations of AV labels the paper cites ([3], [7]).")
	fmt.Println()
}

// validityReport scores every clustering against the simulation's ground
// truth — an evaluation the paper could not run on real data — and
// compares the peHash baseline against EPM.
func validityReport(res *core.Results) error {
	variantTruth := make(map[string]string)
	behaviorTruth := make(map[string]string)
	for _, s := range res.Dataset.Samples() {
		variantTruth[s.MD5] = s.TruthVariant
		if v := res.Landscape.Variant(s.TruthVariant); v != nil {
			behaviorTruth[s.MD5] = v.Program.Name
		}
	}

	mLabels := make(map[string]string, len(res.CrossMap.SampleM))
	for md5, m := range res.CrossMap.SampleM {
		mLabels[md5] = fmt.Sprintf("M%d", m)
	}
	mGroups := validity.GroupByLabel(mLabels)

	var bGroups [][]string
	for _, c := range res.B.Clusters {
		bGroups = append(bGroups, c.Members)
	}

	hashLabels := make(map[string]string)
	for _, s := range res.Dataset.Samples() {
		if s.PEHash != "" {
			hashLabels[s.MD5] = s.PEHash
		}
	}
	hashGroups := validity.GroupByLabel(hashLabels)

	fmt.Println("## Clustering validity vs ground truth (not possible on the paper's real data)")
	score := func(name string, groups [][]string, truth map[string]string) error {
		rep, err := validity.Compare(groups, truth)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("%-36s %s\n", name, rep)
		return nil
	}
	if err := score("EPM M-clusters vs true variants", mGroups, variantTruth); err != nil {
		return err
	}
	if err := score("B-clusters vs true behaviours", bGroups, behaviorTruth); err != nil {
		return err
	}
	if err := score("peHash baseline vs true variants", hashGroups, variantTruth); err != nil {
		return err
	}
	if err := score("peHash vs EPM M-clusters", hashGroups, mLabels); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

// diag prints ground-truth breakdowns used during calibration.
func diag(res *core.Results) {
	famClass := map[string]string{}
	for _, f := range res.Landscape.Families {
		famClass[f.Name] = fmt.Sprint(f.Class)
	}
	events := map[string]int{}
	for _, e := range res.Dataset.Events() {
		events[famClass[e.TruthFamily]]++
	}
	samples := map[string]int{}
	exec := map[string]int{}
	for _, s := range res.Dataset.Samples() {
		c := famClass[s.TruthFamily]
		samples[c]++
		if s.Executable {
			exec[c]++
		}
	}
	singles := map[string]int{}
	multiB := map[string]map[int]bool{}
	for _, c := range res.B.Clusters {
		cls := famClass[res.Dataset.Sample(c.Members[0]).TruthFamily]
		if c.Size() == 1 {
			singles[cls]++
		} else {
			if multiB[cls] == nil {
				multiB[cls] = map[int]bool{}
			}
			multiB[cls][c.ID] = true
		}
	}
	mByClass := map[string]map[int]bool{}
	for md5, m := range res.CrossMap.SampleM {
		cls := famClass[res.Dataset.Sample(md5).TruthFamily]
		if mByClass[cls] == nil {
			mByClass[cls] = map[int]bool{}
		}
		mByClass[cls][m] = true
	}
	fmt.Println("## Diagnostics (ground-truth breakdown)")
	fmt.Printf("%-10s %8s %8s %8s %8s %8s %8s\n", "class", "events", "samples", "exec", "B-single", "B-multi", "M")
	for _, c := range []string{"worm", "bot", "dropper", "rare"} {
		fmt.Printf("%-10s %8d %8d %8d %8d %8d %8d\n",
			c, events[c], samples[c], exec[c], singles[c], len(multiB[c]), len(mByClass[c]))
	}
}

func counts(res *core.Results) error {
	events, samples, executable, e, p, m, b := res.Counts()
	fmt.Println("## Section 4.1 headline counts (paper vs measured)")
	fmt.Printf("%-34s %10s %10s\n", "metric", "paper", "measured")
	row := func(name string, paper string, measured int) {
		fmt.Printf("%-34s %10s %10d\n", name, paper, measured)
	}
	row("attack events", "n/a", events)
	row("malware samples", "6353", samples)
	row("executable samples", "5165", executable)
	row("E-clusters", "39", e)
	row("P-clusters", "27", p)
	row("M-clusters", "260", m)
	row("B-clusters", "972", b)
	singles := len(res.B.Singletons())
	row("size-1 B-clusters", "860", singles)
	fmt.Println()
	return nil
}

func table1(res *core.Results) {
	fmt.Println("## Table 1 (invariant counts; paper values in brackets)")
	paper := map[string]int{
		"FSM path identifier":                        50,
		"Destination port":                           3,
		"Download protocol":                          6,
		"Filename in protocol interaction":           22,
		"Port involved in protocol interaction":      4,
		"Interaction type":                           5,
		"File MD5":                                   57,
		"File size in bytes":                         95,
		"File type according to libmagic signatures": 7,
		"(PE) Machine type":                          1,
		"(PE) Number of sections":                    8,
		"(PE) Number of imported DLLs":               7,
		"(PE) OS version":                            1,
		"(PE) Linker version":                        7,
		"(PE) Names of the sections":                 43,
		"(PE) Imported DLLs":                         11,
		"(PE) Referenced Kernel32.dll symbols":       15,
	}
	for _, c := range []*epm.Clustering{res.E, res.P, res.M} {
		for _, st := range c.Stats {
			fmt.Printf("%-6s %-46s measured=%-5d paper=[%d]\n",
				c.Schema.Dimension, st.Feature, st.Invariants, paper[st.Feature])
		}
	}
	fmt.Println()
}

func figure3(res *core.Results) error {
	g, err := analysis.BuildRelationGraph(res.Dataset, res.E, res.P, res.M, res.B, res.CrossMap, 30)
	if err != nil {
		return err
	}
	fmt.Println("## Figure 3 (relationship graph, clusters with >= 30 events)")
	fmt.Print(report.Figure3(g))
	fmt.Println("paper observations checked:")
	fmt.Printf("  few E/P combinations vs M-clusters: E-P edges=%d, M nodes=%d\n",
		analysis.EdgeCount(g.EP), len(g.MNodes))
	maxFan := 0
	for _, n := range analysis.FanIn(g.EP) {
		if n > maxFan {
			maxFan = n
		}
	}
	fmt.Printf("  one payload shared by multiple exploits: max E->P fan-in=%d\n", maxFan)
	fmt.Printf("  filtered B-clusters (%d) <= filtered M-clusters (%d): %v\n",
		len(g.BNodes), len(g.MNodes), len(g.BNodes) <= len(g.MNodes))
	fmt.Println()
	return nil
}

func figure4(res *core.Results) error {
	rep, err := analysis.FindSize1Anomalies(res.Dataset, res.E, res.P, res.B, res.CrossMap)
	if err != nil {
		return err
	}
	fmt.Println("## Figure 4 / Section 4.2 (size-1 B-cluster anomalies)")
	fmt.Print(report.Figure4(rep))
	fmt.Printf("paper: 860 of 972 B-clusters are size-1; measured: %d of %d\n\n", rep.Size1B, rep.TotalB)
	return nil
}

func mcluster13(res *core.Results) error {
	// Locate the per-source polymorphic M-cluster: a multi-sample cluster
	// whose pattern wildcard is exactly the MD5 field.
	idx := -1
	for _, c := range res.M.Clusters {
		if c.Size() < 10 {
			continue
		}
		wild := 0
		for _, v := range c.Pattern.Values {
			if v == epm.Wildcard {
				wild++
			}
		}
		if wild == 1 && c.Pattern.Values[0] == epm.Wildcard && c.Pattern.Values[7] == "92" {
			idx = c.ID
			break
		}
	}
	fmt.Println("## Section 4.2 (per-source polymorphic cluster, paper's M-cluster 13)")
	if idx < 0 {
		fmt.Println("not found in this scenario")
		return nil
	}
	fmt.Print(report.MClusterPattern(res.M, idx))
	fmt.Printf("associated B-clusters: %d (paper: several, due to iliketay.cn availability)\n", len(res.CrossMap.MtoB[idx]))

	// Healing: re-execute the singleton members.
	healed, tried := 0, 0
	for b := range res.CrossMap.MtoB[idx] {
		if res.B.Clusters[b].Size() != 1 {
			continue
		}
		tried++
		if _, ok, err := res.Pipeline.Reexecute(res.Dataset, res.B.Clusters[b].Members[0], 5); err == nil && ok {
			healed++
		}
	}
	if tried > 0 {
		fmt.Printf("re-execution healing: %d of %d singleton members healed\n", healed, tried)
	}
	fmt.Println()
	return nil
}

func figure5(res *core.Results) error {
	multi := res.CrossMap.MultiMBClusters(res.B)
	if len(multi) == 0 {
		fmt.Println("## Figure 5: no B-cluster with multiple M-clusters")
		return nil
	}
	fmt.Println("## Figure 5 (propagation context of the two biggest multi-M B-clusters)")
	shown := multi
	if len(shown) > 2 {
		// The paper contrasts a worm-like and a bot-like cluster: take the
		// biggest widespread one and the biggest localized one.
		shown = pickContrast(res, multi)
	}
	for _, b := range shown {
		rep, err := analysis.PropagationContext(res.Dataset, res.M, res.B, res.CrossMap, b)
		if err != nil {
			return err
		}
		fmt.Print(report.Figure5(rep, 12))
		fmt.Printf("widespread fraction: %.2f\n", rep.WidespreadFraction())

		// What statically distinguishes the M-clusters of this B-cluster
		// (the paper: mainly the file size, sometimes the linker version).
		var mIdxs []int
		for _, mc := range rep.PerM {
			mIdxs = append(mIdxs, mc.MCluster)
		}
		if len(mIdxs) >= 2 {
			splits, err := analysis.ExplainSplit(res.M, mIdxs)
			if err != nil {
				return err
			}
			fmt.Print("differentiating features across these M-clusters:")
			printed := 0
			for _, fs := range splits {
				if !fs.Differentiates() {
					break
				}
				fmt.Printf(" %s(%d values)", fs.Feature, fs.DistinctValues)
				printed++
				if printed == 3 {
					break
				}
			}
			if printed == 0 {
				fmt.Print(" none (identical patterns)")
			}
			fmt.Println()
		}
		fmt.Println()
	}

	// The paper's coordinated-behaviour evidence: one bursty M-cluster's
	// per-location activity sequence ("observed hitting network location
	// A ... then B ...").
	coord, err := analysis.MostCoordinated(res.Dataset, res.M, 15, 200)
	if err != nil {
		return err
	}
	if coord != nil {
		fmt.Printf("coordinated behaviour of M-cluster %d (%d bursts over %d locations):\n%s\n",
			coord.MCluster, len(coord.Bursts), coord.Locations, coord.Listing())
		fmt.Println("such coordinated behaviour suggests the presence of a Command&Control channel.")
	}
	fmt.Println()
	return nil
}

// pickContrast selects one widespread and one localized multi-M B-cluster.
func pickContrast(res *core.Results, multi []int) []int {
	var widespread, localized = -1, -1
	for _, b := range multi {
		rep, err := analysis.PropagationContext(res.Dataset, res.M, res.B, res.CrossMap, b)
		if err != nil {
			continue
		}
		if rep.WidespreadFraction() >= 0.5 {
			if widespread < 0 {
				widespread = b
			}
		} else if localized < 0 {
			localized = b
		}
		if widespread >= 0 && localized >= 0 {
			break
		}
	}
	out := make([]int, 0, 2)
	if widespread >= 0 {
		out = append(out, widespread)
	}
	if localized >= 0 {
		out = append(out, localized)
	}
	if len(out) == 0 {
		out = multi[:1]
	}
	return out
}

func table2(res *core.Results) error {
	rows, err := analysis.IRCCorrelation(res.Dataset, res.CrossMap)
	if err != nil {
		return err
	}
	fmt.Println("## Table 2 (IRC C&C correlation)")
	fmt.Print(report.Table2(rows))

	multiCluster := 0
	for _, r := range rows {
		if len(r.MClusters) > 1 {
			multiCluster++
		}
	}
	fmt.Printf("rows with multiple M-clusters on one channel (patches of one botnet): %d\n", multiCluster)
	if !strings.Contains(fmt.Sprint(rows), "irc") {
		_ = rows
	}
	fmt.Println()
	return nil
}
