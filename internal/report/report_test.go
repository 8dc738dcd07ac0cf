package report

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
)

var cached *core.Results

func results(t *testing.T) *core.Results {
	t.Helper()
	if cached == nil {
		res, err := core.Run(core.SmallScenario())
		if err != nil {
			t.Fatal(err)
		}
		cached = res
	}
	return cached
}

func TestTable1Rendering(t *testing.T) {
	res := results(t)
	out := Table1(res.E, res.P, res.M)
	for _, want := range []string{
		"Table 1",
		"FSM path identifier",
		"Destination port",
		"Download protocol",
		"Interaction type",
		"File MD5",
		"(PE) Linker version",
		"(PE) Referenced Kernel32.dll symbols",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q:\n%s", want, out)
		}
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) < 18 {
		t.Errorf("Table1 too short:\n%s", out)
	}
}

func TestFigure3Rendering(t *testing.T) {
	res := results(t)
	g, err := analysis.BuildRelationGraph(res.Dataset, res.E, res.P, res.M, res.B, res.CrossMap, 30)
	if err != nil {
		t.Fatal(err)
	}
	out := Figure3(g)
	for _, want := range []string{"Figure 3", "layers:", "edges:", "exploit -> payload", "malware -> behavior"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure3 missing %q:\n%s", want, out)
		}
	}
}

func TestFigure4Rendering(t *testing.T) {
	res := results(t)
	rep, err := analysis.FindSize1Anomalies(res.Dataset, res.E, res.P, res.B, res.CrossMap)
	if err != nil {
		t.Fatal(err)
	}
	out := Figure4(rep)
	for _, want := range []string{"Figure 4", "size-1", "AV names", "E/P coordinates"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure4 missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "W32.Rahack") {
		t.Errorf("Figure4 must show the dominant Rahack labels:\n%s", out)
	}
}

func TestFigure5Rendering(t *testing.T) {
	res := results(t)
	multi := res.CrossMap.MultiMBClusters(res.B)
	if len(multi) == 0 {
		t.Skip("no multi-M B-cluster")
	}
	rep, err := analysis.PropagationContext(res.Dataset, res.M, res.B, res.CrossMap, multi[0])
	if err != nil {
		t.Fatal(err)
	}
	out := Figure5(rep, 8)
	for _, want := range []string{"Figure 5", "M-cluster", "timelines"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure5 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Rendering(t *testing.T) {
	rows := []analysis.IRCRow{
		{Server: "67.43.232.35", Port: 6667, Room: "#kok6", MClusters: []int{23, 277}},
		{Server: "67.43.232.36", Port: 6667, Room: "#kok6", MClusters: []int{195}},
		{Server: "72.10.172.211", Port: 6667, Room: "#las6", MClusters: []int{266}},
	}
	out := Table2(rows)
	for _, want := range []string{"Table 2", "67.43.232.35", "#kok6", "23, 277", "shared /24 subnets", "recurring room names"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 missing %q:\n%s", want, out)
		}
	}
}

func TestMClusterPattern(t *testing.T) {
	res := results(t)
	out := MClusterPattern(res.M, 0)
	if !strings.Contains(out, "M-cluster 0 pattern") || !strings.Contains(out, "File MD5") {
		t.Errorf("MClusterPattern output:\n%s", out)
	}
	if MClusterPattern(res.M, -1) != "" || MClusterPattern(res.M, 1<<30) != "" {
		t.Error("out-of-range cluster must render empty")
	}
}

func TestTemporalRendering(t *testing.T) {
	res := results(t)
	rep, err := analysis.Temporal(res.Dataset, res.M, 4)
	if err != nil {
		t.Fatal(err)
	}
	out := Temporal(rep, 5)
	for _, want := range []string{"Cluster evolution", "period", "new clusters", "churn rate", "longest-lived"} {
		if !strings.Contains(out, want) {
			t.Errorf("Temporal missing %q:\n%s", want, out)
		}
	}
	// maxRows bounds the long-lived listing.
	lines := strings.Count(out, "periods ")
	if lines > 5 {
		t.Errorf("long-lived listing shows %d rows, want <= 5", lines)
	}
}

func TestHistogramStrip(t *testing.T) {
	if got := histogramStrip([]int{0, 0, 0}); got != "..." {
		t.Errorf("empty histogram = %q", got)
	}
	got := histogramStrip([]int{0, 1, 10})
	if len(got) != 3 {
		t.Fatalf("strip length = %d", len(got))
	}
	if got[0] != ' ' && got[0] != '.' {
		t.Errorf("zero bucket glyph = %q", got[0])
	}
	if got[2] != '@' {
		t.Errorf("max bucket glyph = %q, want @", got[2])
	}
	// A tiny non-zero count must still be visible.
	if got[1] == ' ' {
		t.Error("non-zero bucket rendered as blank")
	}
}
