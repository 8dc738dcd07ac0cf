package main

import (
	"strings"
	"testing"
)

// TestBenchmarkJSON checks the committed declaration: its own limits,
// and that it declares, with units and bounds, exactly the workloads
// this driver runs and the metrics it reports.
func TestBenchmarkJSON(t *testing.T) {
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.validate(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(s.Paths, ","); got != "bench" {
		t.Errorf("paths %q, want the benchmark's own directory", got)
	}
}

func TestValidateCatchesBadDeclarations(t *testing.T) {
	for name, breakIt := range map[string]func(s *spec){
		"bad metric name":      func(s *spec) { s.PerLayer[0].Name = "wal fsync" },
		"duplicate name":       func(s *spec) { s.PerLayer[1].Name = s.PerLayer[0].Name },
		"too many e2e":         func(s *spec) { s.EndToEnd = append(s.EndToEnd, make([]specMetric, 16)...) },
		"one workload":         func(s *spec) { s.Workloads = s.Workloads[:1] },
		"bound over 0.25":      func(s *spec) { b := 0.3; s.EndToEnd[1].Bound = &b },
		"missing bound":        func(s *spec) { s.EndToEnd[1].Bound = nil },
		"layer with bound":     func(s *spec) { b := 0.1; s.PerLayer[0].Bound = &b },
		"undeclared metric":    func(s *spec) { s.PerLayer = s.PerLayer[1:] },
		"bad unit":             func(s *spec) { s.EndToEnd[1].Unit = "milli seconds" },
		"setup not largest":    func(s *spec) { b := 0.01; s.EndToEnd[0].Bound = &b },
		"two-line why":         func(s *spec) { s.Workloads[0].Why = "a\nb" },
		"path out of the repo": func(s *spec) { s.Paths = []string{"../bench"} },
	} {
		s, err := loadSpec("../BENCHMARK.json")
		if err != nil {
			t.Fatal(err)
		}
		breakIt(s)
		if err := s.validate(); err == nil {
			t.Errorf("%s: validate accepted it", name)
		}
	}
}

func TestCheckEmitted(t *testing.T) {
	ms := []metric{{name: "a"}, {name: "b"}}
	if err := checkEmitted(ms, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := checkEmitted(ms, []string{"a", "b", "c"}); err == nil {
		t.Error("a declared metric went unreported")
	}
	if err := checkEmitted(ms, []string{"a"}); err == nil {
		t.Error("an undeclared metric was reported")
	}
}
