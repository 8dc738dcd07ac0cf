package avsim

import (
	"fmt"
	"strings"
	"testing"
)

func TestPanelDeterministic(t *testing.T) {
	p := DefaultPanel()
	a := p.Labels("W32.Rahack", "md5-1")
	b := p.Labels("W32.Rahack", "md5-1")
	for vendor, label := range a {
		if b[vendor] != label {
			t.Errorf("vendor %s label differs: %q vs %q", vendor, label, b[vendor])
		}
	}
}

func TestPanelVendorConventions(t *testing.T) {
	p := DefaultPanel()
	sawA, sawB, sawC := false, false, false
	for i := 0; i < 100; i++ {
		labels := p.Labels("W32.Rahack", fmt.Sprintf("md5-%d", i))
		if strings.HasPrefix(labels["vendor-a"], "W32.Rahack.") {
			sawA = true
		}
		if strings.HasPrefix(labels["vendor-b"], "Worm.Win32.Allaple.") {
			sawB = true
		}
		if strings.HasPrefix(labels["vendor-c"], "Win32/Rahack.") {
			sawC = true
		}
	}
	if !sawA || !sawB || !sawC {
		t.Errorf("vendor conventions missing: a=%v b=%v c=%v", sawA, sawB, sawC)
	}
}

func TestPanelVendorsDisagreeOnNames(t *testing.T) {
	p := DefaultPanel()
	labels := map[string]map[string]bool{}
	for i := 0; i < 200; i++ {
		for vendor, label := range p.Labels("W32.Rahack", fmt.Sprintf("md5-%d", i)) {
			if label == "" {
				continue
			}
			if labels[vendor] == nil {
				labels[vendor] = map[string]bool{}
			}
			labels[vendor][stripVariant(label)] = true
		}
	}
	// vendor-a and vendor-b must use different base names for the same
	// family (the Rahack/Allaple confusion of the real AV world).
	if labels["vendor-a"]["Worm.Win32.Allaple"] {
		t.Error("vendor-a leaked vendor-b's convention")
	}
	if !labels["vendor-b"]["Worm.Win32.Allaple"] {
		t.Errorf("vendor-b families: %v", labels["vendor-b"])
	}
}

func TestPanelVendorsList(t *testing.T) {
	p := DefaultPanel()
	vendors := SortedVendors(p.Labels("Allaple", "md5"))
	if len(vendors) != 3 || vendors[0] != "vendor-a" {
		t.Errorf("vendors = %v", vendors)
	}
}

func TestStripVariant(t *testing.T) {
	tests := map[string]string{
		"W32.Rahack.B":         "W32.Rahack",
		"Worm.Win32.Allaple.C": "Worm.Win32.Allaple",
		"Trojan.Gen":           "Trojan.Gen", // two-letter tail, no variant
		"X":                    "X",
		"":                     "",
	}
	for in, want := range tests {
		if got := stripVariant(in); got != want {
			t.Errorf("stripVariant(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestConsistencyPerfectAgreement(t *testing.T) {
	labels := map[string]map[string]string{}
	var cluster []string
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("s%d", i)
		cluster = append(cluster, id)
		labels[id] = map[string]string{
			"vendor-a": "W32.Rahack.A",
			"vendor-b": "Worm.Win32.Allaple.B",
		}
	}
	rep := Consistency(labels, [][]string{cluster})
	if rep.Samples != 10 {
		t.Errorf("samples = %d", rep.Samples)
	}
	if rep.DetectionRate != 1 {
		t.Errorf("detection rate = %v", rep.DetectionRate)
	}
	if rep.MeanDominance != 1 {
		t.Errorf("dominance = %v, want 1 (each vendor is internally consistent)", rep.MeanDominance)
	}
	if rep.PerVendorFamilies["vendor-a"] != 1 || rep.PerVendorFamilies["vendor-b"] != 1 {
		t.Errorf("per-vendor families = %v", rep.PerVendorFamilies)
	}
}

func TestConsistencyMixedCluster(t *testing.T) {
	labels := map[string]map[string]string{
		"s0": {"v": "FamA.A"},
		"s1": {"v": "FamA.B"},
		"s2": {"v": "FamB.A"},
		"s3": {"v": ""},
	}
	rep := Consistency(labels, [][]string{{"s0", "s1", "s2", "s3"}})
	// Dominance: FamA covers 2 of 3 detected.
	if want := 2.0 / 3.0; rep.MeanDominance < want-1e-9 || rep.MeanDominance > want+1e-9 {
		t.Errorf("dominance = %v, want %v", rep.MeanDominance, want)
	}
	if rep.DetectionRate != 0.75 {
		t.Errorf("detection rate = %v", rep.DetectionRate)
	}
}

func TestConsistencyEmpty(t *testing.T) {
	rep := Consistency(nil, nil)
	if rep.Samples != 0 || rep.DetectionRate != 0 || rep.MeanDominance != 0 {
		t.Errorf("empty report = %+v", rep)
	}
}

func TestSortedVendors(t *testing.T) {
	m := map[string]int{"c": 1, "a": 2}
	got := SortedVendors(m)
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Errorf("SortedVendors = %v", got)
	}
}

func TestPanelUnknownFamilyGetsGeneric(t *testing.T) {
	p := DefaultPanel()
	for i := 0; i < 20; i++ {
		for vendor, label := range p.Labels("", fmt.Sprintf("md5-%d", i)) {
			if strings.Contains(label, "W32.") && strings.Contains(label, ".Rahack") {
				t.Errorf("vendor %s produced family label %q for unknown family", vendor, label)
			}
		}
	}
}
