package julisch

import (
	"fmt"
	"testing"
)

func attrs2() []Attribute {
	return []Attribute{
		{Name: "port", Hierarchy: Hierarchy{
			"21": "privileged", "80": "privileged", "445": "privileged",
			"9988": "unprivileged", "5554": "unprivileged",
		}},
		{Name: "proto"},
	}
}

func mkInstances(prefix string, n int, values ...string) []Instance {
	out := make([]Instance, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Instance{ID: fmt.Sprintf("%s-%02d", prefix, i), Values: values})
	}
	return out
}

func TestHierarchyParentAndDepth(t *testing.T) {
	h := Hierarchy{"445": "privileged"}
	if h.Parent("445") != "privileged" {
		t.Error("parent of 445")
	}
	if h.Parent("privileged") != Any {
		t.Error("parent of privileged must be Any")
	}
	if h.Parent(Any) != Any {
		t.Error("parent of Any must be Any")
	}
	var nilH Hierarchy
	if nilH.Parent("x") != Any {
		t.Error("nil hierarchy must generalize to Any in one step")
	}
}

func TestHierarchyValidate(t *testing.T) {
	good := Hierarchy{"a": "b", "b": "c"}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	cycle := Hierarchy{"a": "b", "b": "a"}
	if err := cycle.Validate(); err == nil {
		t.Error("cycle must be rejected")
	}
	mapsAny := Hierarchy{Any: "x"}
	if err := mapsAny.Validate(); err == nil {
		t.Error("mapping Any must be rejected")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil, nil, 1); err == nil {
		t.Error("no attributes must error")
	}
	if _, err := Run(attrs2(), nil, 0); err == nil {
		t.Error("minSize 0 must error")
	}
	if _, err := Run(attrs2(), []Instance{{ID: "", Values: []string{"a", "b"}}}, 1); err == nil {
		t.Error("empty ID must error")
	}
	if _, err := Run(attrs2(), []Instance{{ID: "a", Values: []string{"x"}}}, 1); err == nil {
		t.Error("arity mismatch must error")
	}
	if _, err := Run(attrs2(), []Instance{
		{ID: "a", Values: []string{"x", "y"}},
		{ID: "a", Values: []string{"x", "y"}},
	}, 1); err == nil {
		t.Error("duplicate ID must error")
	}
	bad := []Attribute{{Name: "x", Hierarchy: Hierarchy{"a": "b", "b": "a"}}}
	if _, err := Run(bad, nil, 1); err == nil {
		t.Error("cyclic hierarchy must error")
	}
}

func TestRunNoGeneralizationNeeded(t *testing.T) {
	instances := mkInstances("a", 10, "445", "csend")
	res, err := Run(attrs2(), instances, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generalizations != 0 {
		t.Errorf("generalizations = %d, want 0", res.Generalizations)
	}
	if len(res.Clusters) != 1 || res.Clusters[0].Size() != 10 {
		t.Fatalf("clusters = %+v", res.Clusters)
	}
	if res.Clusters[0].Tuple[0] != "445" {
		t.Error("no generalization must keep exact values")
	}
}

func TestRunGeneralizesThroughHierarchy(t *testing.T) {
	// Two small groups on privileged ports: exact tuples are below
	// minSize, but the "privileged" generalization covers both.
	instances := append(
		mkInstances("ftp", 3, "21", "ftp"),
		mkInstances("http", 3, "80", "ftp")...,
	)
	res, err := Run(attrs2(), instances, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 1 {
		t.Fatalf("clusters = %d, want 1 (merged under privileged)", len(res.Clusters))
	}
	got := res.Clusters[0].Tuple
	if got[0] != "privileged" {
		t.Errorf("tuple = %v, want port generalized to privileged (not Any)", got)
	}
	if got[1] != "ftp" {
		t.Errorf("proto must remain exact, got %v", got)
	}
}

func TestRunStopsAtAnyWhenNecessary(t *testing.T) {
	// Singletons everywhere: everything must generalize to (Any, Any).
	var instances []Instance
	for i := 0; i < 4; i++ {
		instances = append(instances, Instance{
			ID:     fmt.Sprintf("s%d", i),
			Values: []string{fmt.Sprintf("%d", 1000+i), fmt.Sprintf("proto%d", i)},
		})
	}
	res, err := Run(attrs2(), instances, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 1 {
		t.Fatalf("clusters = %d, want 1", len(res.Clusters))
	}
	for _, v := range res.Clusters[0].Tuple {
		if v != Any {
			t.Errorf("tuple = %v, want fully generalized", res.Clusters[0].Tuple)
		}
	}
}

func TestRunUnreachableMinSize(t *testing.T) {
	// minSize above the instance count: after full generalization the
	// single cluster holds everything; the loop must terminate.
	instances := mkInstances("a", 3, "445", "csend")
	res, err := Run(attrs2(), instances, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 1 || res.Clusters[0].Size() != 3 {
		t.Fatalf("clusters = %+v", res.Clusters)
	}
}

func TestRunEmptyInstances(t *testing.T) {
	res, err := Run(attrs2(), nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 0 {
		t.Errorf("clusters = %d", len(res.Clusters))
	}
	if res.ClusterOf("missing") != -1 {
		t.Error("ClusterOf on empty result")
	}
}

func TestClusterOf(t *testing.T) {
	instances := append(
		mkInstances("a", 6, "445", "csend"),
		mkInstances("b", 6, "9988", "ftp")...,
	)
	res, err := Run(attrs2(), instances, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("clusters = %d", len(res.Clusters))
	}
	if res.ClusterOf("a-00") == res.ClusterOf("b-00") {
		t.Error("distinct stable groups must separate")
	}
	for _, in := range instances {
		if res.ClusterOf(in.ID) < 0 {
			t.Errorf("instance %s unassigned", in.ID)
		}
	}
}

func TestSizeBuckets(t *testing.T) {
	h := SizeBuckets([]string{"59904", "60000", "not-a-number"}, 1024)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	p := h.Parent("59904")
	if p != "[59392-60416)" {
		t.Errorf("first bucket = %q", p)
	}
	pp := h.Parent(p)
	if pp != "[51200-61440)" {
		t.Errorf("second bucket = %q", pp)
	}
	if h.Parent(pp) != Any {
		t.Errorf("top = %q", h.Parent(pp))
	}
	// Non-numeric values generalize straight to Any.
	if h.Parent("not-a-number") != Any {
		t.Error("non-numeric must go to Any")
	}
	// Default step.
	h2 := SizeBuckets([]string{"100"}, 0)
	if h2.Parent("100") != "[0-1024)" {
		t.Errorf("default step bucket = %q", h2.Parent("100"))
	}
}

func TestRunDeterminism(t *testing.T) {
	var instances []Instance
	for i := 0; i < 40; i++ {
		instances = append(instances, Instance{
			ID:     fmt.Sprintf("s%02d", i),
			Values: []string{fmt.Sprintf("%d", 21+7*(i%5)), fmt.Sprintf("p%d", i%3)},
		})
	}
	a, err := Run(attrs2(), instances, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(attrs2(), instances, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Clusters) != len(b.Clusters) || a.Generalizations != b.Generalizations {
		t.Fatal("non-deterministic")
	}
	for _, in := range instances {
		if a.ClusterOf(in.ID) != b.ClusterOf(in.ID) {
			t.Fatalf("assignment differs for %s", in.ID)
		}
	}
}
