package epm

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/simrng"
)

func testSchema() Schema {
	return Schema{Dimension: "mu", Features: []string{"md5", "size", "linker"}}
}

// mkInstances builds n instances with the given fixed values, cycling
// through na attackers and ns sensors.
func mkInstances(prefix string, n, na, ns int, values ...string) []Instance {
	out := make([]Instance, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Instance{
			ID:       fmt.Sprintf("%s-%03d", prefix, i),
			Attacker: fmt.Sprintf("a%d", i%na),
			Sensor:   fmt.Sprintf("s%d", i%ns),
			Values:   values,
		})
	}
	return out
}

func TestSchemaValidate(t *testing.T) {
	tests := []struct {
		name    string
		schema  Schema
		wantErr bool
	}{
		{"valid", testSchema(), false},
		{"no dimension", Schema{Features: []string{"a"}}, true},
		{"no features", Schema{Dimension: "mu"}, true},
		{"empty feature", Schema{Dimension: "mu", Features: []string{""}}, true},
		{"duplicate feature", Schema{Dimension: "mu", Features: []string{"a", "a"}}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.schema.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestThresholdsValidate(t *testing.T) {
	if err := DefaultThresholds().Validate(); err != nil {
		t.Error(err)
	}
	if err := (Thresholds{0, 1, 1}).Validate(); err == nil {
		t.Error("zero MinInstances must error")
	}
}

func TestRunInputValidation(t *testing.T) {
	s := testSchema()
	th := DefaultThresholds()
	if _, err := Run(s, []Instance{{ID: "", Values: []string{"a", "b", "c"}}}, th); err == nil {
		t.Error("empty ID must error")
	}
	if _, err := Run(s, []Instance{
		{ID: "x", Attacker: "a", Sensor: "s", Values: []string{"a", "b", "c"}},
		{ID: "x", Attacker: "a", Sensor: "s", Values: []string{"a", "b", "c"}},
	}, th); err == nil {
		t.Error("duplicate ID must error")
	}
	if _, err := Run(s, []Instance{{ID: "x", Attacker: "a", Sensor: "s", Values: []string{"a"}}}, th); err == nil {
		t.Error("value arity mismatch must error")
	}
	if _, err := Run(s, []Instance{{ID: "x", Attacker: "a", Sensor: "s", Values: []string{"a", "*", "c"}}}, th); err == nil {
		t.Error("reserved wildcard value must error")
	}
	if _, err := Run(s, []Instance{{ID: "x", Sensor: "s", Values: []string{"a", "b", "c"}}}, th); err == nil {
		t.Error("empty attacker must error")
	}
	if _, err := Run(s, []Instance{{ID: "x", Attacker: "a", Values: []string{"a", "b", "c"}}}, th); err == nil {
		t.Error("empty sensor must error")
	}
	if _, err := Run(Schema{}, nil, th); err == nil {
		t.Error("invalid schema must error")
	}
	if _, err := Run(s, nil, Thresholds{}); err == nil {
		t.Error("invalid thresholds must error")
	}
}

func TestInvariantDiscoveryThresholds(t *testing.T) {
	s := testSchema()
	th := DefaultThresholds() // 10 instances, 3 attackers, 3 sensors

	// Group A: 20 instances, 5 attackers, 5 sensors -> all values invariant.
	instances := mkInstances("a", 20, 5, 5, "md5A", "59904", "92")
	// Group B: only 5 instances -> fails MinInstances.
	instances = append(instances, mkInstances("b", 5, 5, 5, "md5B", "1111", "80")...)
	// Group C: 20 instances but a single attacker -> fails MinAttackers.
	instances = append(instances, mkInstances("c", 20, 1, 5, "md5C", "2222", "71")...)
	// Group D: 20 instances but a single sensor -> fails MinSensors.
	instances = append(instances, mkInstances("d", 20, 5, 1, "md5D", "3333", "60")...)

	c, err := Run(s, instances, th)
	if err != nil {
		t.Fatal(err)
	}
	if !c.invariants[0]["md5A"] {
		t.Error("md5A must be invariant")
	}
	for _, v := range []string{"md5B", "md5C", "md5D"} {
		if c.invariants[0][v] {
			t.Errorf("%s must not be invariant", v)
		}
	}
	if got := c.Stats[0].Invariants; got != 1 {
		t.Errorf("md5 invariants = %d, want 1", got)
	}
	if got := c.Stats[0].DistinctValues; got != 4 {
		t.Errorf("md5 distinct = %d, want 4", got)
	}
}

func TestPolymorphicMD5BecomesWildcard(t *testing.T) {
	// Allaple-style: every instance has a unique MD5 but shared size and
	// linker. The resulting cluster pattern must be (*, size, linker).
	s := testSchema()
	var instances []Instance
	for i := 0; i < 30; i++ {
		instances = append(instances, Instance{
			ID:       fmt.Sprintf("ev-%03d", i),
			Attacker: fmt.Sprintf("a%d", i%7),
			Sensor:   fmt.Sprintf("s%d", i%5),
			Values:   []string{fmt.Sprintf("unique-md5-%d", i), "59904", "92"},
		})
	}
	c, err := Run(s, instances, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Clusters) != 1 {
		t.Fatalf("clusters = %d, want 1", len(c.Clusters))
	}
	got := c.Clusters[0].Pattern
	if got.Values[0] != Wildcard || got.Values[1] != "59904" || got.Values[2] != "92" {
		t.Errorf("pattern = %v", got)
	}
	if got.Specificity() != 2 {
		t.Errorf("specificity = %d", got.Specificity())
	}
	if c.Clusters[0].Attackers != 7 || c.Clusters[0].Sensors != 5 {
		t.Errorf("cluster context counts = %d attackers, %d sensors", c.Clusters[0].Attackers, c.Clusters[0].Sensors)
	}
}

func TestPerSourcePolymorphismNotInvariant(t *testing.T) {
	// M-cluster-13 style: the same MD5 repeats across instances and
	// sensors, but always from ONE attacker; the 3-attacker constraint
	// must reject it even though it passes the instance count.
	s := testSchema()
	var instances []Instance
	for src := 0; src < 4; src++ {
		for i := 0; i < 12; i++ {
			instances = append(instances, Instance{
				ID:       fmt.Sprintf("ev-%d-%02d", src, i),
				Attacker: fmt.Sprintf("attacker-%d", src),
				Sensor:   fmt.Sprintf("s%d", i%6),
				Values:   []string{fmt.Sprintf("md5-of-src-%d", src), "59904", "92"},
			})
		}
	}
	c, err := Run(s, instances, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats[0].Invariants; got != 0 {
		t.Errorf("per-source MD5s: invariants = %d, want 0", got)
	}
	// All events collapse into one cluster on (␣, size, linker).
	if len(c.Clusters) != 1 {
		t.Fatalf("clusters = %d, want 1", len(c.Clusters))
	}
	if c.Clusters[0].Pattern.Values[0] != Wildcard {
		t.Errorf("pattern = %v", c.Clusters[0].Pattern)
	}
}

func TestDistinctPatternsSeparateClusters(t *testing.T) {
	s := testSchema()
	instances := mkInstances("a", 15, 4, 4, "mdA", "1000", "92")
	instances = append(instances, mkInstances("b", 15, 4, 4, "mdB", "2000", "92")...)
	instances = append(instances, mkInstances("c", 15, 4, 4, "mdC", "2000", "80")...)
	c, err := Run(s, instances, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Clusters) != 3 {
		t.Fatalf("clusters = %d, want 3", len(c.Clusters))
	}
	// Every instance of a group must be in the same cluster.
	for _, grp := range []string{"a", "b", "c"} {
		want := c.ClusterOf(grp + "-000")
		for i := 0; i < 15; i++ {
			if got := c.ClusterOf(fmt.Sprintf("%s-%03d", grp, i)); got != want {
				t.Errorf("instance %s-%03d in cluster %d, want %d", grp, i, got, want)
			}
		}
	}
}

func TestMostSpecificClassification(t *testing.T) {
	// Two patterns coexist: a fully-specific one and a generalization.
	// Instances matching both must be assigned to the most specific one.
	s := testSchema()
	// 20 instances of the exact tuple (mdX, 500, 92): md5 invariant.
	instances := mkInstances("exact", 20, 5, 5, "mdX", "500", "92")
	// 20 instances with unique md5s but same size/linker: yields (*, 500, 92).
	for i := 0; i < 20; i++ {
		instances = append(instances, Instance{
			ID:       fmt.Sprintf("poly-%03d", i),
			Attacker: fmt.Sprintf("a%d", i%5),
			Sensor:   fmt.Sprintf("s%d", i%5),
			Values:   []string{fmt.Sprintf("u%d", i), "500", "92"},
		})
	}
	c, err := Run(s, instances, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Clusters) != 2 {
		t.Fatalf("clusters = %d, want 2", len(c.Clusters))
	}
	exactCluster := c.ClusterOf("exact-000")
	polyCluster := c.ClusterOf("poly-000")
	if exactCluster == polyCluster {
		t.Fatal("exact and polymorphic instances must separate")
	}
	if got := c.Clusters[exactCluster].Pattern.Specificity(); got != 3 {
		t.Errorf("exact pattern specificity = %d, want 3", got)
	}
	// Classify must agree with assignment: the exact tuple matches both
	// patterns but must return the specific one.
	p, idx, ok := c.Classify([]string{"mdX", "500", "92"})
	if !ok || idx != exactCluster {
		t.Errorf("Classify = %v %d %v, want cluster %d", p, idx, ok, exactCluster)
	}
	// A fresh polymorphic instance matches only the generalization.
	_, idx, ok = c.Classify([]string{"never-seen", "500", "92"})
	if !ok || idx != polyCluster {
		t.Errorf("Classify(fresh poly) = cluster %d, want %d", idx, polyCluster)
	}
	// A totally unknown tuple matches nothing.
	if _, _, ok := c.Classify([]string{"x", "999", "1"}); ok {
		t.Error("unknown tuple must not classify")
	}
}

func TestClassifyAgreesWithAssignment(t *testing.T) {
	// Property: for every input instance, Classify(values) returns the
	// cluster the instance was assigned to.
	s := testSchema()
	r := simrng.New(3).Stream("epm")
	var instances []Instance
	md5s := []string{"m1", "m2", "m3", "rare1", "rare2"}
	sizes := []string{"100", "200", "300"}
	linkers := []string{"71", "92"}
	for i := 0; i < 300; i++ {
		instances = append(instances, Instance{
			ID:       fmt.Sprintf("ev%03d", i),
			Attacker: fmt.Sprintf("a%d", r.Intn(8)),
			Sensor:   fmt.Sprintf("s%d", r.Intn(6)),
			Values: []string{
				md5s[r.Intn(len(md5s))],
				sizes[r.Intn(len(sizes))],
				linkers[r.Intn(len(linkers))],
			},
		})
	}
	c, err := Run(s, instances, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range instances {
		_, idx, ok := c.Classify(in.Values)
		if !ok {
			t.Fatalf("instance %s does not classify", in.ID)
		}
		if got := c.ClusterOf(in.ID); got != idx {
			t.Fatalf("instance %s assigned to %d but Classify returns %d", in.ID, got, idx)
		}
	}
}

func TestClusterSizesSumToInstances(t *testing.T) {
	s := testSchema()
	r := simrng.New(4).Stream("epm2")
	var instances []Instance
	for i := 0; i < 500; i++ {
		instances = append(instances, Instance{
			ID:       fmt.Sprintf("ev%03d", i),
			Attacker: fmt.Sprintf("a%d", r.Intn(10)),
			Sensor:   fmt.Sprintf("s%d", r.Intn(10)),
			Values:   []string{fmt.Sprintf("m%d", r.Intn(20)), fmt.Sprintf("%d", 100*r.Intn(5)), "92"},
		})
	}
	c, err := Run(s, instances, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, cl := range c.Clusters {
		total += cl.Size()
	}
	if total != len(instances) {
		t.Errorf("cluster sizes sum to %d, want %d", total, len(instances))
	}
	// Clusters are sorted largest-first with dense IDs.
	for i := 1; i < len(c.Clusters); i++ {
		if c.Clusters[i].Size() > c.Clusters[i-1].Size() {
			t.Error("clusters not sorted by size")
		}
		if c.Clusters[i].ID != i {
			t.Error("cluster IDs not dense")
		}
	}
}

func TestPatternHelpers(t *testing.T) {
	p := Pattern{Values: []string{"a", Wildcard, "c"}}
	if p.Specificity() != 2 {
		t.Errorf("Specificity = %d", p.Specificity())
	}
	if !p.Matches([]string{"a", "anything", "c"}) {
		t.Error("wildcard position must match anything")
	}
	if p.Matches([]string{"a", "b"}) {
		t.Error("arity mismatch must not match")
	}
	if p.Matches([]string{"x", "b", "c"}) {
		t.Error("fixed mismatch must not match")
	}
	if p.String() != "(a, *, c)" {
		t.Errorf("String = %q", p.String())
	}
}

func TestTotalInvariants(t *testing.T) {
	s := testSchema()
	instances := mkInstances("a", 15, 4, 4, "mdA", "1000", "92")
	instances = append(instances, mkInstances("b", 15, 4, 4, "mdB", "2000", "92")...)
	c, err := Run(s, instances, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	// md5: 2 invariants; size: 2; linker: 1 => 5.
	if got := c.TotalInvariants(); got != 5 {
		t.Errorf("TotalInvariants = %d, want 5", got)
	}
}

func TestDeterminism(t *testing.T) {
	s := testSchema()
	r := simrng.New(5).Stream("epm3")
	var instances []Instance
	for i := 0; i < 200; i++ {
		instances = append(instances, Instance{
			ID:       fmt.Sprintf("ev%03d", i),
			Attacker: fmt.Sprintf("a%d", r.Intn(6)),
			Sensor:   fmt.Sprintf("s%d", r.Intn(6)),
			Values:   []string{fmt.Sprintf("m%d", r.Intn(8)), "100", "92"},
		})
	}
	a, err := Run(s, instances, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s, instances, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Clusters) != len(b.Clusters) {
		t.Fatal("cluster count not deterministic")
	}
	for i := range a.Clusters {
		if a.Clusters[i].Pattern.Key() != b.Clusters[i].Pattern.Key() {
			t.Fatalf("cluster %d pattern differs", i)
		}
	}
}

func TestClassifyRejectsWildcardValues(t *testing.T) {
	s := testSchema()
	c, err := Run(s, mkInstances("a", 15, 4, 4, "mdA", "1000", "92"), DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	// "*" would match every pattern at that position; the caller must get
	// ok=false instead of a bogus most-specific match.
	if _, _, ok := c.Classify([]string{"*", "1000", "92"}); ok {
		t.Error("caller-supplied wildcard must not classify")
	}
	if _, _, ok := c.Classify([]string{"mdA", "*", "92"}); ok {
		t.Error("caller-supplied wildcard must not classify")
	}
	if _, _, ok := c.Classify([]string{"mdA", "1000"}); ok {
		t.Error("arity mismatch must not classify")
	}
}

func TestClassifyFastPathAgreesWithScan(t *testing.T) {
	// Property: generalize-then-lookup and the exhaustive most-specific
	// scan agree on every random query, seen or unseen.
	s := testSchema()
	r := simrng.New(7).Stream("epm-fastpath")
	md5s := []string{"m1", "m2", "m3", "m4", "rare1", "rare2"}
	sizes := []string{"100", "200", "300", "400"}
	linkers := []string{"71", "92", "60"}
	var instances []Instance
	for i := 0; i < 400; i++ {
		instances = append(instances, Instance{
			ID:       fmt.Sprintf("ev%03d", i),
			Attacker: fmt.Sprintf("a%d", r.Intn(8)),
			Sensor:   fmt.Sprintf("s%d", r.Intn(6)),
			Values: []string{
				md5s[r.Intn(len(md5s))],
				sizes[r.Intn(len(sizes))],
				linkers[r.Intn(len(linkers))],
			},
		})
	}
	c, err := Run(s, instances, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	// Query pool includes values never observed in the corpus.
	md5s = append(md5s, "never-seen-md5", "x")
	sizes = append(sizes, "999")
	linkers = append(linkers, "1")
	for i := 0; i < 2000; i++ {
		vals := []string{
			md5s[r.Intn(len(md5s))],
			sizes[r.Intn(len(sizes))],
			linkers[r.Intn(len(linkers))],
		}
		fp, fi, fok := c.Classify(vals)
		sp, si, sok := c.classifyScan(vals)
		if fok != sok || fi != si || (fok && fp.Key() != sp.Key()) {
			t.Fatalf("Classify(%v) = (%v, %d, %v), scan = (%v, %d, %v)",
				vals, fp, fi, fok, sp, si, sok)
		}
	}
}

func TestRunParallelWorkerCountInvariance(t *testing.T) {
	// The clustering must be byte-identical at every worker count.
	s := testSchema()
	r := simrng.New(8).Stream("epm-par")
	var instances []Instance
	for i := 0; i < 1200; i++ {
		instances = append(instances, Instance{
			ID:       fmt.Sprintf("ev%04d", i),
			Attacker: fmt.Sprintf("a%d", r.Intn(40)),
			Sensor:   fmt.Sprintf("s%d", r.Intn(20)),
			Values: []string{
				fmt.Sprintf("m%d", r.Intn(30)),
				fmt.Sprintf("%d", 100*r.Intn(8)),
				fmt.Sprintf("%d", 60+r.Intn(4)),
			},
		})
	}
	var want []byte
	for _, workers := range []int{1, 2, 3, 8, 0} {
		c, err := RunParallel(s, instances, DefaultThresholds(), workers)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := c.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(want, buf.Bytes()) {
			t.Fatalf("clustering differs at workers=%d", workers)
		}
	}
}

// BenchmarkClassifyFastPathVsScan contrasts generalize-then-lookup
// classification with the exhaustive scan at a paper-scale cluster count
// (hundreds of M-clusters).
func BenchmarkClassifyFastPathVsScan(b *testing.B) {
	s := Schema{Dimension: "mu", Features: []string{"md5", "size", "type", "linker", "sections"}}
	r := simrng.New(9).Stream("bench-classify")
	var instances []Instance
	for i := 0; i < 8000; i++ {
		fam := r.Intn(300)
		instances = append(instances, Instance{
			ID:       fmt.Sprintf("ev%05d", i),
			Attacker: fmt.Sprintf("a%d", r.Intn(400)),
			Sensor:   fmt.Sprintf("s%d", r.Intn(150)),
			Values: []string{
				fmt.Sprintf("md5-%d", i),
				fmt.Sprintf("%d", 1000*fam),
				"pe",
				fmt.Sprintf("%d", 60+fam%7),
				".text,.data",
			},
		})
	}
	c, err := Run(s, instances, DefaultThresholds())
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("clusters: %d", len(c.Clusters))
	b.Run("fastpath", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, ok := c.Classify(instances[i%len(instances)].Values); !ok {
				b.Fatal("classification failed")
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, ok := c.classifyScan(instances[i%len(instances)].Values); !ok {
				b.Fatal("classification failed")
			}
		}
	})
}

func BenchmarkRun(b *testing.B) {
	s := Schema{Dimension: "mu", Features: []string{
		"md5", "size", "type", "machine", "nsections", "ndlls", "os", "linker", "sections", "dlls", "k32",
	}}
	r := simrng.New(6).Stream("bench")
	instances := make([]Instance, 0, 5000)
	for i := 0; i < 5000; i++ {
		fam := r.Intn(50)
		instances = append(instances, Instance{
			ID:       fmt.Sprintf("ev%05d", i),
			Attacker: fmt.Sprintf("a%d", r.Intn(300)),
			Sensor:   fmt.Sprintf("s%d", r.Intn(150)),
			Values: []string{
				fmt.Sprintf("md5-%d", i), // polymorphic
				fmt.Sprintf("%d", 1000*fam),
				"pe", "332", "3", "1", "40",
				fmt.Sprintf("%d", 60+fam%5),
				".text,.data", "KERNEL32.dll", "GetProcAddress",
			},
		})
	}
	th := DefaultThresholds()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(s, instances, th); err != nil {
			b.Fatal(err)
		}
	}
}
