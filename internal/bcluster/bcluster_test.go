package bcluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/behavior"
	"repro/internal/simrng"
)

func mkProfile(fs ...string) *behavior.Profile {
	p := behavior.NewProfile()
	for _, f := range fs {
		p.Add(f)
	}
	return p
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"default", DefaultConfig(), false},
		{"zero threshold", Config{}, true},
		{"threshold above one", Config{Threshold: 1.5}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.cfg.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestRunInputValidation(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := Run([]Input{{ID: "", Profile: mkProfile("x")}}, cfg); err == nil {
		t.Error("empty ID must error")
	}
	if _, err := Run([]Input{{ID: "a", Profile: nil}}, cfg); err == nil {
		t.Error("nil profile must error")
	}
	if _, err := Run([]Input{
		{ID: "a", Profile: mkProfile("x")},
		{ID: "a", Profile: mkProfile("y")},
	}, cfg); err == nil {
		t.Error("duplicate ID must error")
	}
	if _, err := Run(nil, Config{}); err == nil {
		t.Error("invalid config must error")
	}
}

func TestRunGroupsIdenticalProfiles(t *testing.T) {
	shared := []string{"f1", "f2", "f3", "f4", "f5"}
	var inputs []Input
	for i := 0; i < 10; i++ {
		inputs = append(inputs, Input{ID: fmt.Sprintf("s%02d", i), Profile: mkProfile(shared...)})
	}
	inputs = append(inputs, Input{ID: "outlier", Profile: mkProfile("z1", "z2", "z3")})

	res, err := Run(inputs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("clusters = %d, want 2: %+v", len(res.Clusters), res.Clusters)
	}
	if res.Clusters[0].Size() != 10 {
		t.Errorf("big cluster size = %d", res.Clusters[0].Size())
	}
	if res.ClusterOf("outlier") == res.ClusterOf("s00") {
		t.Error("outlier joined the big cluster")
	}
	if got := len(res.Singletons()); got != 1 {
		t.Errorf("singletons = %d, want 1", got)
	}
	// Each copy links to the first copy of its set by content: one
	// candidate pair and one link per copy, and nothing else verified.
	if want := (Stats{Samples: 11, CandidatePairs: 9, Links: 9}); res.Stats != want {
		t.Errorf("stats = %+v, want %+v", res.Stats, want)
	}
}

func TestRunRespectsThreshold(t *testing.T) {
	// a-b similarity = 3/5 = 0.6; threshold 0.7 must separate, 0.5 must join.
	a := mkProfile("1", "2", "3", "4")
	b := mkProfile("1", "2", "3", "5")
	inputs := []Input{{ID: "a", Profile: a}, {ID: "b", Profile: b}}

	cfg := DefaultConfig()
	cfg.Threshold = 0.7
	res, err := Run(inputs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 2 {
		t.Errorf("threshold 0.7: clusters = %d, want 2", len(res.Clusters))
	}

	cfg.Threshold = 0.5
	res, err = Run(inputs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 1 {
		t.Errorf("threshold 0.5: clusters = %d, want 1", len(res.Clusters))
	}
}

func TestSingleLinkageChains(t *testing.T) {
	// a~b and b~c but a!~c: single linkage must still merge all three.
	a := mkProfile("1", "2", "3", "4", "5", "6", "7", "8")
	b := mkProfile("1", "2", "3", "4", "5", "6", "9", "10")   // sim(a,b)=6/10=0.6
	c := mkProfile("3", "4", "5", "6", "9", "10", "11", "12") // sim(b,c)=6/10=0.6, sim(a,c)=4/12=0.33
	inputs := []Input{{ID: "a", Profile: a}, {ID: "b", Profile: b}, {ID: "c", Profile: c}}
	cfg := DefaultConfig()
	cfg.Threshold = 0.55
	res, err := Run(inputs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 1 {
		t.Fatalf("single linkage must chain: got %d clusters", len(res.Clusters))
	}
}

func TestRunMatchesExact(t *testing.T) {
	// Random family-structured data: Run and the all-pairs oracle agree.
	r := simrng.New(42).Stream("families")
	var inputs []Input
	id := 0
	for fam := 0; fam < 8; fam++ {
		core := make([]string, 20)
		for i := range core {
			core[i] = fmt.Sprintf("fam%d-core%d", fam, i)
		}
		for member := 0; member < 12; member++ {
			p := behavior.NewProfile()
			for _, f := range core {
				p.Add(f)
			}
			// 0-2 member-specific features: keeps similarity >= 20/24 = 0.83.
			for k := 0; k < r.Intn(3); k++ {
				p.Add(fmt.Sprintf("m%d-extra%d", id, k))
			}
			inputs = append(inputs, Input{ID: fmt.Sprintf("s%03d", id), Profile: p})
			id++
		}
	}
	cfg := DefaultConfig()
	got, err := Run(inputs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := RunExact(inputs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Clusters) != len(exact.Clusters) {
		t.Fatalf("Run clusters = %d, exact = %d", len(got.Clusters), len(exact.Clusters))
	}
	for _, in := range inputs {
		// Cluster IDs are assigned identically (size-sorted), so the
		// partition must match member-by-member.
		if got.ClusterOf(in.ID) != exact.ClusterOf(in.ID) {
			t.Fatalf("sample %s: Run cluster %d != exact %d", in.ID, got.ClusterOf(in.ID), exact.ClusterOf(in.ID))
		}
	}
	if got.Stats.CandidatePairs >= exact.Stats.CandidatePairs {
		t.Errorf("Run did not prune: %d candidates vs %d all-pairs",
			got.Stats.CandidatePairs, exact.Stats.CandidatePairs)
	}
}

func TestEmptyProfilesClusterTogether(t *testing.T) {
	inputs := []Input{
		{ID: "e1", Profile: mkProfile()},
		{ID: "e2", Profile: mkProfile()},
	}
	res, err := Run(inputs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 1 {
		t.Errorf("two empty profiles must share a cluster (Jaccard=1), got %d", len(res.Clusters))
	}
}

func TestClusterOfUnknown(t *testing.T) {
	res, err := Run([]Input{{ID: "a", Profile: mkProfile("x")}}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.ClusterOf("nope"); got != -1 {
		t.Errorf("ClusterOf(unknown) = %d, want -1", got)
	}
}

func TestDeterminism(t *testing.T) {
	r := simrng.New(7).Stream("det")
	var inputs []Input
	for i := 0; i < 50; i++ {
		p := behavior.NewProfile()
		for k := 0; k < 5+r.Intn(5); k++ {
			p.Add(fmt.Sprintf("f%d", r.Intn(30)))
		}
		inputs = append(inputs, Input{ID: fmt.Sprintf("s%02d", i), Profile: p})
	}
	a, err := Run(inputs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(inputs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Clusters) != len(b.Clusters) {
		t.Fatalf("non-deterministic cluster count")
	}
	for _, in := range inputs {
		if a.ClusterOf(in.ID) != b.ClusterOf(in.ID) {
			t.Fatalf("non-deterministic assignment for %s", in.ID)
		}
	}
}

// TestRunMatchesExactStraddlingThreshold is the differential test the
// hot path must pass: family similarities engineered to land on both
// sides of the 0.7 default threshold, where a missed candidate or a
// verification-order change would flip the partition.
func TestRunMatchesExactStraddlingThreshold(t *testing.T) {
	r := simrng.New(21).Stream("straddle")
	var inputs []Input
	id := 0
	// 14 core features; members add 0..6 private features, so pairwise
	// similarity within a family is 14/(14+a+b), ranging 0.54..1.0 and
	// crossing 0.7 (a+b = 6) in both directions.
	for fam := 0; fam < 12; fam++ {
		for member := 0; member < 10; member++ {
			p := behavior.NewProfile()
			for k := 0; k < 14; k++ {
				p.Add(fmt.Sprintf("fam%d-core%d", fam, k))
			}
			for k := 0; k < r.Intn(7); k++ {
				p.Add(fmt.Sprintf("m%d-priv%d", id, k))
			}
			inputs = append(inputs, Input{ID: fmt.Sprintf("s%03d", id), Profile: p})
			id++
		}
	}
	cfg := DefaultConfig()
	got, err := Run(inputs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := RunExact(inputs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Clusters) != len(exact.Clusters) {
		t.Fatalf("Run clusters = %d, exact = %d", len(got.Clusters), len(exact.Clusters))
	}
	// The exact baseline counts every threshold-passing pair; Run prunes
	// candidates already linked into one component, so its link count is a
	// (positive) lower bound.
	if got.Stats.Links == 0 || got.Stats.Links > exact.Stats.Links {
		t.Errorf("Run links = %d, exact = %d (want 0 < Run <= exact)",
			got.Stats.Links, exact.Stats.Links)
	}
	for _, in := range inputs {
		if got.ClusterOf(in.ID) != exact.ClusterOf(in.ID) {
			t.Fatalf("sample %s: Run cluster %d != exact %d",
				in.ID, got.ClusterOf(in.ID), exact.ClusterOf(in.ID))
		}
	}
}

// TestPrefixesShareATokenAboveThreshold is the exactness property of the
// prefix index: whenever two sets are at Jaccard >= t, their prefixes at
// the base threshold share a token, so the probe proposes the pair. The
// sets are random sorted hash sets of size 0–40; t runs from the base
// 0.7 through trust-raised values to 1.0, and the prefixes are also
// taken at t itself, the shortest that may serve it.
func TestPrefixesShareATokenAboveThreshold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TrustPenalty = 0.3
	var thresholds []float64
	for d := 0; d <= 10; d++ {
		thresholds = append(thresholds, cfg.effThreshold(float64(d)/10, 0))
	}
	thresholds = append(thresholds, 1)
	r := simrng.New(29).Stream("prefix")
	linked := 0
	for trial := 0; trial < 20000; trial++ {
		a, b := randomSetPair(r, r.Intn(41), r.Intn(41))
		if trial%4 == 0 { // near-equal sizes land near and above 0.7 more often
			n := r.Intn(41)
			a, b = randomSetPair(r, n, max(0, n-r.Intn(3)))
		}
		j := a.Jaccard(b)
		for _, th := range thresholds {
			if j < th {
				continue
			}
			linked++
			for _, base := range []float64{cfg.Threshold, th} {
				if !sharesToken(prefix(a, base), prefix(b, base)) {
					t.Fatalf("sizes %d/%d at J=%v >= t=%v: prefixes at %v share no token\n a=%x\n b=%x",
						len(a), len(b), j, th, base, a, b)
				}
			}
		}
	}
	if linked < 1000 {
		t.Fatalf("only %d pairs at or above a threshold; the sweep tests too little", linked)
	}
}

func sharesToken(a, b []uint64) bool {
	for _, x := range a {
		if slices.Contains(b, x) {
			return true
		}
	}
	return false
}

// TestRunMatchesExactProperty compares Run's partition with the all-pairs
// oracle over random family corpora whose pairs straddle each threshold:
// degraded runs keep a random part of the family core plus run-specific
// noise, and some runs repeat another member's set exactly, which takes
// the duplicate shortcut.
func TestRunMatchesExactProperty(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		r := simrng.New(seed).Stream("property")
		var inputs []Input
		var sets [][]string
		for i := 0; i < 150; i++ {
			var feats []string
			if i > 0 && r.Float64() < 0.2 {
				feats = sets[r.Intn(len(sets))]
			} else {
				fam := r.Intn(6)
				for k := 0; k < 4+r.Intn(16); k++ {
					feats = append(feats, fmt.Sprintf("fam%d-f%d", fam, k))
				}
				for k := 0; k < r.Intn(5); k++ {
					feats = append(feats, fmt.Sprintf("s%d-noise%d", i, k))
				}
			}
			sets = append(sets, feats)
			inputs = append(inputs, Input{ID: fmt.Sprintf("s%03d", i), Profile: mkProfile(feats...)})
		}
		for _, th := range []float64{0.5, 0.7, 0.85, 1} {
			cfg := DefaultConfig()
			cfg.Threshold = th
			got, err := Run(inputs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := RunExact(inputs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Clusters, want.Clusters) {
				t.Fatalf("seed %d, t=%v: Run gives %d clusters, RunExact %d", seed, th, len(got.Clusters), len(want.Clusters))
			}
		}
	}
}

// randomSetPair draws two sorted feature sets of sizes a and b that share
// a random number of elements.
func randomSetPair(r *rand.Rand, a, b int) (behavior.FeatureSet, behavior.FeatureSet) {
	shared := r.Intn(min(a, b) + 1)
	pool := make([]uint64, a+b-shared)
	for i := range pool {
		pool[i] = r.Uint64()
	}
	r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	// pool[:a] is A and pool[a-shared:] is B; they overlap in shared.
	fa := append(behavior.FeatureSet(nil), pool[:a]...)
	fb := append(behavior.FeatureSet(nil), pool[a-shared:]...)
	slices.Sort(fa)
	slices.Sort(fb)
	return fa, fb
}

// TestSizeBoundNeverDropsALink is the soundness property of the O(1)
// size bound the verification loops apply before the exact Jaccard:
// whenever it rejects a pair, the pair's Jaccard is below the threshold
// it was tested at. The sizes straddle the default threshold (4 vs 6 is
// 0.67, 7 vs 10 is exactly 0.7) and include empty sets; the thresholds
// run from the base up through trust-raised values to the 1.0 cap.
func TestSizeBoundNeverDropsALink(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TrustPenalty = 0.5
	var thresholds []float64
	for d := 0; d <= 10; d++ {
		thresholds = append(thresholds, cfg.effThreshold(float64(d)/10, 0))
	}
	if thresholds[0] != cfg.Threshold || thresholds[len(thresholds)-1] != 1 {
		t.Fatalf("threshold sweep %v does not span base..1", thresholds)
	}
	sizes := [][2]int{{4, 6}, {6, 4}, {7, 10}, {10, 7}, {0, 5}, {5, 0}, {0, 0}, {13, 19}, {1, 1}}
	r := simrng.New(23).Stream("size-bound")
	rejected := 0
	for trial := 0; trial < 300; trial++ {
		for _, sz := range sizes {
			a, b := randomSetPair(r, sz[0], sz[1])
			j := a.Jaccard(b)
			for _, th := range thresholds {
				if !sizesCannotLink(len(a), len(b), th) {
					continue
				}
				rejected++
				if j >= th {
					t.Fatalf("sizes %d/%d at t=%v: bound rejected a pair with Jaccard %v", len(a), len(b), th, j)
				}
			}
		}
	}
	if rejected == 0 {
		t.Fatal("the bound rejected nothing; the sweep tests no rejection")
	}
	// The bound must keep the pairs that sit exactly on the threshold or
	// are exempt: a 7-subset of a 10-set has Jaccard 0.7 and links, and
	// two empty sets have Jaccard 1.
	if sizesCannotLink(7, 10, cfg.Threshold) || sizesCannotLink(10, 7, cfg.Threshold) {
		t.Error("bound rejects 7 vs 10 at 0.7, where a subset links")
	}
	if sizesCannotLink(0, 0, 1) {
		t.Error("bound rejects two empty sets")
	}
	if !sizesCannotLink(4, 6, cfg.Threshold) || !sizesCannotLink(0, 5, cfg.Threshold) {
		t.Error("bound keeps 4 vs 6 or 0 vs 5 at 0.7, whose best Jaccard is below it")
	}
}

func benchInputs(n int) []Input {
	r := simrng.New(1).Stream("bench")
	inputs := make([]Input, 0, n)
	for i := 0; i < n; i++ {
		fam := i % 20
		p := behavior.NewProfile()
		for k := 0; k < 15; k++ {
			p.Add(fmt.Sprintf("fam%d-f%d", fam, k))
		}
		for k := 0; k < r.Intn(3); k++ {
			p.Add(fmt.Sprintf("s%d-noise%d", i, k))
		}
		inputs = append(inputs, Input{ID: fmt.Sprintf("s%05d", i), Profile: p})
	}
	return inputs
}

func BenchmarkRun1000(b *testing.B) {
	inputs := benchInputs(1000)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(inputs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunExact1000(b *testing.B) {
	inputs := benchInputs(1000)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunExact(inputs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
