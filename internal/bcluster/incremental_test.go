package bcluster

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/behavior"
	"repro/internal/simrng"
)

// incCorpus builds a family-structured corpus shaped like the enrichment
// output: shared per-family cores plus per-sample noise (mirrors
// internal/benchdata, which cannot be imported from this package).
func incCorpus(n int) []Input {
	r := simrng.New(7).Stream("inc-corpus")
	inputs := make([]Input, 0, n)
	for i := 0; i < n; i++ {
		fam := i % 17
		p := behavior.NewProfile()
		for k := 0; k < 15; k++ {
			p.Add(fmt.Sprintf("fam%d-f%d", fam, k))
		}
		for k := 0; k < r.Intn(4); k++ {
			p.Add(fmt.Sprintf("s%d-x%d", i, k))
		}
		inputs = append(inputs, Input{ID: fmt.Sprintf("s%04d", i), Profile: p})
	}
	return inputs
}

// members strips cluster IDs and stats down to the membership partition.
func members(r *Result) [][]string {
	out := make([][]string, len(r.Clusters))
	for i, c := range r.Clusters {
		out[i] = c.Members
	}
	return out
}

func TestIncrementalMatchesBatchAtEveryEpochSize(t *testing.T) {
	cfg := DefaultConfig()
	inputs := incCorpus(400)
	batch, err := Run(inputs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, epoch := range []int{1, 7, 64, len(inputs)} {
		inc, err := NewIncremental(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, in := range inputs {
			if err := inc.Add(in); err != nil {
				t.Fatal(err)
			}
			if inc.Pending() >= epoch {
				inc.Verify()
			}
			if i == len(inputs)-1 {
				inc.Verify()
			}
		}
		got := inc.Result()
		if !reflect.DeepEqual(members(got), members(batch)) {
			t.Fatalf("epoch=%d: incremental partition diverges from batch (%d vs %d clusters)",
				epoch, len(got.Clusters), len(batch.Clusters))
		}
		if inc.Components() != len(batch.Clusters) {
			t.Errorf("epoch=%d: Components() = %d, want %d", epoch, inc.Components(), len(batch.Clusters))
		}
		if got.Stats.Samples != len(inputs) {
			t.Errorf("epoch=%d: Samples = %d", epoch, got.Stats.Samples)
		}
	}
}

// TestIncrementalCarriedStateMatchesFromScratch is the PR 6 differential
// gate for the B side: an Incremental that carries its union-find and
// bucket watermarks across many Verify epochs must be
// byte-identical — clusters, IDs, AND probe stats — to a fresh
// Incremental that sees the same samples and verifies once. This is
// strictly stronger than the partition check above: integration happens
// in arrival order either way, so the epoch boundaries must not be
// observable in any output, which is exactly the property checkpoint
// recovery (bcluster.RestoreIncremental) relies on.
func TestIncrementalCarriedStateMatchesFromScratch(t *testing.T) {
	cfg := DefaultConfig()
	inputs := incCorpus(400)
	for _, epoch := range []int{1, 7, 64} {
		carried, err := NewIncremental(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, in := range inputs {
			if err := carried.Add(in); err != nil {
				t.Fatal(err)
			}
			if carried.Pending() >= epoch || i == len(inputs)-1 {
				carried.Verify()
			}
		}
		scratch, err := NewIncremental(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range inputs {
			if err := scratch.Add(in); err != nil {
				t.Fatal(err)
			}
		}
		scratch.Verify()

		got, want := carried.Result(), scratch.Result()
		if !reflect.DeepEqual(got.Clusters, want.Clusters) {
			t.Fatalf("epoch=%d: carried-state clusters diverge from from-scratch", epoch)
		}
		if got.Stats != want.Stats {
			t.Fatalf("epoch=%d: carried-state stats %+v diverge from from-scratch %+v",
				epoch, got.Stats, want.Stats)
		}
		if carried.Stats() != scratch.Stats() {
			t.Fatalf("epoch=%d: cumulative stats diverge", epoch)
		}
	}
}

// TestIncrementalUniformBucketFastPath pins the optimization itself:
// after repeated epochs over a family-structured corpus, posting lists
// must be recognized as single-component (uniform watermark at the end),
// which is what turns history-sized rescans into O(1) skips.
func TestIncrementalUniformBucketFastPath(t *testing.T) {
	cfg := DefaultConfig()
	inc, err := NewIncremental(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range incCorpus(300) {
		if err := inc.Add(in); err != nil {
			t.Fatal(err)
		}
		if inc.Pending() >= 16 || i == 299 {
			inc.Verify()
		}
	}
	big, uniform := 0, 0
	for _, b := range inc.index {
		if len(b.members) < 4 {
			continue
		}
		big++
		if b.uniform == len(b.members) {
			uniform++
		}
	}
	if big == 0 {
		t.Fatal("corpus produced no populated posting lists; test is vacuous")
	}
	if uniform*2 < big {
		t.Fatalf("only %d/%d populated buckets fully uniform; fast path not engaging", uniform, big)
	}
}

// lowFeatures returns n feature names tagged tag whose hashes lie in the
// bottom 1/256 of the hash range, so they lead the sorted set — and fill
// the prefix — of any profile that holds them beside ordinary features.
func lowFeatures(tag string, n int) []string {
	var out []string
	for k := 0; len(out) < n; k++ {
		if f := fmt.Sprintf("%s%d", tag, k); behavior.FeatureHash(f) < 1<<56 {
			out = append(out, f)
		}
	}
	return out
}

// sharedPrefixTokens counts the prefix tokens two profiles share at the
// config's threshold: how many posting lists propose the pair.
func sharedPrefixTokens(t *testing.T, cfg Config, a, b *behavior.Profile) int {
	n := 0
	for _, x := range prefix(hashesOf(t, a), cfg.Threshold) {
		if slices.Contains(prefix(hashesOf(t, b), cfg.Threshold), x) {
			n++
		}
	}
	return n
}

// TestIncrementalFailedPairCountedOnce pins the per-probe stamp: a pair
// that fails the threshold but shares several prefix tokens is verified
// once, whichever epochs its two samples land in, and a restore replays
// the same single verification. Two 10-feature profiles sharing 8
// features have Jaccard 8/12 < 0.7 but equal sizes, so the size bound
// lets them through to the stamp; the shared features hash low, so both
// prefixes consist of them. Unrelated singletons pad the stream so that
// the two samples fall into different epochs at most epoch sizes.
func TestIncrementalFailedPairCountedOnce(t *testing.T) {
	cfg := DefaultConfig()
	pa, pb := behavior.NewProfile(), behavior.NewProfile()
	for _, f := range lowFeatures("pair-core", 8) {
		pa.Add(f)
		pb.Add(f)
	}
	pa.Add("pair-a0")
	pa.Add("pair-a1")
	pb.Add("pair-b0")
	pb.Add("pair-b1")
	if j := hashesOf(t, pa).Jaccard(hashesOf(t, pb)); j >= cfg.Threshold {
		t.Fatalf("premise: pair Jaccard %v must fail %v", j, cfg.Threshold)
	}
	if n := sharedPrefixTokens(t, cfg, pa, pb); n < 2 {
		t.Fatalf("premise: pair shares %d prefix tokens, want several", n)
	}
	var inputs []Input
	for i := 0; i < 100; i++ {
		switch i {
		case 3:
			inputs = append(inputs, Input{ID: "pair-a", Profile: pa})
		case 70:
			inputs = append(inputs, Input{ID: "pair-b", Profile: pb})
		default:
			p := behavior.NewProfile()
			for k := 0; k < 10; k++ {
				p.Add(fmt.Sprintf("pad%d-f%d", i, k))
			}
			inputs = append(inputs, Input{ID: fmt.Sprintf("pad%03d", i), Profile: p})
		}
	}
	want := Stats{Samples: len(inputs), CandidatePairs: 1}
	for _, epoch := range []int{1, 7, 64, len(inputs)} {
		inc, err := NewIncremental(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, in := range inputs {
			if err := inc.Add(in); err != nil {
				t.Fatal(err)
			}
			if inc.Pending() >= epoch || i == len(inputs)-1 {
				inc.Verify()
			}
		}
		if got := inc.Stats(); got != want {
			t.Fatalf("epoch=%d: stats %+v, want %+v", epoch, got, want)
		}
		restored, err := RestoreIncremental(cfg, snapshot(inc))
		if err != nil {
			t.Fatal(err)
		}
		if got := restored.Stats(); got != want {
			t.Fatalf("epoch=%d: restored stats %+v, want %+v", epoch, got, want)
		}
	}
}

// TestIncrementalMemoDoesNotGrowWithFailures is the white-box bound on
// the failed-pair stamp: it holds one word per sample, so its size after
// Verify is independent of how many pairs failed. Every sample shares 8
// of its 12 features with every other (Jaccard 0.5, equal sizes), and the
// shared features hash low, so every pair shares prefix tokens and the
// number of failed pairs grows quadratically with the corpus.
func TestIncrementalMemoDoesNotGrowWithFailures(t *testing.T) {
	cfg := DefaultConfig()
	core := lowFeatures("core", 8)
	for _, n := range []int{40, 160} {
		inc, err := NewIncremental(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			p := behavior.NewProfile()
			for _, f := range core {
				p.Add(f)
			}
			for k := 0; k < 4; k++ {
				p.Add(fmt.Sprintf("s%d-x%d", i, k))
			}
			if err := inc.Add(Input{ID: fmt.Sprintf("s%03d", i), Profile: p}); err != nil {
				t.Fatal(err)
			}
		}
		inc.Verify()
		st := inc.Stats()
		failed := st.CandidatePairs - st.Links
		if st.Links != 0 || failed < 4*n {
			t.Fatalf("n=%d: premise: %d links, %d failed pairs; want none linked and many failed", n, st.Links, failed)
		}
		if got := len(inc.failedIn); got != n {
			t.Fatalf("n=%d: memo holds %d entries after %d failed pairs, want one per sample (%d)", n, got, failed, n)
		}
	}
}

func TestIncrementalOrderInvariance(t *testing.T) {
	cfg := DefaultConfig()
	inputs := incCorpus(200)
	batch, err := Run(inputs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	perm := simrng.New(11).Stream("perm").Perm(len(inputs))
	inc, err := NewIncremental(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range perm {
		if err := inc.Add(inputs[i]); err != nil {
			t.Fatal(err)
		}
	}
	inc.Verify()
	if !reflect.DeepEqual(members(inc.Result()), members(batch)) {
		t.Fatal("permuted arrival order changed the final partition")
	}
}

func TestIncrementalPendingSnapshot(t *testing.T) {
	cfg := DefaultConfig()
	inputs := incCorpus(40)
	inc, err := NewIncremental(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range inputs[:30] {
		if err := inc.Add(in); err != nil {
			t.Fatal(err)
		}
	}
	inc.Verify()
	for _, in := range inputs[30:] {
		if err := inc.Add(in); err != nil {
			t.Fatal(err)
		}
	}
	if inc.Pending() != 10 {
		t.Fatalf("Pending = %d, want 10", inc.Pending())
	}
	// Parked samples appear as singletons in the snapshot.
	res := inc.Result()
	total := 0
	for _, c := range res.Clusters {
		total += c.Size()
	}
	if total != 40 {
		t.Fatalf("snapshot covers %d samples, want 40", total)
	}
	for _, in := range inputs[30:] {
		idx := res.ClusterOf(in.ID)
		if idx < 0 || res.Clusters[idx].Size() != 1 {
			t.Errorf("parked sample %s not a singleton in the snapshot", in.ID)
		}
	}
	if inc.Epochs() != 1 {
		t.Errorf("Epochs = %d, want 1", inc.Epochs())
	}
}

func TestIncrementalAmend(t *testing.T) {
	cfg := DefaultConfig()
	inputs := incCorpus(60)
	inc, err := NewIncremental(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range inputs[:59] {
		if err := inc.Add(in); err != nil {
			t.Fatal(err)
		}
	}
	inc.Verify()
	if err := inc.Amend(inputs[0].ID, inputs[0].Profile); err == nil {
		t.Error("amending a verified sample must error")
	}
	// Amend a parked sample: the final partition must equal the batch run
	// over the amended corpus.
	amended := behavior.NewProfile()
	for k := 0; k < 15; k++ {
		amended.Add(fmt.Sprintf("fam3-f%d", k))
	}
	last := inputs[59]
	if err := inc.Add(last); err != nil {
		t.Fatal(err)
	}
	if err := inc.Amend(last.ID, amended); err != nil {
		t.Fatal(err)
	}
	inc.Verify()

	batchInputs := append(append([]Input{}, inputs[:59]...), Input{ID: last.ID, Profile: amended})
	batch, err := Run(batchInputs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(members(inc.Result()), members(batch)) {
		t.Fatal("amended partition diverges from batch over the amended corpus")
	}
	if err := inc.Amend("nope", amended); err == nil {
		t.Error("amending an unknown sample must error")
	}
}

func TestIncrementalAddValidation(t *testing.T) {
	inc, err := NewIncremental(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.Add(Input{ID: "", Profile: behavior.NewProfile()}); err == nil {
		t.Error("empty ID must error")
	}
	if err := inc.Add(Input{ID: "a", Profile: nil}); err == nil {
		t.Error("nil profile must error")
	}
	if err := inc.Add(Input{ID: "a", Profile: behavior.NewProfile()}); err != nil {
		t.Fatal(err)
	}
	if err := inc.Add(Input{ID: "a", Profile: behavior.NewProfile()}); err == nil {
		t.Error("duplicate ID must error")
	}
	if !inc.Has("a") || inc.Has("b") {
		t.Error("Has misreports membership")
	}
}
