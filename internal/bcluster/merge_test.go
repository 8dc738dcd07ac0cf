package bcluster

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/behavior"
)

// feedParts distributes the corpus over per-shard incremental clusterers
// by a stable hash of the sample ID, verifying every verifyEvery adds
// plus a final epoch per shard.
func feedParts(t *testing.T, inputs []Input, cfg Config, shards, verifyEvery int) []*Incremental {
	t.Helper()
	parts := make([]*Incremental, shards)
	for i := range parts {
		inc, err := NewIncremental(cfg)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = inc
	}
	for i, in := range inputs {
		h := fnv.New64a()
		h.Write([]byte(in.ID))
		p := parts[h.Sum64()%uint64(shards)]
		if err := p.Add(in); err != nil {
			t.Fatal(err)
		}
		if verifyEvery > 0 && i%verifyEvery == verifyEvery-1 {
			p.Verify()
		}
	}
	for _, p := range parts {
		p.Verify()
	}
	return parts
}

// TestMergeMatchesBatchPartition is the shard-merge differential gate:
// the merged clusters are byte-identical to Run over the union at every
// shard count and verification cadence.
func TestMergeMatchesBatchPartition(t *testing.T) {
	cfg := DefaultConfig()
	inputs := incCorpus(400)
	batch, err := Run(inputs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 3, 4, 8} {
		for _, verifyEvery := range []int{0, 1, 53} {
			parts := feedParts(t, inputs, cfg, shards, verifyEvery)
			merged, err := Merge(parts)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("shards=%d verify=%d", shards, verifyEvery)
			if !reflect.DeepEqual(merged.Clusters, batch.Clusters) {
				t.Fatalf("%s: merged clusters diverge from batch", label)
			}
			if merged.Stats.Samples != batch.Stats.Samples {
				t.Fatalf("%s: samples %d, want %d", label, merged.Stats.Samples, batch.Stats.Samples)
			}
			for _, c := range batch.Clusters {
				for _, id := range c.Members {
					if got := merged.ClusterOf(id); got != c.ID {
						t.Fatalf("%s: ClusterOf(%s) = %d, want %d", label, id, got, c.ID)
					}
				}
			}
		}
	}
}

// crossProfile builds a profile of shared features plus a distinct tail,
// giving precise control over pairwise Jaccard similarity.
func crossProfile(core string, shared int, tag string, distinct int) *behavior.Profile {
	p := behavior.NewProfile()
	for i := 0; i < shared; i++ {
		p.Add(fmt.Sprintf("%s-core-%d", core, i))
	}
	for i := 0; i < distinct; i++ {
		p.Add(fmt.Sprintf("%s-own-%d", tag, i))
	}
	return p
}

// TestMergeCrossShardCollisions engineers every pair that shares a
// prefix token to straddle the shard boundary: similar pairs, a sub-threshold colliding
// pair, and a transitive chain all have their endpoints on different
// shards, so the per-shard probes see nothing and the merge must find
// every link. Clusters and Stats are asserted byte-identical to Run on
// the union.
func TestMergeCrossShardCollisions(t *testing.T) {
	cfg := DefaultConfig()
	inputs := []Input{
		// a≈b at Jaccard 20/24 ≈ 0.83: linked across the boundary.
		{ID: "a", Profile: crossProfile("ab", 20, "a", 2)},
		{ID: "b", Profile: crossProfile("ab", 20, "b", 2)},
		// c~d at Jaccard 15/25 = 0.6: shares prefix tokens, fails
		// verification — exercises the cross-shard failed-pair stamp.
		{ID: "c", Profile: crossProfile("cd", 15, "c", 5)},
		{ID: "d", Profile: crossProfile("cd", 15, "d", 5)},
		// e≈f≈g: a chain whose closure spans both shards; e and g land
		// on the same shard and link there, f joins across the boundary.
		{ID: "e", Profile: crossProfile("efg", 22, "e", 1)},
		{ID: "f", Profile: crossProfile("efg", 22, "f", 1)},
		{ID: "g", Profile: crossProfile("efg", 22, "g", 1)},
		// h: unrelated singleton.
		{ID: "h", Profile: crossProfile("h", 9, "h", 0)},
	}
	batch, err := Run(inputs, cfg)
	if err != nil {
		t.Fatal(err)
	}

	parts := make([]*Incremental, 2)
	for i := range parts {
		if parts[i], err = NewIncremental(cfg); err != nil {
			t.Fatal(err)
		}
	}
	assign := map[string]int{"a": 0, "b": 1, "c": 0, "d": 1, "e": 0, "f": 1, "g": 0, "h": 1}
	for _, in := range inputs {
		if err := parts[assign[in.ID]].Add(in); err != nil {
			t.Fatal(err)
		}
	}
	intraPairs := 0
	for _, p := range parts {
		p.Verify()
		intraPairs += p.stats.CandidatePairs
	}

	merged, err := Merge(parts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged.Clusters, batch.Clusters) {
		t.Fatalf("merged clusters diverge:\ngot  %+v\nwant %+v", merged.Clusters, batch.Clusters)
	}
	if !reflect.DeepEqual(merged.Stats, batch.Stats) {
		t.Fatalf("merged stats diverge:\ngot  %+v\nwant %+v", merged.Stats, batch.Stats)
	}
	if merged.Stats.CandidatePairs <= intraPairs {
		t.Fatalf("no cross-shard candidates probed: %d total vs %d intra-shard",
			merged.Stats.CandidatePairs, intraPairs)
	}
	if merged.ClusterOf("a") != merged.ClusterOf("b") {
		t.Fatal("cross-shard pair a/b not linked")
	}
	if merged.ClusterOf("c") == merged.ClusterOf("d") {
		t.Fatal("sub-threshold pair c/d linked")
	}
	for _, id := range []string{"f", "g"} {
		if merged.ClusterOf("e") != merged.ClusterOf(id) {
			t.Fatalf("chain member %s not in e's cluster", id)
		}
	}
}

// TestMergeLinksPairsPastTheFirstPart checks that every part probes the
// indexes of all the parts before it: a similar pair whose endpoints sit
// on the second and third parts links although the first part holds
// nothing related.
func TestMergeLinksPairsPastTheFirstPart(t *testing.T) {
	cfg := DefaultConfig()
	parts := make([]*Incremental, 3)
	for i, in := range []Input{
		{ID: "x", Profile: crossProfile("x", 9, "x", 0)},
		{ID: "a", Profile: crossProfile("ab", 20, "a", 2)},
		{ID: "b", Profile: crossProfile("ab", 20, "b", 2)},
	} {
		p, err := NewIncremental(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Add(in); err != nil {
			t.Fatal(err)
		}
		p.Verify()
		parts[i] = p
	}
	merged, err := Merge(parts)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Clusters) != 2 || merged.ClusterOf("a") != merged.ClusterOf("b") {
		t.Fatalf("pair a/b on parts 1 and 2 not linked: %+v", merged.Clusters)
	}
}

// TestMergeParkedSamplesStaySingletons checks that samples still parked
// on their shard surface as singletons, exactly as in the shard's own
// Result.
func TestMergeParkedSamplesStaySingletons(t *testing.T) {
	cfg := DefaultConfig()
	a, _ := NewIncremental(cfg)
	b, _ := NewIncremental(cfg)
	if err := a.Add(Input{ID: "x", Profile: crossProfile("xy", 20, "x", 2)}); err != nil {
		t.Fatal(err)
	}
	a.Verify()
	// y is similar to x but parked on the other shard: no link yet.
	if err := b.Add(Input{ID: "y", Profile: crossProfile("xy", 20, "y", 2)}); err != nil {
		t.Fatal(err)
	}
	merged, err := Merge([]*Incremental{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Stats.Samples != 2 || len(merged.Clusters) != 2 {
		t.Fatalf("want two singletons, got %+v", merged.Clusters)
	}
	b.Verify()
	merged, err = Merge([]*Incremental{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Clusters) != 1 {
		t.Fatalf("after verify, want one cluster, got %+v", merged.Clusters)
	}
}

func TestMergeInputValidation(t *testing.T) {
	if _, err := Merge(nil); err == nil {
		t.Fatal("merge of zero parts did not fail")
	}
	cfg := DefaultConfig()
	a, _ := NewIncremental(cfg)
	other := cfg
	other.Threshold = 0.8
	b, _ := NewIncremental(other)
	if _, err := Merge([]*Incremental{a, b}); err == nil {
		t.Fatal("mismatched configs did not fail")
	}
	c, _ := NewIncremental(cfg)
	d, _ := NewIncremental(cfg)
	for _, p := range []*Incremental{c, d} {
		if err := p.Add(Input{ID: "dup", Profile: behavior.NewProfile()}); err != nil {
			t.Fatal(err)
		}
		p.Verify()
	}
	if _, err := Merge([]*Incremental{c, d}); err == nil {
		t.Fatal("duplicate sample ID across parts did not fail")
	}
}
