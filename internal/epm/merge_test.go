package epm

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"
)

// mergeCorpus builds a corpus dense enough that invariant crossings and
// multi-member patterns occur at the test thresholds.
func mergeCorpus(n int, seed int64) []Instance {
	r := rand.New(rand.NewSource(seed))
	out := make([]Instance, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Instance{
			ID:       fmt.Sprintf("in-%04d", i),
			Attacker: fmt.Sprintf("atk-%d", r.Intn(6)),
			Sensor:   fmt.Sprintf("sn-%d", r.Intn(5)),
			Values: []string{
				fmt.Sprintf("a%d", r.Intn(3)),
				fmt.Sprintf("b%d", r.Intn(5)),
				fmt.Sprintf("c%d", r.Intn(9)),
			},
		})
	}
	return out
}

func mergeSchema() Schema {
	return Schema{Dimension: "epsilon", Features: []string{"fa", "fb", "fc"}}
}

// shardByID mimics the service router: stable hash of the instance ID.
func shardByID(id string, shards int) int {
	h := fnv.New64a()
	h.Write([]byte(id))
	return int(h.Sum64() % uint64(shards))
}

// feedShards distributes the corpus over per-shard engines, running an
// epoch every epochEvery adds plus one final epoch on each engine.
func feedShards(t *testing.T, schema Schema, th Thresholds, corpus []Instance, shards, epochEvery int) []*Incremental {
	t.Helper()
	parts := make([]*Incremental, shards)
	for i := range parts {
		inc, err := NewIncremental(schema, th)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = inc
	}
	for i, in := range corpus {
		p := parts[shardByID(in.ID, shards)]
		if err := p.Add(in); err != nil {
			t.Fatal(err)
		}
		if epochEvery > 0 && i%epochEvery == epochEvery-1 {
			p.Epoch()
		}
	}
	for _, p := range parts {
		p.Epoch()
	}
	return parts
}

func compareMerged(t *testing.T, label string, got, want *Clustering) {
	t.Helper()
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Fatalf("%s: stats diverge:\ngot  %+v\nwant %+v", label, got.Stats, want.Stats)
	}
	if !reflect.DeepEqual(got.Clusters, want.Clusters) {
		t.Fatalf("%s: clusters diverge:\ngot  %+v\nwant %+v", label, got.Clusters, want.Clusters)
	}
	if !reflect.DeepEqual(got.invariants, want.invariants) {
		t.Fatalf("%s: invariant sets diverge", label)
	}
	for _, cl := range want.Clusters {
		for _, id := range cl.InstanceIDs {
			if gi := got.ClusterOf(id); gi != cl.ID {
				t.Fatalf("%s: ClusterOf(%s) = %d, want %d", label, id, gi, cl.ID)
			}
		}
	}
}

// TestMergeMatchesBatch is the differential gate: merging per-shard
// incremental engines is byte-identical to RunParallel over the union,
// for every shard count, epoch schedule, and arrival order.
func TestMergeMatchesBatch(t *testing.T) {
	schema := mergeSchema()
	th := Thresholds{MinInstances: 4, MinAttackers: 2, MinSensors: 2}
	for _, seed := range []int64{1, 7} {
		corpus := mergeCorpus(400, seed)
		batch, err := RunParallel(schema, corpus, th, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 3, 4, 8} {
			for _, epochEvery := range []int{0, 1, 37} {
				for _, order := range []string{"forward", "shuffled"} {
					in := corpus
					if order == "shuffled" {
						in = append([]Instance(nil), corpus...)
						rand.New(rand.NewSource(seed*31)).Shuffle(len(in), func(a, b int) {
							in[a], in[b] = in[b], in[a]
						})
					}
					parts := feedShards(t, schema, th, in, shards, epochEvery)
					merged, err := Merge(parts)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("seed=%d shards=%d epoch=%d order=%s", seed, shards, epochEvery, order)
					compareMerged(t, label, merged, batch)
				}
			}
		}
	}
}

// TestMergeAggregateOnlyCrossing pins the case that breaks a
// pattern-table-only merge: a value that meets the relevance thresholds
// only in aggregate, so every shard recorded a wildcard where the merged
// clustering must split on the value.
func TestMergeAggregateOnlyCrossing(t *testing.T) {
	schema := mergeSchema()
	th := DefaultThresholds() // 10 instances, 3 attackers, 3 sensors
	var corpus []Instance
	// Twelve instances of value "hot" at feature fb: four per shard at
	// shards=3 — below MinInstances per shard, above it in aggregate.
	for i := 0; i < 12; i++ {
		corpus = append(corpus, Instance{
			ID:       fmt.Sprintf("hot-%02d", i),
			Attacker: fmt.Sprintf("atk-%d", i%4),
			Sensor:   fmt.Sprintf("sn-%d", i%4),
			Values:   []string{"a0", "hot", fmt.Sprintf("c%d", i%2)},
		})
	}
	// Background mass making "a0" invariant everywhere so patterns are
	// non-trivial on both sides of the split.
	for i := 0; i < 30; i++ {
		corpus = append(corpus, Instance{
			ID:       fmt.Sprintf("bg-%02d", i),
			Attacker: fmt.Sprintf("atk-%d", i%5),
			Sensor:   fmt.Sprintf("sn-%d", i%5),
			Values:   []string{"a0", fmt.Sprintf("cold-%d", i), "c9"},
		})
	}

	// Round-robin split keeps exactly four "hot" instances per shard.
	const shards = 3
	parts := make([]*Incremental, shards)
	for i := range parts {
		inc, err := NewIncremental(schema, th)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = inc
	}
	for i, in := range corpus {
		if err := parts[i%shards].Add(in); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range parts {
		p.Epoch()
		if p.invariants[1]["hot"] {
			t.Fatal("setup broken: value crossed thresholds inside a single shard")
		}
	}

	merged, err := Merge(parts)
	if err != nil {
		t.Fatal(err)
	}
	if !merged.invariants[1]["hot"] {
		t.Fatal("aggregate-only value did not become invariant in the merge")
	}
	batch, err := RunParallel(schema, corpus, th, 0)
	if err != nil {
		t.Fatal(err)
	}
	compareMerged(t, "aggregate-only crossing", merged, batch)
}

func TestMergeInputValidation(t *testing.T) {
	schema := mergeSchema()
	th := Thresholds{MinInstances: 4, MinAttackers: 2, MinSensors: 2}
	if _, err := Merge(nil); err == nil {
		t.Fatal("merge of zero parts did not fail")
	}

	a, _ := NewIncremental(schema, th)
	b, _ := NewIncremental(schema, Thresholds{MinInstances: 5, MinAttackers: 2, MinSensors: 2})
	if _, err := Merge([]*Incremental{a, b}); err == nil {
		t.Fatal("mismatched thresholds did not fail")
	}

	other, _ := NewIncremental(Schema{Dimension: "pi", Features: []string{"fa", "fb", "fc"}}, th)
	if _, err := Merge([]*Incremental{a, other}); err == nil {
		t.Fatal("mismatched schemas did not fail")
	}

	dupA, _ := NewIncremental(schema, th)
	dupB, _ := NewIncremental(schema, th)
	in := Instance{ID: "dup", Attacker: "atk", Sensor: "sn", Values: []string{"a", "b", "c"}}
	if err := dupA.Add(in); err != nil {
		t.Fatal(err)
	}
	if err := dupB.Add(in); err != nil {
		t.Fatal(err)
	}
	dupA.Epoch()
	dupB.Epoch()
	if _, err := Merge([]*Incremental{dupA, dupB}); err == nil {
		t.Fatal("duplicate instance ID across parts did not fail")
	}
}
