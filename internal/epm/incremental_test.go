package epm

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// randomStream builds a seeded instance stream whose feature values cross
// the relevance thresholds at staggered points, so a replay exercises
// both the delta path and the full-regroup fallback.
func randomStream(seed int64, n int) (Schema, []Instance) {
	schema := Schema{
		Dimension: "diff",
		Features:  []string{"f0", "f1", "f2", "f3"},
	}
	r := rand.New(rand.NewSource(seed))
	ins := make([]Instance, n)
	for i := range ins {
		vals := make([]string, len(schema.Features))
		for fi := range vals {
			// Small value pools with feature-dependent skew: common values
			// cross thresholds early, rare ones late or never.
			pool := 2 + fi*3
			v := r.Intn(pool)
			if r.Intn(10) == 0 {
				v = pool + r.Intn(50) // long-tail values that rarely recur
			}
			vals[fi] = fmt.Sprintf("f%d-v%d", fi, v)
		}
		ins[i] = Instance{
			// Random ID prefix forces mid-slice sorted inserts on the
			// delta path instead of pure appends.
			ID:       fmt.Sprintf("%02d-i%05d", r.Intn(100), i),
			Attacker: fmt.Sprintf("a%d", r.Intn(7)),
			Sensor:   fmt.Sprintf("s%d", r.Intn(5)),
			Values:   vals,
		}
	}
	return schema, ins
}

func marshalClustering(t *testing.T, c *Clustering) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIncrementalMatchesRunParallel is the tentpole differential gate:
// at every epoch boundary, the incremental engine's clustering must be
// byte-identical to RunParallel over the same prefix — clusters, stats,
// serialized bytes, instance lookup, and classification behavior.
func TestIncrementalMatchesRunParallel(t *testing.T) {
	const n = 700
	schema, ins := randomStream(42, n)
	th := DefaultThresholds()
	for _, epochSize := range []int{1, 7, 64, n} {
		t.Run(fmt.Sprintf("epoch=%d", epochSize), func(t *testing.T) {
			inc, err := NewIncremental(schema, th)
			if err != nil {
				t.Fatal(err)
			}
			sawDelta, sawFull := false, false
			for i, in := range ins {
				if err := inc.Add(in); err != nil {
					t.Fatal(err)
				}
				if inc.Pending() < epochSize && i != len(ins)-1 {
					continue
				}
				got, full := inc.Epoch()
				if full {
					sawFull = true
				} else {
					sawDelta = true
				}
				want, err := RunParallel(schema, ins[:i+1], th, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Clusters, want.Clusters) {
					t.Fatalf("epoch at %d: clusters diverge", i+1)
				}
				if !reflect.DeepEqual(got.Stats, want.Stats) {
					t.Fatalf("epoch at %d: stats diverge\n got %+v\nwant %+v", i+1, got.Stats, want.Stats)
				}
				if gb, wb := marshalClustering(t, got), marshalClustering(t, want); !bytes.Equal(gb, wb) {
					t.Fatalf("epoch at %d: serialized bytes diverge", i+1)
				}
				for _, in := range ins[:i+1] {
					if g, w := got.ClusterOf(in.ID), want.ClusterOf(in.ID); g != w {
						t.Fatalf("epoch at %d: ClusterOf(%q) = %d, want %d", i+1, in.ID, g, w)
					}
					gp, gi, gok := got.Classify(in.Values)
					wp, wi, wok := want.Classify(in.Values)
					if gok != wok || gi != wi || gp.Key() != wp.Key() {
						t.Fatalf("epoch at %d: Classify(%v) diverges", i+1, in.Values)
					}
				}
				if got.ClusterOf("absent") != -1 {
					t.Fatal("ClusterOf of unknown ID must be -1")
				}
				if g, w := got.TotalInvariants(), want.TotalInvariants(); g != w {
					t.Fatalf("epoch at %d: TotalInvariants %d != %d", i+1, g, w)
				}
			}
			if inc.Epochs() != inc.DeltaEpochs()+inc.FullRegroups() {
				t.Fatalf("epoch accounting: %d != %d + %d",
					inc.Epochs(), inc.DeltaEpochs(), inc.FullRegroups())
			}
			if !sawFull {
				t.Fatal("stream never exercised the full-regroup fallback")
			}
			if epochSize <= 64 && !sawDelta {
				t.Fatal("stream never exercised the delta path")
			}
			if epochSize == n && inc.FullRegroups() != inc.Epochs() {
				t.Fatal("single-epoch run must be a full regroup")
			}
		})
	}
}

// TestIncrementalMultipleSeeds widens the property over more streams at a
// coarser epoch size.
func TestIncrementalMultipleSeeds(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		schema, ins := randomStream(seed, 300)
		th := DefaultThresholds()
		inc, err := NewIncremental(schema, th)
		if err != nil {
			t.Fatal(err)
		}
		for i, in := range ins {
			if err := inc.Add(in); err != nil {
				t.Fatal(err)
			}
			if inc.Pending() < 23 && i != len(ins)-1 {
				continue
			}
			got, _ := inc.Epoch()
			want, err := RunParallel(schema, ins[:i+1], th, 0)
			if err != nil {
				t.Fatal(err)
			}
			if gb, wb := marshalClustering(t, got), marshalClustering(t, want); !bytes.Equal(gb, wb) {
				t.Fatalf("seed %d, epoch at %d: serialized bytes diverge", seed, i+1)
			}
		}
	}
}

func TestIncrementalAddValidation(t *testing.T) {
	schema := Schema{Dimension: "d", Features: []string{"f0"}}
	inc, err := NewIncremental(schema, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	ok := Instance{ID: "a", Attacker: "x", Sensor: "y", Values: []string{"v"}}
	if err := inc.Add(ok); err != nil {
		t.Fatal(err)
	}
	bad := []Instance{
		{ID: "", Attacker: "x", Sensor: "y", Values: []string{"v"}},
		{ID: "a", Attacker: "x", Sensor: "y", Values: []string{"v"}}, // duplicate
		{ID: "b", Attacker: "", Sensor: "y", Values: []string{"v"}},
		{ID: "c", Attacker: "x", Sensor: "", Values: []string{"v"}},
		{ID: "d", Attacker: "x", Sensor: "y", Values: []string{"v", "w"}},
		{ID: "e", Attacker: "x", Sensor: "y", Values: []string{Wildcard}},
	}
	for i, in := range bad {
		if err := inc.Add(in); err == nil {
			t.Fatalf("bad instance %d accepted", i)
		}
	}
	if inc.Len() != 1 {
		t.Fatalf("Len = %d after rejections, want 1", inc.Len())
	}
	if inc.cur != nil {
		t.Fatal("no clustering may exist before the first epoch")
	}
	if _, err := NewIncremental(Schema{}, DefaultThresholds()); err == nil {
		t.Fatal("invalid schema must error")
	}
	if _, err := NewIncremental(schema, Thresholds{}); err == nil {
		t.Fatal("invalid thresholds must error")
	}
}

// TestIgroupInsert pins the sorted-insert helper on its three paths:
// empty, append, and mid-slice insert.
func TestIgroupInsert(t *testing.T) {
	g := &igroup{}
	for _, id := range []string{"m", "z", "a", "q", "b"} {
		g.insert(id)
	}
	want := []string{"a", "b", "m", "q", "z"}
	if !reflect.DeepEqual(g.ids, want) {
		t.Fatalf("ids = %v, want %v", g.ids, want)
	}
	if got := strings.Join(g.ids, ","); got != "a,b,m,q,z" {
		t.Fatalf("joined = %q", got)
	}
}
