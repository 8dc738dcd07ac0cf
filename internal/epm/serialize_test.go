package epm

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"testing"
)

func buildClustering(t *testing.T) *Clustering {
	t.Helper()
	s := testSchema()
	instances := mkInstances("a", 15, 4, 4, "mdA", "1000", "92")
	instances = append(instances, mkInstances("b", 15, 4, 4, "mdB", "2000", "80")...)
	for i := 0; i < 12; i++ {
		instances = append(instances, Instance{
			ID:       mkInstances("p", 1, 1, 1, "x", "y", "z")[0].ID + string(rune('0'+i%10)) + string(rune('a'+i)),
			Attacker: mkInstances("q", 1, 1, 1, "x", "y", "z")[0].Attacker,
			Sensor:   "s0",
			Values:   []string{"poly-" + string(rune('a'+i)), "3000", "92"},
		})
	}
	c, err := Run(s, instances, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestJSONRoundTrip(t *testing.T) {
	c := buildClustering(t)
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back clusteringJSON
	if err := json.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Schema, c.Schema) || back.Thresholds != c.Thresholds || !reflect.DeepEqual(back.Stats, c.Stats) {
		t.Error("schema, thresholds or stats lost in round trip")
	}
	// Clusters and their memberships survive.
	if !reflect.DeepEqual(back.Clusters, c.Clusters) {
		t.Fatalf("clusters differ after round trip")
	}
	// Invariants survive, sorted per feature.
	if len(back.Invariants) != len(c.invariants) {
		t.Fatalf("invariant sets = %d, want %d", len(back.Invariants), len(c.invariants))
	}
	for i, vals := range back.Invariants {
		if len(vals) != len(c.invariants[i]) || !sort.StringsAreSorted(vals) {
			t.Fatalf("feature %d invariants = %v", i, vals)
		}
		for _, v := range vals {
			if !c.invariants[i][v] {
				t.Fatalf("feature %d: %q is not an invariant", i, v)
			}
		}
	}
}
