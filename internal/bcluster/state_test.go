package bcluster

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"
)

// snapshot copies a clusterer's state out of the stream a checkpoint
// encodes: EachInput's records, the watermark, and the epoch counter.
func snapshot(inc *Incremental) IncrementalState {
	st := IncrementalState{Inputs: []IncrementalInput{}, Integrated: inc.Samples() - inc.Pending(), Epochs: inc.Epochs()}
	inc.EachInput(func(in *IncrementalInput) {
		c := *in
		c.Features, c.HoldPair = slices.Clone(in.Features), slices.Clone(in.HoldPair)
		st.Inputs = append(st.Inputs, c)
	})
	return st
}

// TestStateRestoreRoundTrip checkpoints an Incremental mid-stream —
// several completed epochs plus a parked tail — and asserts the restored
// instance is indistinguishable: same partition, same probe stats, same
// watermark, and identical behavior on the rest of the stream.
func TestStateRestoreRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	inputs := incCorpus(300)

	build := func(n int) *Incremental {
		inc, err := NewIncremental(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := inc.Add(inputs[i]); err != nil {
				t.Fatal(err)
			}
			if (i+1)%60 == 0 {
				inc.Verify()
			}
		}
		return inc
	}

	orig := build(200) // 3 full epochs + 20 parked
	st := snapshot(orig)
	// The snapshot must survive serialization: it is embedded in the
	// streaming service's JSON checkpoint.
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var decoded IncrementalState
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreIncremental(cfg, decoded)
	if err != nil {
		t.Fatal(err)
	}

	if restored.Pending() != orig.Pending() || restored.Epochs() != orig.Epochs() ||
		restored.Samples() != orig.Samples() || restored.Components() != orig.Components() {
		t.Fatalf("restored pending/epochs/samples/components = %d/%d/%d/%d, want %d/%d/%d/%d",
			restored.Pending(), restored.Epochs(), restored.Samples(), restored.Components(),
			orig.Pending(), orig.Epochs(), orig.Samples(), orig.Components())
	}
	if restored.Stats() != orig.Stats() {
		t.Fatalf("restored stats %+v != %+v", restored.Stats(), orig.Stats())
	}
	if !reflect.DeepEqual(members(restored.Result()), members(orig.Result())) {
		t.Fatal("restored partition diverges")
	}

	// Continue both instances over the remaining stream: every later
	// probe must behave identically.
	for i := 200; i < len(inputs); i++ {
		if err := orig.Add(inputs[i]); err != nil {
			t.Fatal(err)
		}
		if err := restored.Add(inputs[i]); err != nil {
			t.Fatal(err)
		}
	}
	orig.Verify()
	restored.Verify()
	if restored.Stats() != orig.Stats() {
		t.Fatalf("post-restore stats %+v != %+v", restored.Stats(), orig.Stats())
	}
	if !reflect.DeepEqual(members(restored.Result()), members(orig.Result())) {
		t.Fatal("post-restore partition diverges")
	}
}

func TestRestoreIncrementalValidation(t *testing.T) {
	if _, err := RestoreIncremental(DefaultConfig(), IncrementalState{Integrated: 1}); err == nil {
		t.Fatal("watermark beyond the inputs must error")
	}
}

// TestRestoreIncrementalRejectsBadHoldPair: a held input whose hold pair
// names a sample past the watermark is refused. Accepted, it crashed the
// next Verify's release scan with an index out of range.
func TestRestoreIncrementalRejectsBadHoldPair(t *testing.T) {
	cfg := defenseCfg()
	cfg.MergeResistance = 3
	for _, pair := range [][]int{{999999, 0}, {0, 2}, {-1, 0}, {0}, {0, 1, 1}} {
		st := IncrementalState{
			Inputs: []IncrementalInput{
				{ID: "a", Features: []string{"f"}},
				{ID: "b", Features: []string{"g"}, Status: StatusHeld, HoldPair: pair},
			},
			Integrated: 2,
			Epochs:     1,
		}
		if _, err := RestoreIncremental(cfg, st); err == nil {
			t.Fatalf("hold pair %v accepted at watermark 2", pair)
		}
	}
}

// TestRestoreIncrementalRejectsUnknownStatus: a status no clusterer
// records is refused instead of leaving the sample neither linked nor
// quarantined.
func TestRestoreIncrementalRejectsUnknownStatus(t *testing.T) {
	st := IncrementalState{
		Inputs:     []IncrementalInput{{ID: "a", Features: []string{"f"}, Status: StatusDrained + 1}},
		Integrated: 1,
	}
	for _, cfg := range []Config{DefaultConfig(), {Threshold: 0.7, GroupQuorum: 2}} {
		if _, err := RestoreIncremental(cfg, st); err == nil {
			t.Fatalf("config %+v: unknown status accepted", cfg)
		}
	}
}
