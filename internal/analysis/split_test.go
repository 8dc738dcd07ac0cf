package analysis

import (
	"testing"
)

func TestExplainSplitWormClusters(t *testing.T) {
	s := buildScenario(t, 14)
	// Gather the worm's M-clusters through a multi-M B-cluster.
	multi := s.cm.MultiMBClusters(s.b)
	if len(multi) == 0 {
		t.Skip("no multi-M B-cluster")
	}
	var mIdxs []int
	for m := range s.cm.BtoM[multi[0]] {
		mIdxs = append(mIdxs, m)
	}
	if len(mIdxs) < 2 {
		t.Skip("B-cluster maps to fewer than 2 M-clusters")
	}
	splits, err := ExplainSplit(s.mClu, mIdxs)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != len(s.mClu.Schema.Features) {
		t.Fatalf("splits = %d, want one per feature", len(splits))
	}
	// The dominant differentiator for the worm lineage must be the file
	// size (the paper's observation); linker version may contribute.
	if !splits[0].Differentiates() || splits[0].Feature != "File size in bytes" {
		t.Errorf("dominant differentiator = %+v, want file size", splits[0])
	}
	// Sorted by distinct values.
	for i := 1; i < len(splits); i++ {
		if splits[i].DistinctValues > splits[i-1].DistinctValues {
			t.Error("splits not sorted")
		}
	}
	// The file type must NOT differentiate (all worm variants are PE GUI).
	for _, fs := range splits {
		if fs.Feature == "File type according to libmagic signatures" && fs.Differentiates() {
			t.Errorf("file type differentiates worm clusters: %+v", fs)
		}
	}
}

func TestExplainSplitErrors(t *testing.T) {
	s := buildScenario(t, 14)
	if _, err := ExplainSplit(nil, []int{0, 1}); err == nil {
		t.Error("nil clustering must error")
	}
	if _, err := ExplainSplit(s.mClu, []int{0}); err == nil {
		t.Error("single cluster must error")
	}
	if _, err := ExplainSplit(s.mClu, []int{0, 1 << 20}); err == nil {
		t.Error("out-of-range cluster must error")
	}
}
