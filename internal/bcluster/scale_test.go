package bcluster_test

import (
	"fmt"
	"testing"

	"repro/internal/bcluster"
	"repro/internal/benchdata"
)

// TestRunAtScaleFindsEveryFamily pins exactness at scale: the
// benchdata.Profiles corpus has 25 families whose members share 18 core
// features and carry 0–2 noise features, so any two members of a family
// are at Jaccard >= 18/22 and every family is one cluster. A clusterer
// that misses a link splits a member off as a false singleton, the
// signal the paper reads as a clustering anomaly.
func TestRunAtScaleFindsEveryFamily(t *testing.T) {
	for _, n := range []int{50000, 100000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			if n > 50000 && testing.Short() {
				t.Skip("100k corpus skipped under -short")
			}
			res, err := bcluster.Run(benchdata.Profiles(n), bcluster.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if got := len(res.Clusters); got != 25 {
				t.Fatalf("Run(Profiles(%d)) gives %d clusters, want the 25 families (%d singletons)", n, got, len(res.Singletons()))
			}
		})
	}
}
