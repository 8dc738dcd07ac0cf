package shard_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/bcluster"
	"repro/internal/dataset"
	"repro/internal/epm"
	"repro/internal/shard"
)

// engineState is the oracle of the merged-view cache: a fresh merge of
// each component over the shards' live engines, and the per-shard
// engine counters the cache keys read.
type engineState struct {
	epm       [3]*epm.Clustering
	b         *bcluster.Result
	epmEpochs [3][]int
	bCounts   [][2]int // Samples, Epochs
}

func freshMerge(t *testing.T, c *shard.Coordinator) engineState {
	t.Helper()
	var st engineState
	var epmParts [3][]*epm.Incremental
	var bParts []*bcluster.Incremental
	for i := 0; i < c.Shards(); i++ {
		v, release := c.Shard(i).AcquireView()
		defer release()
		for d, eng := range v.EPM {
			epmParts[d] = append(epmParts[d], eng)
			st.epmEpochs[d] = append(st.epmEpochs[d], eng.Epochs())
		}
		bParts = append(bParts, v.B)
		st.bCounts = append(st.bCounts, [2]int{v.B.Samples(), v.B.Epochs()})
	}
	var err error
	for d := range epmParts {
		if st.epm[d], err = epm.Merge(epmParts[d]); err != nil {
			t.Fatal(err)
		}
	}
	if st.b, err = bcluster.Merge(bParts); err != nil {
		t.Fatal(err)
	}
	return st
}

// md5sOn returns n sample MD5s that route to shard k of four.
func md5sOn(k, n int, tag string) []string {
	var out []string
	for i := 0; len(out) < n; i++ {
		if md5 := fmt.Sprintf("md5-%s-%d", tag, i); shard.ShardOf(md5, 4) == k {
			out = append(out, md5)
		}
	}
	return out
}

// TestMergedViewCache holds the coordinator's per-component view cache
// to a fresh epm.Merge and bcluster.Merge over the same shards after
// every step of an interleaved 4-shard schedule with four kinds of
// step:
//   - cross: a batch on one shard whose new samples carry fresh μ
//     values, so it crosses a μ epoch there and nowhere else;
//   - repeat: earlier deliveries again under new event IDs and earlier
//     times, which add no sample (a parked one is re-executed and
//     amended instead);
//   - nosample: events that store no sample;
//   - flush.
//
// It also checks the cache from the inside: a component whose engines
// did not move since the previous step must be served as the same
// object, not a rebuilt copy.
func TestMergedViewCache(t *testing.T) {
	cfg := coordConfig(8, 4)
	// Every value seen twice is an invariant, so a sample's μ pattern
	// keeps its MD5 and a fresh sample never classifies into it.
	cfg.Stream.Thresholds = epm.Thresholds{MinInstances: 2, MinAttackers: 1, MinSensors: 1}
	c := newCoordinator(t, cfg)
	ctx := context.Background()
	dims := []string{"epsilon", "pi", "mu"}

	var (
		prev      engineState
		prevEPM   [3]*epm.Clustering
		prevB     *bcluster.Result
		kept      [4]int // steps that served each component from the cache
		allKept   int    // steps that crossed no EPM epoch anywhere
		delivered []dataset.Event
		next      int
		crosses   int
	)
	check := func(step string) engineState {
		t.Helper()
		if err := c.Sync(ctx); err != nil {
			t.Fatal(err)
		}
		want := freshMerge(t, c)
		var got [3]*epm.Clustering
		stood := 0
		for d, dim := range dims {
			var err error
			if got[d], err = c.EPMClustering(dim); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[d], want.epm[d]) {
				t.Fatalf("%s: cached %s clustering diverges from a fresh merge", step, dim)
			}
			if prevEPM[d] != nil && slices.Equal(want.epmEpochs[d], prev.epmEpochs[d]) {
				if got[d] != prevEPM[d] {
					t.Fatalf("%s: no %s epoch on any shard, yet the clustering was rebuilt", step, dim)
				}
				kept[d]++
				stood++
			}
		}
		if stood == len(dims) {
			allKept++
		}
		gotB, err := c.BResult()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotB, want.b) {
			t.Fatalf("%s: cached B partition diverges from a fresh merge", step)
		}
		if prevB != nil && slices.Equal(want.bCounts, prev.bCounts) {
			if gotB != prevB {
				t.Fatalf("%s: no B sample or epoch on any shard, yet the partition was rebuilt", step)
			}
			kept[3]++
		}

		_, _, _, e, p, m, b := c.Counts()
		if e != len(want.epm[0].Clusters) || p != len(want.epm[1].Clusters) ||
			m != len(want.epm[2].Clusters) || b != len(want.b.Clusters) {
			t.Fatalf("%s: Counts clusters (%d,%d,%d,%d), fresh merge (%d,%d,%d,%d)", step, e, p, m, b,
				len(want.epm[0].Clusters), len(want.epm[1].Clusters), len(want.epm[2].Clusters), len(want.b.Clusters))
		}
		st := c.Stats()
		agg := st.Aggregate
		gotStats := []int{agg.Epsilon.Clusters, agg.Pi.Clusters, agg.Mu.Clusters,
			agg.B.Clusters, agg.B.Samples, agg.B.CandidatePairs, agg.B.Links}
		wantStats := []int{len(want.epm[0].Clusters), len(want.epm[1].Clusters), len(want.epm[2].Clusters),
			len(want.b.Clusters), want.b.Stats.Samples, want.b.Stats.CandidatePairs, want.b.Stats.Links}
		if !slices.Equal(gotStats, wantStats) {
			t.Fatalf("%s: Stats cluster counts %v, fresh merge %v", step, gotStats, wantStats)
		}
		if st.MergeErrors != 0 {
			t.Fatalf("%s: merge errors: %s", step, st.LastMergeError)
		}
		prev, prevEPM, prevB = want, got, gotB
		return want
	}
	samplesOf := func(st engineState) int {
		n := 0
		for _, s := range st.bCounts {
			n += s[0]
		}
		return n
	}

	check("start")
	rng := rand.New(rand.NewSource(29))
	for step := 0; step < 64; step++ {
		before := prev
		var kind string
		var batch []dataset.Event
		switch r := rng.Intn(10); {
		case step == 0 || r < 3:
			k := crosses % 4
			crosses++
			tag := fmt.Sprintf("x%d", step)
			md5s := md5sOn(k, 4, tag)
			for j := 0; j < 8; j++ {
				e := testEvent(next, "v")
				next++
				e.Sample.MD5 = md5s[j%len(md5s)]
				e.Sample.NumSections = 3 + step
				e.TruthVariant = tag
				batch = append(batch, e)
			}
			delivered = append(delivered, batch...)
			if err := c.Ingest(ctx, batch); err != nil {
				t.Fatal(err)
			}
			after := check(fmt.Sprintf("step %d (cross shard %d)", step, k))
			for i := range after.bCounts {
				moved := after.epmEpochs[2][i] != before.epmEpochs[2][i]
				if moved != (i == k) {
					t.Fatalf("step %d: cross batch for shard %d moved shard %d's μ epochs: %v -> %v",
						step, k, i, before.epmEpochs[2], after.epmEpochs[2])
				}
			}
			continue
		case r < 6:
			kind = "repeat"
			for j := 0; j < 2+rng.Intn(3); j++ {
				e := delivered[rng.Intn(len(delivered))]
				e.ID = fmt.Sprintf("ev%04d", next)
				next++
				e.Time = e.Time.Add(-time.Duration(step+1) * time.Hour)
				batch = append(batch, e)
			}
		case r < 9:
			kind = "nosample"
			for j := 0; j < 3+rng.Intn(3); j++ {
				batch = append(batch, testEvent(next, ""))
				next++
			}
		default:
			if err := c.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("step %d (flush)", step))
			continue
		}
		if err := c.Ingest(ctx, batch); err != nil {
			t.Fatal(err)
		}
		after := check(fmt.Sprintf("step %d (%s)", step, kind))
		if samplesOf(after) != samplesOf(before) {
			t.Fatalf("step %d: a %s batch added B samples", step, kind)
		}
	}
	// The identity checks above only bite on steps whose engines stood
	// still; make sure the schedule had enough of them.
	for comp, n := range kept {
		if n < 5 {
			t.Errorf("component %d was served from the cache on %d steps, want at least 5", comp, n)
		}
	}
	if allKept < 5 {
		t.Errorf("%d steps crossed no EPM epoch, want at least 5", allKept)
	}
	// Every execution past a sample's first either amended a parked
	// sample or left a verified one stale.
	if agg := c.Stats().Aggregate; agg.Executed-agg.Samples-agg.StaleProfiles == 0 {
		t.Error("no repeat delivery amended a parked sample")
	}
}

// TestMergedQueryAllocations bounds what a query above one shard
// allocates once the merged views are cached. The counters a merged
// view reports beside its clusters come from the read locks merged()
// already takes, the stable IDs are computed once per merged clustering,
// and the owner of a queried sample resolves its B- and μ-memberships in
// the merged views, so no shard assembles a view or a partition of its
// own for the coordinator to read a few fields from.
func TestMergedQueryAllocations(t *testing.T) {
	c := newCoordinator(t, coordConfig(8, 4))
	var events []dataset.Event
	for i := 0; i < 800; i++ {
		events = append(events, testEvent(i, fmt.Sprintf("v%d", i%50)))
	}
	feed(t, c, events, 50)
	md5 := events[0].Sample.MD5
	if _, err := c.EPMClusters("mu"); err != nil {
		t.Fatal(err)
	}
	epmAllocs := testing.AllocsPerRun(20, func() { c.EPMClusters("mu") })
	bAllocs := testing.AllocsPerRun(20, func() { c.BClusters() })
	sampleAllocs := testing.AllocsPerRun(20, func() { c.Sample(md5) })
	t.Logf("allocations per query at 4 shards, 200 samples: EPMClusters %.0f, BClusters %.0f, Sample %.0f",
		epmAllocs, bAllocs, sampleAllocs)
	if epmAllocs > 11 {
		t.Errorf("EPMClusters allocates %.0f times per query, want at most 11", epmAllocs)
	}
	if sampleAllocs > 20 {
		t.Errorf("Sample allocates %.0f times per query, want at most 20", sampleAllocs)
	}
}
