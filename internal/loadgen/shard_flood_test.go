package loadgen_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/httpapi"
	"repro/internal/loadgen"
	"repro/internal/shard"
	"repro/internal/stream"
)

// shardFloodCfg pins the per-shard service shape for the flood: epochs
// only on flush (apply cost stays linear under load), a shallow queue
// so the flood actually backs up, and two apply workers per shard.
func shardFloodCfg() stream.Config {
	cfg := stream.DefaultConfig()
	cfg.EpochSize = 0
	cfg.QueueDepth = 4
	cfg.Parallelism = 2
	return cfg
}

// shardFloodPlans is the fixed workload both deployments absorb: four
// clients posting back-to-back, distinct sample populations per client.
func shardFloodPlans() []loadgen.ClientPlan {
	var plans []loadgen.ClientPlan
	for c := 0; c < 4; c++ {
		name := fmt.Sprintf("fc%d", c)
		plans = append(plans, loadgen.ClientPlan{
			Name:    name,
			Batches: batches(loadgen.ClientEvents(name, 300), 20),
		})
	}
	return plans
}

// runShardFlood floods a fresh deployment at the given shard count with
// the fixed workload over HTTP, drains it, and returns the coordinator
// (for equivalence checks) and the wall time from first post through
// the completed drain.
func runShardFlood(t *testing.T, shards int, enr stream.Enricher) (*shard.Coordinator, time.Duration) {
	t.Helper()
	c, err := shard.New(shard.Config{Shards: shards, Stream: shardFloodCfg()}, enr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	srv := httptest.NewServer(httpapi.New(func() httpapi.Backend { return c }, httpapi.Options{}))
	t.Cleanup(srv.Close)

	plans := shardFloodPlans()
	total := 0
	for _, p := range plans {
		for _, b := range p.Batches {
			total += len(b)
		}
	}
	start := time.Now()
	rep, err := loadgen.Run(context.Background(), loadgen.Config{BaseURL: srv.URL, Clients: plans})
	if err != nil {
		t.Fatal(err)
	}
	flushHTTP(t, srv.URL)
	elapsed := time.Since(start)

	// No-collapse: with blocking admission every batch lands; nothing is
	// lost to transport errors or unexplained statuses.
	if rep.Accepted() != rep.Submitted() {
		t.Fatalf("shards=%d: accepted %d of %d batches (rejected: %v)",
			shards, rep.Accepted(), rep.Submitted(), rep.RejectedByReason())
	}
	for _, cl := range rep.Clients {
		if cl.Errors != 0 {
			t.Fatalf("shards=%d: client %s saw %d transport errors", shards, cl.Name, cl.Errors)
		}
	}
	st := shardHTTPStats(t, srv.URL)
	if st.Shards != shards {
		t.Fatalf("stats shards = %d, want %d", st.Shards, shards)
	}
	if st.Aggregate.Events != total {
		t.Fatalf("shards=%d: aggregate events %d, want %d", shards, st.Aggregate.Events, total)
	}
	if st.MergeErrors != 0 {
		t.Fatalf("shards=%d: %d merge errors (%s)", shards, st.MergeErrors, st.LastMergeError)
	}
	return c, elapsed
}

// shardHTTPStats decodes the sharded stats shape from /v1/stats.
func shardHTTPStats(t *testing.T, base string) shard.Stats {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	defer resp.Body.Close()
	var st shard.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("stats: decoding: %v", err)
	}
	return st
}

// assertMergedConverged compares the coordinator's post-drain merged
// views against the batch pipeline over the union of the events its
// shards admitted (concatenated in shard order — the merge is proven
// arrival-order independent, and the batch pipeline sees that order).
func assertMergedConverged(t *testing.T, c *shard.Coordinator, cfg stream.Config, enr core.Enricher) {
	t.Helper()
	var events []dataset.Event
	for i := 0; i < c.Shards(); i++ {
		events = append(events, c.Shard(i).Dataset().Events()...)
	}
	batch, err := core.RunEvents(events, enr, cfg.Thresholds, cfg.BCluster, 0)
	if err != nil {
		t.Fatalf("batch reference: %v", err)
	}
	want := map[string]interface{}{
		"epsilon": batch.E.Clusters, "pi": batch.P.Clusters, "mu": batch.M.Clusters,
	}
	for dim, wc := range want {
		got, err := c.EPMClustering(dim)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Clusters, wc) {
			t.Fatalf("merged %s clustering diverged from the batch reference", dim)
		}
	}
	bres, err := c.BResult()
	if err != nil {
		t.Fatal(err)
	}
	if got, wantB := bPartition(bres), bPartition(batch.B); !reflect.DeepEqual(got, wantB) {
		t.Fatalf("merged B partition diverged: got %d clusters, want %d", len(got), len(wantB))
	}
}

// TestShardFloodSmoke is the sharded-throughput harness behind
// `make smoke-shard`: the same multi-client HTTP flood drains through a
// 1-shard and a 4-shard deployment. Both must absorb every batch
// without transport errors, the 4-shard merged views must converge with
// the batch pipeline over the admitted events, and — on a box with the
// cores to show it — the 4-shard drain must run at least twice as fast.
func TestShardFloodSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second flood harness")
	}
	enr := synEnricher{delay: 2 * time.Millisecond}

	_, base := runShardFlood(t, 1, enr)
	c4, sharded := runShardFlood(t, 4, enr)
	assertMergedConverged(t, c4, shardFloodCfg(), enr)

	ratio := float64(base) / float64(sharded)
	t.Logf("flood drain: 1 shard %v, 4 shards %v (%.2fx aggregate speedup, %d CPUs)",
		base.Round(time.Millisecond), sharded.Round(time.Millisecond), ratio, runtime.NumCPU())
	// The CI bound from the issue: >=2x at 4 shards. Enforced only where
	// the hardware can express it; a 1-core box serializes the apply
	// workers and measures the scheduler instead of the sharding.
	if runtime.NumCPU() >= 4 && ratio < 2 {
		t.Fatalf("4-shard flood drained only %.2fx faster than 1 shard (want >=2x)", ratio)
	}
}
