package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/behavior"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/enrich"
	"repro/internal/shard"
	"repro/internal/stream"
)

// TestConvergeStreamFailsMidStream is the -replay exit-path regression:
// a replay that dies mid-stream (service closed under it) must surface
// a clear error instead of a partial comparison, and an unclean replay
// (quarantined samples) must fail the gate even when event counts look
// plausible.
func TestConvergeStreamFailsMidStream(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the SmallScenario batch pipeline")
	}
	res, err := core.Run(core.SmallScenario())
	if err != nil {
		t.Fatal(err)
	}
	cfg := stream.Config{
		EpochSize:  64,
		Thresholds: core.SmallScenario().Thresholds,
		BCluster:   core.SmallScenario().Enrichment.BCluster,
	}
	svc, err := stream.New(cfg, res.Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	svc.Close() // the next Ingest fails -> mid-stream replay failure
	err = convergeStream(svc, res, 97)
	if err == nil || !strings.Contains(err.Error(), "mid-stream") {
		t.Fatalf("convergeStream on a dead service: %v, want mid-stream failure", err)
	}

	// Unclean replay: one sample permanently quarantined.
	victim := res.Dataset.Samples()[0].MD5
	faulty := enrich.NewFaulty(res.Pipeline, enrich.FaultConfig{Permanent: map[string]bool{victim: true}})
	svc2, err := stream.New(cfg, faulty)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	err = convergeStream(svc2, res, 97)
	if err == nil || !strings.Contains(err.Error(), "unclean replay") {
		t.Fatalf("convergeStream with a quarantined sample: %v, want unclean-replay failure", err)
	}
}

// nopEnricher labels and executes nothing; the layout tests ingest
// events without samples, so it is never called.
type nopEnricher struct{}

func (nopEnricher) LabelSample(*dataset.Sample) error { return nil }
func (nopEnricher) ExecuteSample(*dataset.Sample) (*behavior.Profile, bool, error) {
	return nil, false, nil
}

// shardedRoot writes a 3-shard durable deployment holding 21 events and
// returns its root.
func shardedRoot(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	scfg := stream.DefaultConfig()
	scfg.Durability = stream.Durability{Dir: root, NoSync: true}
	c, err := shard.New(shard.Config{Shards: 3, Stream: scfg}, nopEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	events := make([]dataset.Event, 21)
	for i := range events {
		events[i] = dataset.Event{ID: fmt.Sprintf("ev%02d", i), Time: time.Unix(int64(i), 0), Attacker: "10.0.0.1", Sensor: "s0"}
	}
	if err := c.Ingest(context.Background(), events); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	return root
}

// TestVerifyWALRefusesBadShardCount: a manifest naming no shards, or a
// negative number, must fail the offline walk instead of verifying
// nothing and exiting 0.
func TestVerifyWALRefusesBadShardCount(t *testing.T) {
	for _, n := range []int{0, -3} {
		root := t.TempDir()
		raw := fmt.Sprintf(`{"version":1,"shards":%d}`, n)
		if err := os.WriteFile(filepath.Join(root, "shards.json"), []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := verifyWAL(root); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Errorf("shards=%d: verifyWAL = %v, want a refusal", n, err)
		}
	}
}

// TestVerifyWALRefusesShardDirsWithoutManifest: with the manifest gone,
// the walk must not read the empty root as a flat layout and report
// every frame verified.
func TestVerifyWALRefusesShardDirsWithoutManifest(t *testing.T) {
	root := shardedRoot(t)
	if err := verifyWAL(root); err != nil {
		t.Fatalf("intact 3-shard root: %v", err)
	}
	if err := os.Remove(filepath.Join(root, "shards.json")); err != nil {
		t.Fatal(err)
	}
	if err := verifyWAL(root); err == nil || !strings.Contains(err.Error(), "no shards.json") {
		t.Fatalf("verifyWAL without the manifest = %v, want a refusal", err)
	}
}

// TestOneShardOpenRefusesShardedRoot: the default -shards 1 over a
// sharded root must refuse instead of opening an empty service.
func TestOneShardOpenRefusesShardedRoot(t *testing.T) {
	root := shardedRoot(t)
	cfg := stream.DefaultConfig()
	cfg.Durability = stream.Durability{Dir: root, NoSync: true}
	b, _, err := newBackend(cfg, 1, nil)
	if err == nil {
		b.Close()
		t.Fatal("-shards 1 opened a 3-shard root")
	}
	if !strings.Contains(err.Error(), "-shards 3") {
		t.Fatalf("error %q does not name the layout's shard count", err)
	}
}
