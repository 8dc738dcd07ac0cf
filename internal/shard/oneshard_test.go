package shard_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/admission"
	"repro/internal/dataset"
	"repro/internal/shard"
	"repro/internal/stream"
)

// parityConfig runs the defended, client-tracking service at EpochSize 8
// with a rate limit that refills too slowly to matter within a test, so
// a client's bucket admits exactly the batches its burst covers on both
// sides of the comparison.
func parityConfig(dir string) stream.Config {
	cfg := stream.DefaultConfig()
	cfg.EpochSize = 8
	cfg.StatsClients = true
	cfg.BCluster.TrustPenalty = 0.5
	cfg.Admission = admission.Config{RatePerSec: 0.001, Burst: 12}
	cfg.Durability = stream.Durability{Dir: dir, CheckpointEvery: 3, NoSync: true}
	return cfg
}

// jsonOf renders a value for a byte-identity comparison.
func jsonOf(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// untimed zeroes the stats fields that measure wall time or depend on
// when the apply worker dequeued.
func untimed(st stream.Stats) stream.Stats {
	st.UptimeMS = 0
	st.Admission.QueueDelayMs = 0
	st.MaxQueueDepth = 0
	return st
}

// requireParity holds a 1-shard coordinator's served views and stats to
// a bare service's, byte for byte.
func requireParity(t *testing.T, step string, svc *stream.Service, c *shard.Coordinator, md5s []string) {
	t.Helper()
	for _, dim := range []string{"epsilon", "pi", "mu"} {
		sv, serr := svc.EPMClusters(dim)
		cv, cerr := c.EPMClusters(dim)
		if serr != nil || cerr != nil {
			t.Fatalf("%s: %s view: service err %v, coordinator err %v", step, dim, serr, cerr)
		}
		if s, g := jsonOf(t, sv), jsonOf(t, cv); s != g {
			t.Fatalf("%s: %s view diverges:\nservice     %s\ncoordinator %s", step, dim, s, g)
		}
	}
	if s, g := jsonOf(t, svc.BClusters()), jsonOf(t, c.BClusters()); s != g {
		t.Fatalf("%s: B view diverges:\nservice     %s\ncoordinator %s", step, s, g)
	}
	for _, md5 := range md5s {
		sv, sok := svc.Sample(md5)
		cv, cok := c.Sample(md5)
		if s, g := jsonOf(t, sv), jsonOf(t, cv); sok != cok || s != g {
			t.Fatalf("%s: sample %s diverges:\nservice     %v %s\ncoordinator %v %s", step, md5, sok, s, cok, g)
		}
	}
	st := c.Stats()
	if st.Shards != 1 || len(st.PerShard) != 1 {
		t.Fatalf("%s: 1-shard stats report %d shards, %d rows", step, st.Shards, len(st.PerShard))
	}
	if s, g := jsonOf(t, untimed(svc.Stats())), jsonOf(t, untimed(st.Aggregate)); s != g {
		t.Fatalf("%s: stats diverge:\nservice     %s\ncoordinator %s", step, s, g)
	}
}

// TestOneShardParity is the single-serving-path gate: a 1-shard
// coordinator serves exactly what a bare service serves — EPM and B
// views, every sample, and the aggregate stats — after every batch of a
// schedule that mixes loopback batches with two rate-limited clients,
// after a flush, and after both are closed and reopened from disk.
// Errors are the service's own, with no shard prefix.
func TestOneShardParity(t *testing.T) {
	ctx := context.Background()
	svcDir, coordDir := t.TempDir(), t.TempDir()
	open := func() (*stream.Service, *shard.Coordinator) {
		t.Helper()
		svc, err := stream.New(parityConfig(svcDir), fakeEnricher{})
		if err != nil {
			t.Fatal(err)
		}
		c, err := shard.New(shard.Config{Shards: 1, Stream: parityConfig(coordDir)}, fakeEnricher{})
		if err != nil {
			svc.Close()
			t.Fatal(err)
		}
		return svc, c
	}
	svc, c := open()

	events := cleanCorpus(90)
	md5s := map[string]bool{}
	var sorted []string
	for _, e := range events {
		if !md5s[e.Sample.MD5] {
			md5s[e.Sample.MD5] = true
			sorted = append(sorted, e.Sample.MD5)
		}
	}
	clients := []string{"", "client-a", "client-b"}
	sizes := []int{5, 3, 2, 6}
	refused := map[string]int{}
	for at, i := 0, 0; at < len(events); i++ {
		batch := events[at:min(at+sizes[i%len(sizes)], len(events))]
		at += len(batch)
		client := clients[i%len(clients)]
		serr := svc.IngestFrom(ctx, client, batch)
		cerr := c.IngestFrom(ctx, client, batch)
		srej, sok := admission.AsRejection(serr)
		crej, cok := admission.AsRejection(cerr)
		switch {
		case (serr == nil) != (cerr == nil) || sok != cok || sok && srej.Reason != crej.Reason:
			t.Fatalf("batch %d from %q: service err %v, coordinator err %v", i, client, serr, cerr)
		case cerr != nil && !cok:
			t.Fatalf("batch %d from %q: unexpected error %v", i, client, cerr)
		case cerr != nil && strings.Contains(cerr.Error(), "shard"):
			t.Fatalf("batch %d: 1-shard error carries a shard prefix: %v", i, cerr)
		case cerr != nil:
			refused[client]++
		}
		if err := errors.Join(svc.Sync(ctx), c.Sync(ctx)); err != nil {
			t.Fatal(err)
		}
		requireParity(t, fmt.Sprintf("batch %d", i), svc, c, sorted)
	}
	if refused["client-a"] == 0 || refused["client-b"] == 0 || refused[""] != 0 {
		t.Fatalf("refusals by client %v: want some for both named clients and none for the loopback", refused)
	}

	if err := errors.Join(svc.Flush(ctx), c.Flush(ctx)); err != nil {
		t.Fatal(err)
	}
	requireParity(t, "flush", svc, c, sorted)

	svc.Close()
	c.Close()
	svc, c = open()
	t.Cleanup(svc.Close)
	t.Cleanup(c.Close)
	if st := c.Stats().Aggregate; st.Events == 0 {
		t.Fatal("reopened coordinator recovered nothing")
	}
	requireParity(t, "reopen", svc, c, sorted)
}

// TestOneShardKeepsFlatLayout pins the 1-shard on-disk layout: the
// coordinator persists in the root itself with no manifest, so it opens
// a root a bare service wrote (and recovers its events), a sharded open
// still refuses that root, and a root holding a 1-shard manifest from an
// earlier release still opens from shard-0000/.
func TestOneShardKeepsFlatLayout(t *testing.T) {
	events := cleanCorpus(30)
	cfg := coordConfig(8, 1)
	cfg.Stream.Durability = stream.Durability{Dir: t.TempDir(), NoSync: true}

	c := newCoordinator(t, cfg)
	feed(t, c, events, 10)
	c.Close()
	for _, name := range []string{"shards.json", "shard-0000"} {
		if _, err := os.Stat(filepath.Join(cfg.Stream.Durability.Dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("1-shard coordinator wrote %s (stat err %v)", name, err)
		}
	}

	flat := t.TempDir()
	scfg := cfg.Stream
	scfg.Durability.Dir = flat
	svc, err := stream.New(scfg, fakeEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	feedService(t, svc, events)
	cfg.Stream.Durability.Dir = flat
	re := newCoordinator(t, cfg)
	if st := re.Stats().Aggregate; st.Events != len(events) {
		t.Fatalf("1-shard coordinator over a service root recovered %d of %d events", st.Events, len(events))
	}
	re.Close()
	sharded := cfg
	sharded.Shards = 4
	if _, err := shard.New(sharded, fakeEnricher{}); err == nil || !strings.Contains(err.Error(), "pre-sharding") {
		t.Fatalf("-shards 4 over a flat root: err = %v, want refusal", err)
	}

	legacy := t.TempDir()
	scfg.Durability.Dir = filepath.Join(legacy, "shard-0000")
	svc, err = stream.New(scfg, fakeEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	feedService(t, svc, events)
	if err := os.WriteFile(filepath.Join(legacy, "shards.json"), []byte(`{"version":1,"shards":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Stream.Durability.Dir = legacy
	if st := newCoordinator(t, cfg).Stats().Aggregate; st.Events != len(events) {
		t.Fatalf("1-shard manifest root reopened with %d of %d events", st.Events, len(events))
	}
}

// feedService ingests the events into a bare service, flushes and
// closes it.
func feedService(t *testing.T, svc *stream.Service, events []dataset.Event) {
	t.Helper()
	defer svc.Close()
	ctx := context.Background()
	if err := errors.Join(svc.Ingest(ctx, events), svc.Flush(ctx)); err != nil {
		t.Fatal(err)
	}
}
