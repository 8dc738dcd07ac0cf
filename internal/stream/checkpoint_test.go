package stream_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/behavior"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/enrich"
	"repro/internal/poison"
	"repro/internal/stream"
)

// checkpointMatchesOracle checkpoints svc and requires the file on disk
// to equal, byte for byte, the state json.Marshal'd whole and sealed —
// the checkpoint writer before it streamed. It returns the file.
func checkpointMatchesOracle(t *testing.T, label string, svc *stream.Service, dir string) []byte {
	t.Helper()
	if err := svc.Checkpoint(context.Background()); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := stream.MarshalCheckpoint(svc)
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(0, i-60)
		t.Fatalf("%s: streamed checkpoint (%d bytes) differs from json.Marshal's (%d bytes) at byte %d:\n got …%s\nwant …%s",
			label, len(got), len(want), i, got[lo:min(len(got), i+60)], want[lo:min(len(want), i+60)])
	}
	return got
}

// durable returns cfg writing checkpoints under a fresh directory.
func durable(t *testing.T, cfg stream.Config) (stream.Config, string) {
	dir := t.TempDir()
	cfg.Durability = stream.Durability{Dir: dir, NoSync: true}
	return cfg, dir
}

// ingestHalves feeds events in batches, checking the checkpoint against
// the oracle mid-stream (pending pools full, nothing flushed) and again
// after the final flush.
func ingestHalves(t *testing.T, label string, svc *stream.Service, dir string, events []dataset.Event, ingest func([]dataset.Event) error) (mid, final []byte) {
	t.Helper()
	half := len(events) / 2
	for _, part := range [][]dataset.Event{events[:half], events[half:]} {
		for lo := 0; lo < len(part); lo += 97 {
			if err := ingest(part[lo:min(len(part), lo+97)]); err != nil {
				t.Fatal(err)
			}
		}
		if mid == nil {
			if err := svc.Sync(context.Background()); err != nil {
				t.Fatal(err)
			}
			mid = checkpointMatchesOracle(t, label+" mid-stream", svc, dir)
		}
	}
	if err := svc.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	return mid, checkpointMatchesOracle(t, label+" flushed", svc, dir)
}

func TestCheckpointBytesEmpty(t *testing.T) {
	cfg, dir := durable(t, testConfig(8))
	svc := newTestService(t, cfg)
	blob := checkpointMatchesOracle(t, "empty", svc, dir)
	if !bytes.HasPrefix(blob, []byte(`{"version":1,"seq":0,"events":[],"counters":`)) {
		t.Fatalf("empty checkpoint %s", blob)
	}
}

// TestCheckpointBytesScenario replays the SmallScenario at epoch sizes
// 1, 64 and all, through its own enrichment pipeline.
func TestCheckpointBytesScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the SmallScenario three times")
	}
	sc := core.SmallScenario()
	batch, err := core.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, epoch := range []int{1, 64, 0} {
		cfg, dir := durable(t, stream.Config{EpochSize: epoch, Thresholds: sc.Thresholds, BCluster: sc.Enrichment.BCluster})
		svc, err := stream.New(cfg, batch.Pipeline)
		if err != nil {
			t.Fatal(err)
		}
		ingestHalves(t, fmt.Sprintf("epoch %d", epoch), svc, dir, batch.Dataset.Events(),
			func(evs []dataset.Event) error { return svc.Ingest(ctx, evs) })
		svc.Close()
	}
}

// TestCheckpointBytesDefended covers the defense and provenance fields:
// a poisoned SmallScenario through a defended service with client
// tracking, checkpointed while samples are still held and parked.
func TestCheckpointBytesDefended(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the poisoned SmallScenario")
	}
	sc := core.SmallScenario()
	sc.Landscape.Poison.Rate = 0.10
	batch, err := core.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	cfg, dir := durable(t, stream.Config{
		EpochSize: 64, Thresholds: sc.Thresholds, BCluster: sc.Enrichment.BCluster,
		Defense: poison.DefaultDefense(), StatsClients: true,
	})
	svc, err := stream.New(cfg, batch.Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	mid, _ := ingestHalves(t, "defended", svc, dir, batch.Dataset.Events(),
		func(evs []dataset.Event) error { return poison.IngestByClient(ctx, svc, evs, 64) })
	for _, field := range []string{`"clients":`, `"sample_clients":`, `"sample_groups":`, `"status":`, `"hold_pair":`, `"distrust":`} {
		if !bytes.Contains(mid, []byte(field)) {
			t.Errorf("mid-stream defended checkpoint has no %s field", field)
		}
	}
}

// TestCheckpointBytesRetryAndQuarantine covers the retry pool and the
// quarantine, checkpointed while samples still wait in the pool.
func TestCheckpointBytesRetryAndQuarantine(t *testing.T) {
	cfg, dir := durable(t, testConfig(8))
	cfg.Retry = stream.Retry{MaxAttempts: 4}
	faulty := enrich.NewFaulty(fakeEnricher{}, enrich.FaultConfig{
		FailFirst: 2, Permanent: map[string]bool{"md5-v0-0": true},
	})
	svc, err := stream.New(cfg, faulty)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	mid, _ := ingestHalves(t, "retry", svc, dir, dirtyCorpus(120),
		func(evs []dataset.Event) error { return svc.Ingest(ctx, evs) })
	for _, field := range []string{`"retry":[`, `"quarantined":{`, `"rejected_by_reason":`, `"recent_errors":`} {
		if !bytes.Contains(mid, []byte(field)) {
			t.Errorf("mid-stream checkpoint has no %s field", field)
		}
	}
}

// escapeEnricher labels and profiles samples with text JSON escapes:
// HTML-significant characters and non-ASCII runes.
type escapeEnricher struct{}

func (escapeEnricher) LabelSample(s *dataset.Sample) error {
	s.AVLabel = "Trojan<W32>&Co." + s.TruthVariant + " — ü"
	s.AVLabels = map[string]string{"vendor<&>": "Wörm.Ω&<x>", "ベンダー": "", "plain": "\u2028line\ttab"}
	return nil
}

func (escapeEnricher) ExecuteSample(s *dataset.Sample) (*behavior.Profile, bool, error) {
	p := behavior.NewProfile()
	for k := 0; k < 4; k++ {
		p.Add(fmt.Sprintf("file<write>&%s-ü%d", s.TruthVariant, k))
	}
	return p, false, nil
}

func TestCheckpointBytesEscapes(t *testing.T) {
	cfg, dir := durable(t, testConfig(8))
	svc, err := stream.New(cfg, escapeEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	events := cleanCorpus(60)
	events[3].Filename = "a<b>&c — ü.exe"
	_, final := ingestHalves(t, "escapes", svc, dir, events,
		func(evs []dataset.Event) error { return svc.Ingest(ctx, evs) })
	for _, want := range []string{`\u003cW32\u003e\u0026`, `ベンダー`, `\u2028`, "ü"} {
		if !strings.Contains(string(final), want) {
			t.Errorf("checkpoint lacks %q", want)
		}
	}
}

// TestCheckpointAllocations is the allocation guard: checkpointing a
// 20k-event service allocates less than half the file's size, where
// copying the state and marshaling it whole allocated 4.5 times
// it. Not parallel: the measure is the process's allocation counter.
func TestCheckpointAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests 20k events")
	}
	cfg, dir := durable(t, testConfig(0))
	svc := newTestService(t, cfg)
	ctx := context.Background()
	events := make([]dataset.Event, 20000)
	for i := range events {
		events[i] = testEvent(i, fmt.Sprintf("v%d", i%7))
		events[i].ID = fmt.Sprintf("ev%06d", i)
		events[i].Sample.MD5 = fmt.Sprintf("md5-%06d", i/2)
	}
	for lo := 0; lo < len(events); lo += 500 {
		if err := svc.Ingest(ctx, events[lo:lo+500]); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := svc.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	fi, err := os.Stat(filepath.Join(dir, "checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("checkpoint of %d bytes allocated %d bytes (%.2fx)", fi.Size(), alloc, float64(alloc)/float64(fi.Size()))
	if fi.Size() < 8<<20 {
		t.Fatalf("checkpoint is only %d bytes; the guard needs a multi-MiB state", fi.Size())
	}
	if alloc*2 >= uint64(fi.Size()) {
		t.Fatalf("checkpoint of %d bytes allocated %d bytes, want < half", fi.Size(), alloc)
	}
}
