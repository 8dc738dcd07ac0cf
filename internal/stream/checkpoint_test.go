package stream_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/behavior"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/enrich"
	"repro/internal/poison"
	"repro/internal/stream"
	"repro/internal/wal"
)

// checkpointMatchesOracle checkpoints svc and requires the file on disk
// to be a sealed version-2 checkpoint whose payload equals, byte for
// byte, the state json.Marshal'd whole — the checkpoint writer before it
// streamed — and whose size is the one the service reports. It returns
// the payload.
func checkpointMatchesOracle(t *testing.T, label string, svc *stream.Service, dir string) []byte {
	t.Helper()
	if err := svc.Checkpoint(context.Background()); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	got := checkpointPayload(t, filepath.Join(dir, "checkpoint.json"))
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
	if n := svc.Stats().WAL.LastCheckpointPayloadBytes; n != int64(len(got)) {
		t.Fatalf("%s: the service reports a %d-byte payload, the file holds %d", label, n, len(got))
	}
	return got
}

// checkpointPayload reads the checkpoint file at path, which must be in
// version-2 framing and sealed, and returns its inflated payload.
func checkpointPayload(t testing.TB, path string) []byte {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) == 0 || blob[0] != 0x89 {
		t.Fatalf("%s does not open with the version-2 magic", path)
	}
	payload, err := io.ReadAll(ckpt.NewReader(bytes.NewReader(blob)))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if err := ckpt.DecodeSealed(bytes.NewReader(blob), func(dec *json.Decoder) error { return dec.Decode(new(json.RawMessage)) }); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return payload
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
	if !bytes.HasPrefix(blob, []byte(`{"version":2,"seq":0,"events":[],"counters":`)) {
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
		EpochSize: 64, Thresholds: sc.Thresholds, BCluster: poison.DefaultDefense(sc.Enrichment.BCluster),
		StatsClients: true,
	})
	svc, err := stream.New(cfg, batch.Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	mid, _ := ingestHalves(t, "defended", svc, dir, batch.Dataset.Events(),
		func(evs []dataset.Event) error { return poison.IngestByClient(ctx, svc, evs, 64) })
	for _, field := range []string{`"clients":`, `"sample_clients":`, `"status":`, `"hold_pair":`, `"distrust":`} {
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
// 20k-event service allocates less than half the payload's size, where
// copying the state and marshaling it whole allocated 4.5 times it. The
// measured checkpoint is the service's first, so the count includes the
// compressor and buffers the service then keeps. Not parallel: the
// measure is the process's allocation counter.
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
	payload := svc.Stats().WAL.LastCheckpointPayloadBytes
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("checkpoint of a %d-byte payload (a %d-byte file) allocated %d bytes (%.2fx the payload)", payload, fi.Size(), alloc, float64(alloc)/float64(payload))
	if payload < 8<<20 {
		t.Fatalf("checkpoint payload is only %d bytes; the guard needs a multi-MiB state", payload)
	}
	if alloc*2 >= uint64(payload) {
		t.Fatalf("checkpoint of a %d-byte payload allocated %d bytes, want < half", payload, alloc)
	}
}

// pinEnricher gives each sample of variant v a profile of six features
// that need JSON escapes plus one that every variant shares, and the
// samples of variant "empty" an executed, empty profile and no AV label,
// so their checkpoint record carries nothing but the MD5 and the empty
// set.
type pinEnricher struct{}

func (pinEnricher) LabelSample(s *dataset.Sample) error {
	if s.TruthVariant != "empty" {
		s.AVLabel = "Pin." + s.TruthVariant
	}
	return nil
}

func (pinEnricher) ExecuteSample(s *dataset.Sample) (*behavior.Profile, bool, error) {
	p := behavior.NewProfile()
	if s.TruthVariant == "empty" {
		return p, false, nil
	}
	for k := 0; k < 6; k++ {
		p.Add(fmt.Sprintf("reg<%s>&\"k%d\"\\ü\u2028", s.TruthVariant, k))
	}
	p.Add(`file-create|C:\shared.exe`)
	return p, false, nil
}

// pinnedCorpus is the fixed corpus TestCheckpointBytesPinned checkpoints.
func pinnedCorpus() []dataset.Event {
	variants := []string{"v0", "v1", "empty", "v2", "v3"}
	events := make([]dataset.Event, 0, 60)
	for i := 0; i < 60; i++ {
		e := testEvent(i, variants[i%5])
		e.Sample.MD5 = fmt.Sprintf("md5-%s-%d", variants[i%5], i%4)
		events = append(events, e)
	}
	return events
}

// pinnedService feeds the pinned corpus through a fresh durable service,
// checkpointing mid-stream and flushed, and returns the service, its
// config, and both payloads.
func pinnedService(t *testing.T) (svc *stream.Service, cfg stream.Config, dir string, mid, final []byte) {
	t.Helper()
	cfg, dir = durable(t, testConfig(8))
	svc, err := stream.New(cfg, pinEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ctx := context.Background()
	mid, final = ingestHalves(t, "pinned", svc, dir, pinnedCorpus(),
		func(evs []dataset.Event) error { return svc.Ingest(ctx, evs) })
	return svc, cfg, dir, mid, final
}

// TestCheckpointBytesPinned pins the payload of a fixed corpus's
// checkpoint, mid-stream and flushed, to SHA-256 sums: the version-2
// format, escapes, the sets table and the empty set included. A service
// recovered from the flushed checkpoint writes it again, byte for byte.
func TestCheckpointBytesPinned(t *testing.T) {
	const (
		wantMid   = "7a8048c0823961617d2ba125d99c185749212bf49ff328779abc95941cb9ea38"
		wantFinal = "5693e1bd1685f75d5f58287d3971b7428ff7b7d7eb94d2945fb0127716e8def9"
	)
	svc, cfg, dir, mid, final := pinnedService(t)
	if !bytes.Contains(final, []byte(`"sets":[[],`)) || !bytes.Contains(final, []byte(`{"md5":"md5-empty-0","set":0}`)) {
		t.Error("the executed sample with an empty profile does not refer to the empty set")
	}
	file, err := os.ReadFile(filepath.Join(dir, "checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	re, err := stream.New(cfg, pinEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if again := checkpointMatchesOracle(t, "recovered", re, dir); !bytes.Equal(again, final) {
		t.Error("the recovered service's checkpoint differs from the one it recovered from")
	}
	if again, err := os.ReadFile(filepath.Join(dir, "checkpoint.json")); err != nil || !bytes.Equal(again, file) {
		t.Errorf("the recovered service's checkpoint file differs from the one it recovered from (%v)", err)
	}
	for _, c := range []struct {
		name string
		blob []byte
		want string
	}{{"mid-stream", mid, wantMid}, {"flushed", final, wantFinal}} {
		if got := fmt.Sprintf("%x", sha256.Sum256(c.blob)); got != c.want {
			t.Errorf("%s checkpoint payload sha256 %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCheckpointV1Upgrade: the pinned corpus's flushed checkpoint as the
// version-1 writer wrote it (testdata/checkpoint-v1.json, the file the
// version-1 pin held) restores to the uninterrupted service's views,
// and the recovered service's next checkpoint is the version-2 file that
// service wrote. A corrupt version-2 live checkpoint falls back to the
// version-1 file as a generation.
func TestCheckpointV1Upgrade(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "checkpoint-v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(v1)); got != "b4847019359aed02e9e92055ae32447e299577697fa9b8f62d9a5fd949108a1d" {
		t.Fatalf("version-1 fixture sha256 %s, want the version-1 pin", got)
	}
	want, cfg, wantDir, _, final := pinnedService(t)
	wantFile, err := os.ReadFile(filepath.Join(wantDir, "checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := bytes.Clone(wantFile)
	corrupt[len(corrupt)/2] ^= 0x40
	for _, c := range []struct {
		name  string
		files map[string][]byte
	}{
		{"live", map[string][]byte{"checkpoint.json": v1}},
		{"generation", map[string][]byte{"checkpoint.json": corrupt, "checkpoint.json.1": v1}},
	} {
		dir := t.TempDir()
		// The log the pinned run wrote held two batches and a flush, all
		// covered by the checkpoint: recovery only needs it to reach seq 3.
		log, err := wal.Open(wal.Options{Dir: dir, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := log.Append([]byte(`{"kind":"flush"}`)); err != nil {
				t.Fatal(err)
			}
		}
		log.Close()
		for name, blob := range c.files {
			if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		rcfg := cfg
		rcfg.Durability.Dir = dir
		re, err := stream.New(rcfg, pinEnricher{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		compareServices(t, c.name, re, want)
		st := re.Stats()
		if st.WAL.RecoveredRecords != 0 {
			t.Fatalf("%s: replayed %d records past the version-1 checkpoint, want 0", c.name, st.WAL.RecoveredRecords)
		}
		if c.name == "live" {
			if got := checkpointMatchesOracle(t, "upgraded", re, dir); !bytes.Equal(got, final) {
				t.Fatal("the upgraded service's checkpoint payload differs from the uninterrupted service's")
			}
			if got, err := os.ReadFile(filepath.Join(dir, "checkpoint.json")); err != nil || !bytes.Equal(got, wantFile) {
				t.Fatalf("the upgraded service's checkpoint file differs from the uninterrupted service's (%v)", err)
			}
		} else if st.Storage.CheckpointFallbacks != 1 || st.Storage.CorruptCheckpoints != 1 {
			t.Fatalf("%s: storage ledger %+v, want 1 fallback and 1 quarantined checkpoint", c.name, st.Storage)
		}
		re.Close()
	}
}
