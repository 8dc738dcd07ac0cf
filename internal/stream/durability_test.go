package stream_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/faultfs"
	"repro/internal/stream"
)

// cleanCorpus builds n well-formed events across three truth variants.
func cleanCorpus(n int) []dataset.Event {
	var out []dataset.Event
	for i := 0; i < n; i++ {
		out = append(out, testEvent(i, fmt.Sprintf("v%d", i%3)))
	}
	return out
}

// dirtyCorpus mixes duplicates and invalid events into a clean
// sequence, so recovery must reproduce the rejection accounting too.
func dirtyCorpus(n int) []dataset.Event {
	var out []dataset.Event
	for i := 0; i < n; i++ {
		switch {
		case i%17 == 3 && i >= 3:
			// Redelivery: the event ID was already ingested.
			out = append(out, testEvent(i-3, fmt.Sprintf("v%d", (i-3)%3)))
		case i%23 == 5:
			e := testEvent(i, "")
			e.Attacker = ""
			out = append(out, e)
		default:
			out = append(out, testEvent(i, fmt.Sprintf("v%d", i%3)))
		}
	}
	return out
}

// normStats strips the path- and process-dependent fields (queue
// high-water marks, WAL/IO counters) that are legitimately different
// between an interrupted and an uninterrupted run.
func normStats(st stream.Stats) stream.Stats {
	st.QueueCap, st.QueueDepth, st.MaxQueueDepth = 0, 0, 0
	st.WAL = stream.WALStats{}
	// The durability-health ledger (retained generations, self-heal and
	// scrub counters) and the diagnostics ring describe the storage
	// history of this process, not the landscape state.
	st.Storage = stream.StorageStats{}
	st.RecentErrors = nil
	// Role, uptime, and the replicated-record count identify the
	// process, not the landscape state.
	st.Role, st.UptimeMS, st.Replicated = "", 0, 0
	// The admission ledger is process-local runtime telemetry
	// (recovery replays bypass admission), like queue depth above.
	st.Admission = stream.AdmissionStats{}
	// The delta/full epoch split is path-dependent: recovery replays the
	// checkpointed prefix as one full regroup, an uninterrupted run may
	// have covered the same instances with several delta epochs. The
	// clustering output is byte-identical either way; only the work
	// accounting differs.
	for _, ds := range []*stream.DimStats{&st.Epsilon, &st.Pi, &st.Mu} {
		ds.DeltaEpochs, ds.FullRegroups = 0, 0
	}
	return st
}

// compareServices asserts two services converged on identical landscape
// state: stable-ID EPM views, B membership partition, and counters.
func compareServices(t *testing.T, label string, got, want *stream.Service) {
	t.Helper()
	for _, dim := range []string{"epsilon", "pi", "mu"} {
		gv, err := got.EPMClusters(dim)
		if err != nil {
			t.Fatal(err)
		}
		wv, err := want.EPMClusters(dim)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gv, wv) {
			t.Fatalf("%s: %s view diverges:\ngot  %+v\nwant %+v", label, dim, gv, wv)
		}
	}
	if !reflect.DeepEqual(bMembers(got.BResult()), bMembers(want.BResult())) {
		t.Fatalf("%s: B partition diverges", label)
	}
	gs, ws := normStats(got.Stats()), normStats(want.Stats())
	if !reflect.DeepEqual(gs, ws) {
		t.Fatalf("%s: stats diverge:\ngot  %+v\nwant %+v", label, gs, ws)
	}
}

// feedInterrupted replays the corpus in batches, flushing mid-stream at
// flushAfter, and — when restartEvery > 0 — tears the service down and
// recovers it from disk after every restartEvery-th batch. It returns
// the final (flushed) service.
func feedInterrupted(t *testing.T, cfg stream.Config, events []dataset.Event, batchSize, flushAfter, restartEvery int) *stream.Service {
	t.Helper()
	ctx := context.Background()
	svc, err := stream.New(cfg, fakeEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	for bi := 0; bi*batchSize < len(events); bi++ {
		lo, hi := bi*batchSize, (bi+1)*batchSize
		if hi > len(events) {
			hi = len(events)
		}
		if err := svc.Ingest(ctx, events[lo:hi]); err != nil {
			t.Fatal(err)
		}
		if flushAfter > 0 && bi == flushAfter {
			if err := svc.Flush(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if restartEvery > 0 && bi%restartEvery == restartEvery-1 {
			svc.Close()
			if svc, err = stream.New(cfg, fakeEnricher{}); err != nil {
				t.Fatalf("recovery after batch %d: %v", bi, err)
			}
		}
	}
	if err := svc.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// TestRecoveryEquivalence is the crash-recovery gate: a run that is
// torn down and recovered from checkpoint + WAL replay every other
// batch must end byte-identical — stable-ID EPM views, B membership
// partition, and all landscape counters — to an uninterrupted run fed
// the same sequence.
func TestRecoveryEquivalence(t *testing.T) {
	events := cleanCorpus(120)
	const batchSize, flushAfter = 10, 5

	want := feedInterrupted(t, testConfig(8), events, batchSize, flushAfter, 0)

	cfg := testConfig(8)
	cfg.Durability = stream.Durability{Dir: t.TempDir(), CheckpointEvery: 3, NoSync: true}
	got := feedInterrupted(t, cfg, events, batchSize, flushAfter, 2)

	compareServices(t, "recovered", got, want)
	st := got.Stats()
	if !st.WAL.Enabled || st.WAL.RecoveredRecords == 0 {
		t.Fatalf("recovery exercised no WAL replay: %+v", st.WAL)
	}
}

// TestCrashRecoveryStatsProperty kills and recovers the service after
// every k-th batch of a dirty corpus (duplicates and invalid events
// mixed in) and checks the recovered accounting — events, rejections by
// reason, duplicates, executions — matches an uninterrupted run.
func TestCrashRecoveryStatsProperty(t *testing.T) {
	events := dirtyCorpus(200)
	const batchSize = 10

	want := feedInterrupted(t, testConfig(8), events, batchSize, 8, 0)

	for _, k := range []int{1, 7, 64} {
		cfg := testConfig(8)
		cfg.Durability = stream.Durability{Dir: t.TempDir(), CheckpointEvery: 5, NoSync: true}
		got := feedInterrupted(t, cfg, events, batchSize, 8, k)
		compareServices(t, fmt.Sprintf("k=%d", k), got, want)
	}
}

// TestCheckpointAndWALReplay drives the explicit Checkpoint API: the
// snapshot lands atomically on disk, recovery replays only the WAL
// suffix past it, and a memory-only service refuses the call.
func TestCheckpointAndWALReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(0)
	cfg.Durability = stream.Durability{Dir: dir, NoSync: true} // no auto-checkpoints
	svc, err := stream.New(cfg, fakeEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	events := cleanCorpus(40)
	for bi := 0; bi < 3; bi++ {
		if err := svc.Ingest(ctx, events[bi*10:(bi+1)*10]); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.json")); err != nil {
		t.Fatalf("checkpoint file: %v", err)
	}
	st := svc.Stats()
	if st.WAL.Checkpoints != 1 || st.WAL.LastCheckpointSeq != 3 {
		t.Fatalf("WAL stats after checkpoint: %+v", st.WAL)
	}
	if err := svc.Ingest(ctx, events[30:40]); err != nil {
		t.Fatal(err)
	}
	svc.Close()

	re, err := stream.New(cfg, fakeEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	rst := re.Stats()
	if rst.Events != 40 {
		t.Fatalf("recovered %d events, want 40", rst.Events)
	}
	// Only the post-checkpoint batch needed replay.
	if rst.WAL.RecoveredRecords != 1 {
		t.Fatalf("replayed %d records, want 1", rst.WAL.RecoveredRecords)
	}

	mem := newTestService(t, testConfig(0))
	if err := mem.Checkpoint(ctx); err == nil {
		t.Fatal("Checkpoint on a memory-only service must error")
	}
}

// TestWALAppendFailureDegradesToReadOnly is the degradation gate: once
// the WAL cannot append — and the one self-heal attempt also fails —
// the service must refuse writes with a typed storage failure instead
// of acknowledging batches it never durably logged, while reads keep
// serving the last applied state. The failure is a permanent faultfs
// rule: every WAL write from the third invocation on returns EIO, so
// the heal's retry fails too.
func TestWALAppendFailureDegradesToReadOnly(t *testing.T) {
	cfg := testConfig(0)
	cfg.Durability = stream.Durability{
		Dir:    t.TempDir(),
		NoSync: true,
		FS: faultfs.New(nil, faultfs.Config{
			// Writes 1 and 2 are the setup batch and its flush record;
			// everything after fails forever.
			Rules: []faultfs.Rule{{Op: faultfs.OpWrite, At: 3, Until: -1, Kind: faultfs.KindEIO}},
		}),
	}
	svc, err := stream.New(cfg, fakeEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	events := cleanCorpus(30)

	if err := svc.Ingest(ctx, events[:10]); err != nil {
		t.Fatal(err)
	}
	if err := svc.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	applied := svc.Stats().Events

	// The doomed batch may be accepted onto the queue (admission happens
	// before the WAL write), but it must never be acknowledged as
	// applied, and the failure must latch.
	_ = svc.Ingest(ctx, events[10:20])

	var sf *stream.StorageFailure
	if err := svc.Flush(ctx); !errors.As(err, &sf) || !errors.Is(err, stream.ErrStorageFailed) {
		t.Fatalf("Flush after WAL failure returned %v, want *stream.StorageFailure", err)
	}
	if sf.Op != "wal-append" {
		t.Fatalf("storage-failure op %q, want wal-append", sf.Op)
	}
	// Every write entry point now refuses fast with the typed error.
	if err := svc.Ingest(ctx, events[20:30]); !errors.Is(err, stream.ErrStorageFailed) {
		t.Fatalf("Ingest after WAL failure returned %v, want ErrStorageFailed", err)
	}
	if err := svc.Checkpoint(ctx); !errors.Is(err, stream.ErrStorageFailed) {
		t.Fatalf("Checkpoint after WAL failure returned %v, want ErrStorageFailed", err)
	}

	st := svc.Stats()
	if st.Events != applied {
		t.Fatalf("events grew from %d to %d after the WAL broke", applied, st.Events)
	}
	if st.WAL.AppendErrors == 0 {
		t.Fatalf("no append errors recorded: %+v", st.WAL)
	}
	if st.Fatal == "" || !st.Storage.ReadOnly || st.Storage.Reason != stream.StorageFailedReason {
		t.Fatalf("Stats must surface read-only mode: fatal=%q storage=%+v", st.Fatal, st.Storage)
	}
	// Reads keep serving: the degraded service is still a query target.
	if _, err := svc.EPMClusters("epsilon"); err != nil {
		t.Fatalf("EPMClusters on a degraded service: %v", err)
	}
	if got := svc.Stats().Events; got != applied {
		t.Fatalf("read path disturbed state: %d events, want %d", got, applied)
	}
}

// TestWALAppendTornWriteSelfHeals drives the happy self-heal path: a
// single torn append (a genuine partial frame on disk) must be absorbed
// by the reopen-repair-retry cycle with no caller-visible error, no
// read-only degradation, and no duplicate record.
func TestWALAppendTornWriteSelfHeals(t *testing.T) {
	cfg := testConfig(0)
	cfg.Durability = stream.Durability{
		Dir:    t.TempDir(),
		NoSync: true,
		FS: faultfs.New(nil, faultfs.Config{
			Rules: []faultfs.Rule{{Op: faultfs.OpWrite, At: 2, Kind: faultfs.KindTorn}},
		}),
	}
	svc, err := stream.New(cfg, fakeEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	events := cleanCorpus(20)
	if err := svc.Ingest(ctx, events[:10]); err != nil {
		t.Fatal(err)
	}
	// Write 2 tears mid-frame; the heal must make this batch durable
	// anyway.
	if err := svc.Ingest(ctx, events[10:20]); err != nil {
		t.Fatal(err)
	}
	if err := svc.Flush(ctx); err != nil {
		t.Fatalf("Flush after a healed append: %v", err)
	}
	st := svc.Stats()
	if st.Storage.ReadOnly || st.Fatal != "" {
		t.Fatalf("healed service is read-only: %+v", st.Storage)
	}
	if st.Storage.WALRepairs != 1 {
		t.Fatalf("WALRepairs = %d, want 1", st.Storage.WALRepairs)
	}
	if st.Events != 20 {
		t.Fatalf("events = %d, want 20", st.Events)
	}
	svc.Close()

	// The healed log replays cleanly and completely: no lost batch, no
	// duplicate from a double append.
	re, err := stream.New(cfg, fakeEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	rst := re.Stats()
	if rst.Events != 20 || rst.Duplicates != 0 {
		t.Fatalf("recovered events=%d duplicates=%d, want 20/0", rst.Events, rst.Duplicates)
	}
}

// corruptFile flips one byte in the middle of path, breaking the CRC
// seal without truncating the file.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/3] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointGenerationFallback corrupts the live checkpoint and
// checks recovery falls back to the retained previous generation plus a
// longer WAL replay, quarantines the corrupt file aside, and still
// converges on state byte-identical to a clean run.
func TestCheckpointGenerationFallback(t *testing.T) {
	events := cleanCorpus(90)
	want := feedInterrupted(t, testConfig(8), events, 10, 0, 0)

	dir := t.TempDir()
	cfg := testConfig(8)
	cfg.Durability = stream.Durability{Dir: dir, NoSync: true, Generations: 2}
	svc, err := stream.New(cfg, fakeEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for bi := 0; bi < 9; bi++ {
		if err := svc.Ingest(ctx, events[bi*10:(bi+1)*10]); err != nil {
			t.Fatal(err)
		}
		if bi == 2 || bi == 5 {
			if err := svc.Checkpoint(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	svc.Close()

	// The second checkpoint archived the first as generation 1.
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.json.1")); err != nil {
		t.Fatalf("retained generation: %v", err)
	}
	corruptFile(t, filepath.Join(dir, "checkpoint.json"))

	re, err := stream.New(cfg, fakeEnricher{})
	if err != nil {
		t.Fatalf("recovery with a corrupt live checkpoint: %v", err)
	}
	if err := re.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	compareServices(t, "generation fallback", re, want)
	st := re.Stats()
	if st.Storage.CheckpointFallbacks != 1 || st.Storage.CorruptCheckpoints != 1 {
		t.Fatalf("fallback ledger %+v, want 1 fallback and 1 quarantined checkpoint", st.Storage)
	}
	// The corrupt file is quarantined aside so the next checkpoint can
	// never archive it as a good generation.
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.json.corrupt")); err != nil {
		t.Fatalf("quarantined checkpoint: %v", err)
	}
	// The fallback generation's WAL suffix was longer than the live
	// checkpoint's would have been: batches 4..9 replayed, not just 7..9.
	if st.WAL.RecoveredRecords != 6 {
		t.Fatalf("replayed %d records, want 6 (the suffix past generation 1)", st.WAL.RecoveredRecords)
	}
	re.Close()

	// A fresh restart on the healthy fallback chain must not count
	// another fallback: the quarantined file is invisible, and a merely
	// absent live checkpoint is the normal post-quarantine shape. (The
	// cumulative Flushes counter legitimately grew by the first
	// recovery's flush, so only the views are compared here.)
	re2, err := stream.New(cfg, fakeEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if err := re2.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	for _, dim := range []string{"epsilon", "pi", "mu"} {
		gv, _ := re2.EPMClusters(dim)
		wv, _ := want.EPMClusters(dim)
		if !reflect.DeepEqual(gv, wv) {
			t.Fatalf("restart after quarantine: %s view diverges", dim)
		}
	}
	st2 := re2.Stats()
	if st2.Storage.CheckpointFallbacks != 0 || st2.Storage.CorruptCheckpoints != 0 {
		t.Fatalf("restart after quarantine counted another incident: %+v", st2.Storage)
	}
}

// checkpointChain ingests events in batches of 100 through a durable
// service, checkpointing after batches 2 and 5, so the live checkpoint
// is large (several 64 KiB reads) and a retained generation stands
// behind it. It returns the closed service's config and directory.
func checkpointChain(t *testing.T, events []dataset.Event) (stream.Config, string) {
	t.Helper()
	dir := t.TempDir()
	cfg := testConfig(8)
	cfg.Durability = stream.Durability{Dir: dir, NoSync: true, Generations: 2}
	svc, err := stream.New(cfg, fakeEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for bi := 0; bi*100 < len(events); bi++ {
		if err := svc.Ingest(ctx, events[bi*100:(bi+1)*100]); err != nil {
			t.Fatal(err)
		}
		if bi == 2 || bi == 5 {
			if err := svc.Checkpoint(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	svc.Close()
	fi, err := os.Stat(filepath.Join(dir, "checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() < 4*64<<10 {
		t.Fatalf("live checkpoint is %d bytes; a second read would not land mid-file", fi.Size())
	}
	return cfg, dir
}

// recoverUnder restarts the chain's service on a filesystem whose
// second read — inside the live checkpoint, the first file recovery
// reads — draws the given fault, and checks the run converged on the
// uninterrupted one.
func recoverUnder(t *testing.T, kind faultfs.Kind) (stream.StorageStats, string) {
	t.Helper()
	events := cleanCorpus(900)
	want := feedInterrupted(t, testConfig(8), events, 100, 0, 0)
	cfg, dir := checkpointChain(t, events)
	inj := faultfs.New(nil, faultfs.Config{Rules: []faultfs.Rule{{Op: faultfs.OpRead, At: 2, Kind: kind}}})
	cfg.Durability.FS = inj
	re, err := stream.New(cfg, fakeEnricher{})
	if err != nil {
		t.Fatalf("recovery under a %s read: %v", kind, err)
	}
	defer re.Close()
	if err := re.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	compareServices(t, string(kind)+" read in the live checkpoint", re, want)
	if got := inj.Stats().Faults[kind]; got != 1 {
		t.Fatalf("injected %d %s faults, want 1", got, kind)
	}
	st := re.Stats()
	// The fallback generation's WAL suffix replayed: batches 4..9.
	if st.WAL.RecoveredRecords != 6 {
		t.Fatalf("replayed %d records, want 6 (the suffix past generation 1)", st.WAL.RecoveredRecords)
	}
	return st.Storage, dir
}

// TestCheckpointReadErrorFallsBack: a read error in the middle of the
// live checkpoint is the device's, not the file's. Recovery falls back
// to the retained generation and leaves the live file where it is.
func TestCheckpointReadErrorFallsBack(t *testing.T) {
	st, dir := recoverUnder(t, faultfs.KindEIO)
	if st.CheckpointFallbacks != 1 || st.CorruptCheckpoints != 0 {
		t.Fatalf("storage ledger %+v, want 1 fallback and no quarantine", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.json.corrupt")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a read error quarantined the live checkpoint: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.json")); err != nil {
		t.Fatalf("live checkpoint after a read error: %v", err)
	}
}

// TestCheckpointBitFlipQuarantines: a bit flipped in a read in the
// middle of the live checkpoint fails its CRC or its decode in the same
// pass. Recovery quarantines the file and falls back.
func TestCheckpointBitFlipQuarantines(t *testing.T) {
	st, dir := recoverUnder(t, faultfs.KindFlip)
	if st.CheckpointFallbacks != 1 || st.CorruptCheckpoints != 1 {
		t.Fatalf("storage ledger %+v, want 1 fallback and 1 quarantined checkpoint", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.json.corrupt")); err != nil {
		t.Fatalf("flipped checkpoint not quarantined: %v", err)
	}
}

// TestCheckpointFailuresDegradeToReadOnly checks the consecutive-
// failure breaker: each failed checkpoint is reported to its caller and
// counted, writes keep flowing meanwhile, and the third consecutive
// failure latches read-only mode.
func TestCheckpointFailuresDegradeToReadOnly(t *testing.T) {
	cfg := testConfig(0)
	cfg.Durability = stream.Durability{
		Dir:    t.TempDir(),
		NoSync: true,
		FS: faultfs.New(nil, faultfs.Config{
			// Every checkpoint publish rename fails forever; WAL appends
			// (plain writes) are untouched.
			Rules: []faultfs.Rule{{Op: faultfs.OpRename, At: 1, Until: -1, Kind: faultfs.KindEIO}},
		}),
	}
	svc, err := stream.New(cfg, fakeEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	events := cleanCorpus(40)
	for i := 0; i < 3; i++ {
		if err := svc.Ingest(ctx, events[i*10:(i+1)*10]); err != nil {
			t.Fatalf("ingest %d while checkpoints fail: %v", i, err)
		}
		err := svc.Checkpoint(ctx)
		if err == nil {
			t.Fatalf("checkpoint %d succeeded under a permanent rename fault", i+1)
		}
		if i < 2 && errors.Is(err, stream.ErrStorageFailed) {
			t.Fatalf("checkpoint %d already storage-failed: %v", i+1, err)
		}
		if got := svc.Stats().Storage.CheckpointFailures; got != i+1 {
			t.Fatalf("CheckpointFailures = %d after failure %d", got, i+1)
		}
	}
	// The breaker tripped on the third consecutive failure.
	if err := svc.Ingest(ctx, events[30:40]); !errors.Is(err, stream.ErrStorageFailed) {
		t.Fatalf("ingest after the breaker tripped: %v, want ErrStorageFailed", err)
	}
	st := svc.Stats()
	if !st.Storage.ReadOnly || st.Storage.Reason != stream.StorageFailedReason {
		t.Fatalf("storage ledger %+v, want read-only with reason storage_failed", st.Storage)
	}
	if st.Events != 30 {
		t.Fatalf("events = %d, want the 30 ingested before the breaker", st.Events)
	}
}

// TestScrubWAL checks the background scrubber: a clean log scrubs
// silently, a flipped byte in a sealed segment is reported with the
// segment path in the stats ledger, and the log itself is not modified.
func TestScrubWAL(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(0)
	// A 1-byte rotation threshold seals a segment per append, giving the
	// scrubber (which skips the in-motion active segment) work to do.
	cfg.Durability = stream.Durability{Dir: dir, NoSync: true, SegmentBytes: 1}
	svc, err := stream.New(cfg, fakeEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	events := cleanCorpus(40)
	for i := 0; i < 4; i++ {
		if err := svc.Ingest(ctx, events[i*10:(i+1)*10]); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := svc.ScrubWAL(); err != nil {
		t.Fatalf("scrubbing a clean log: %v", err)
	}
	st := svc.Stats()
	if st.Storage.Scrub.Runs != 1 || st.Storage.Scrub.Records == 0 || st.Storage.Scrub.Corruptions != 0 {
		t.Fatalf("clean scrub ledger %+v", st.Storage.Scrub)
	}

	// Rot the oldest sealed segment on disk, under the running service.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var target string
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".wal" {
			target = filepath.Join(dir, e.Name())
			break
		}
	}
	if target == "" {
		t.Fatal("no WAL segment on disk")
	}
	corruptFile(t, target)

	err = svc.ScrubWAL()
	if err == nil {
		t.Fatal("scrub missed the flipped byte")
	}
	st = svc.Stats()
	sc := st.Storage.Scrub
	if sc.Runs != 2 || sc.Corruptions == 0 || len(sc.CorruptSegments) == 0 || sc.LastError == "" {
		t.Fatalf("scrub ledger after corruption %+v", sc)
	}
	if sc.CorruptSegments[0] != target {
		t.Fatalf("corrupt segment %q, want %q", sc.CorruptSegments[0], target)
	}
	// Detection only: the service stays writable; the segment is rot on
	// disk, not in applied state.
	if err := svc.Ingest(ctx, cleanCorpus(50)[40:50]); err != nil {
		t.Fatalf("ingest after a scrub finding: %v", err)
	}
}

// TestCrashRecoveryWithFaultSchedules is the fault-schedule extension of
// the k-restart property: with seeded disk faults injected under the
// WAL — torn final writes before a kill, transient write EIO, fsync
// failures — every run must still converge on accounting byte-identical
// to the clean uninterrupted run, because each fault is either healed
// invisibly or surfaced before the batch was acknowledged.
func TestCrashRecoveryWithFaultSchedules(t *testing.T) {
	events := dirtyCorpus(200)
	const batchSize = 10

	want := feedInterrupted(t, testConfig(8), events, batchSize, 8, 0)

	schedules := []struct {
		name   string
		sync   bool // exercise fsync (NoSync=false) paths
		faults faultfs.Config
	}{
		{"torn-then-eio", false, faultfs.Config{Rules: []faultfs.Rule{
			{Op: faultfs.OpWrite, At: 5, Kind: faultfs.KindTorn},
			{Op: faultfs.OpWrite, At: 11, Kind: faultfs.KindEIO},
			{Op: faultfs.OpWrite, At: 17, Kind: faultfs.KindTorn},
		}}},
		{"seeded-sync-errors", true, faultfs.Config{Seed: 3, SyncErr: 0.1, MaxFaults: 4}},
		{"seeded-mixed", true, faultfs.Config{Seed: 9, WriteTorn: 0.05, SyncErr: 0.05, MaxFaults: 5}},
	}
	for _, sched := range schedules {
		t.Run(sched.name, func(t *testing.T) {
			inj := faultfs.New(nil, sched.faults)
			cfg := testConfig(8)
			cfg.Durability = stream.Durability{
				Dir: t.TempDir(), CheckpointEvery: 5, NoSync: !sched.sync, FS: inj,
			}
			got := feedInterrupted(t, cfg, events, batchSize, 8, 7)
			compareServices(t, sched.name, got, want)
			if inj.Stats().Total == 0 {
				t.Fatalf("schedule injected no faults; the run proved nothing")
			}
		})
	}
}

// TestApplyReplicatedBadRecordTyped checks a follower feeding garbage
// into the apply path gets the typed ErrBadRecord it keys its
// re-bootstrap on.
func TestApplyReplicatedBadRecordTyped(t *testing.T) {
	rep, err := stream.NewReplica(testConfig(8), fakeEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if err := rep.ApplyReplicated(1, []byte("not json")); !errors.Is(err, stream.ErrBadRecord) {
		t.Fatalf("garbage record: %v, want ErrBadRecord", err)
	}
	if err := rep.ApplyReplicated(1, []byte(`{"kind":"volcano"}`)); !errors.Is(err, stream.ErrBadRecord) {
		t.Fatalf("unknown kind: %v, want ErrBadRecord", err)
	}
}
