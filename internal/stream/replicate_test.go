package stream_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/stream"
)

// shipTo rebuilds rep from primary's durability artifacts exactly the
// way a follower does: newest checkpoint via RestoreSnapshot, then
// every WAL record past it through ApplyReplicated, read frame by
// frame off the shipping surface.
func shipTo(t *testing.T, rep, primary *stream.Service) {
	t.Helper()
	dir, log := primary.ReplicationSource()
	if log == nil {
		t.Fatal("primary has no replication source")
	}
	f, err := os.Open(filepath.Join(dir, "checkpoint.json"))
	switch {
	case err == nil:
		err := rep.RestoreSnapshot(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	case errors.Is(err, os.ErrNotExist):
	default:
		t.Fatal(err)
	}
	segs, err := log.Segments()
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		if seg.LastSeq < seg.FirstSeq || seg.LastSeq <= rep.AppliedSeq() {
			continue
		}
		sr, err := log.OpenSegment(seg.FirstSeq, rep.AppliedSeq()+1)
		if err != nil {
			t.Fatal(err)
		}
		for {
			seq, payload, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.ApplyReplicated(seq, payload); err != nil {
				t.Fatal(err)
			}
		}
		sr.Close()
	}
	if got, want := rep.AppliedSeq(), log.LastSeq(); got != want {
		t.Fatalf("replica applied seq %d, primary at %d", got, want)
	}
}

// TestReplicaEquivalence is the replication correctness gate at the
// service level: a replica rebuilt from a mid-stream checkpoint plus
// the shipped WAL suffix must be byte-identical — stable-ID EPM views,
// B partition, landscape counters, and the JSON the query endpoints
// would serve — to the primary it followed, including the rejection
// and duplicate accounting a dirty corpus produces.
func TestReplicaEquivalence(t *testing.T) {
	events := dirtyCorpus(120)
	ctx := context.Background()
	cfg := testConfig(8)
	cfg.Durability = stream.Durability{Dir: t.TempDir(), NoSync: true, SegmentBytes: 1 << 10}
	primary, err := stream.New(cfg, fakeEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(primary.Close)
	const batchSize = 10
	for bi := 0; bi*batchSize < len(events); bi++ {
		lo, hi := bi*batchSize, (bi+1)*batchSize
		if hi > len(events) {
			hi = len(events)
		}
		if err := primary.Ingest(ctx, events[lo:hi]); err != nil {
			t.Fatal(err)
		}
		if bi == 5 {
			// Mid-stream checkpoint: bootstrap must splice checkpoint
			// restore and WAL-suffix replay, not replay from seq 1.
			if err := primary.Checkpoint(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := primary.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	rep, err := stream.NewReplica(testConfig(8), fakeEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Close)
	// A snapshot that fails its CRC is refused and leaves the replica
	// fresh for the next bootstrap attempt, whatever it decoded first.
	blob, err := os.ReadFile(filepath.Join(cfg.Durability.Dir, "checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 1
	if err := rep.RestoreSnapshot(bytes.NewReader(blob)); !errors.Is(err, ckpt.ErrCorrupt) || rep.AppliedSeq() != 0 {
		t.Fatalf("corrupt snapshot: err %v, applied seq %d; want ErrCorrupt and a fresh replica", err, rep.AppliedSeq())
	}
	shipTo(t, rep, primary)
	compareServices(t, "replica", rep, primary)
	for _, dim := range []string{"epsilon", "pi", "mu"} {
		rv, err := rep.EPMClusters(dim)
		if err != nil {
			t.Fatal(err)
		}
		pv, err := primary.EPMClusters(dim)
		if err != nil {
			t.Fatal(err)
		}
		rb, _ := json.Marshal(rv)
		pb, _ := json.Marshal(pv)
		if string(rb) != string(pb) {
			t.Fatalf("%s view JSON diverges:\nreplica %s\nprimary %s", dim, rb, pb)
		}
	}
	rb, _ := json.Marshal(rep.BClusters())
	pb, _ := json.Marshal(primary.BClusters())
	if string(rb) != string(pb) {
		t.Fatalf("b view JSON diverges:\nreplica %s\nprimary %s", rb, pb)
	}
	if rep.Stats().Role != stream.RoleReplica {
		t.Fatalf("replica role %q", rep.Stats().Role)
	}
}

func TestReplicaRefusesWritesAndGaps(t *testing.T) {
	ctx := context.Background()
	rep, err := stream.NewReplica(testConfig(8), fakeEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Close)
	if err := rep.Ingest(ctx, cleanCorpus(1)); !errors.Is(err, stream.ErrReadOnly) {
		t.Fatalf("Ingest on replica: %v, want ErrReadOnly", err)
	}
	if err := rep.Flush(ctx); !errors.Is(err, stream.ErrReadOnly) {
		t.Fatalf("Flush on replica: %v, want ErrReadOnly", err)
	}
	if err := rep.Checkpoint(ctx); !errors.Is(err, stream.ErrReadOnly) {
		t.Fatalf("Checkpoint on replica: %v, want ErrReadOnly", err)
	}

	// Out-of-order records are a gap, never silently applied.
	var gap *stream.ReplicationGapError
	err = rep.ApplyReplicated(5, []byte(`{"kind":"batch"}`))
	if !errors.As(err, &gap) || gap.Want != 1 || gap.Got != 5 {
		t.Fatalf("ApplyReplicated(5) = %v, want gap {1,5}", err)
	}
	if err := rep.ApplyReplicated(1, []byte(`{"kind":"bogus"}`)); err == nil {
		t.Fatal("unknown record kind must error")
	}
	if rep.AppliedSeq() != 0 {
		t.Fatalf("failed applies advanced seq to %d", rep.AppliedSeq())
	}

	// The replica-only surface stays off-limits to normal services.
	std := newTestService(t, testConfig(8))
	if err := std.ApplyReplicated(1, []byte(`{"kind":"batch"}`)); err == nil {
		t.Fatal("ApplyReplicated on a standalone service must error")
	}
	if err := std.RestoreSnapshot(strings.NewReader(`{}`)); err == nil {
		t.Fatal("RestoreSnapshot on a standalone service must error")
	}
	if std.Stats().Role != stream.RoleStandalone {
		t.Fatalf("standalone role %q", std.Stats().Role)
	}

	// RestoreSnapshot is bootstrap-only: it refuses a non-fresh replica.
	if err := rep.ApplyReplicated(1, []byte(`{"kind":"flush"}`)); err != nil {
		t.Fatal(err)
	}
	if err := rep.RestoreSnapshot(strings.NewReader(`{"version":1}`)); err == nil {
		t.Fatal("RestoreSnapshot after applied records must error")
	}
}

// TestRestoreSnapshotAtSeqZeroIsBootstrap checks the freshness check
// past applySeq: a checkpoint taken before the primary's first record
// restores at seq 0, and the replica must still refuse a second
// bootstrap.
func TestRestoreSnapshotAtSeqZeroIsBootstrap(t *testing.T) {
	cfg := testConfig(8)
	cfg.Durability = stream.Durability{Dir: t.TempDir(), NoSync: true}
	primary := newTestService(t, cfg)
	if err := primary.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(cfg.Durability.Dir, "checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := stream.NewReplica(testConfig(8), fakeEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Close)
	if err := rep.RestoreSnapshot(bytes.NewReader(blob)); err != nil || rep.AppliedSeq() != 0 {
		t.Fatalf("seq-0 snapshot: err %v, applied seq %d; want a replica at seq 0", err, rep.AppliedSeq())
	}
	if err := rep.RestoreSnapshot(bytes.NewReader(blob)); err == nil {
		t.Fatal("a second RestoreSnapshot must error")
	}
}

// TestRestoreSnapshotRejectsInvalidState feeds a replica checkpoints that
// pass decoding but describe a state no service can be in. Each is
// refused as corrupt, without a panic, and leaves the replica fresh for
// the next bootstrap attempt.
func TestRestoreSnapshotRejectsInvalidState(t *testing.T) {
	const events = `"events":[{"id":"e-a","attacker":"10.0.0.1","sensor":"s1","sample":{"MD5":"a"}},` +
		`{"id":"e-b","attacker":"10.0.0.2","sensor":"s1","sample":{"MD5":"b"}}],`
	for name, c := range map[string]struct{ payload, why string }{
		"null client ledger": {`{"version":1,"seq":0,"clients":{"x":null}}`, "null ledger"},
		"hold pair past the watermark": {`{"version":1,"seq":0,` + events + `"b":{"inputs":[` +
			`{"id":"a","features":["f"]},{"id":"b","features":["g"],"status":1,"hold_pair":[999999,0]}` +
			`],"integrated":2,"epochs":1}}`, "holds pair"},
		"unknown status": {`{"version":2,"seq":0,` + events + `"sets":[["f"]],"b":{"inputs":[{"id":"a","set":0,"status":9}],"integrated":1,"epochs":1}}`, "unknown status"},
	} {
		t.Run(name, func(t *testing.T) {
			rep, err := stream.NewReplica(testConfig(8), fakeEnricher{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(rep.Close)
			if err := rep.RestoreSnapshot(sealed(c.payload)); !errors.Is(err, ckpt.ErrCorrupt) || !strings.Contains(err.Error(), c.why) {
				t.Fatalf("RestoreSnapshot error %v, want ckpt.ErrCorrupt for the %s", err, c.why)
			}
			if err := rep.RestoreSnapshot(sealed(`{"version":1,"seq":0}`)); err != nil {
				t.Fatalf("replica not left fresh: %v", err)
			}
		})
	}
}

// sealed returns payload in the framing a primary ships it in.
func sealed(payload string) io.Reader { return bytes.NewReader(sealV2([]byte(payload))) }

// TestRestoreSnapshotRefusesCutBody: a bootstrap body cut where its CRC
// trailer begins is still valid JSON. The replica must refuse it as
// corrupt and stay fresh, not restore a payload no CRC has checked.
func TestRestoreSnapshotRefusesCutBody(t *testing.T) {
	ctx := context.Background()
	cfg := testConfig(8)
	cfg.Durability = stream.Durability{Dir: t.TempDir(), NoSync: true}
	primary := newTestService(t, cfg)
	if err := primary.Ingest(ctx, dirtyCorpus(40)); err != nil {
		t.Fatal(err)
	}
	if err := primary.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(cfg.Durability.Dir, ckpt.Name))
	if err != nil {
		t.Fatal(err)
	}
	cut := bytes.LastIndex(blob, []byte("\n#checkpoint-crc32 "))
	if cut < 0 {
		t.Fatal("checkpoint has no CRC trailer")
	}
	rep, err := stream.NewReplica(testConfig(8), fakeEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Close)
	if err := rep.RestoreSnapshot(bytes.NewReader(blob[:cut])); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("body cut before its trailer: %v, want ckpt.ErrCorrupt", err)
	}
	if err := rep.RestoreSnapshot(bytes.NewReader(blob)); err != nil {
		t.Fatalf("replica not left fresh, or the whole body refused: %v", err)
	}
}
