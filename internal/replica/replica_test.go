package replica_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/behavior"
	"repro/internal/dataset"
	"repro/internal/pe"
	"repro/internal/replica"
	"repro/internal/shard"
	"repro/internal/stream"
)

// The helpers mirror the stream package's test fixtures (unexported
// there): a deterministic enricher and the same dirty corpus, so the
// follower faces realistic duplicate/rejection accounting.

type fakeEnricher struct{}

func (fakeEnricher) LabelSample(s *dataset.Sample) error {
	s.AVLabel = "Fake." + s.TruthVariant
	return nil
}

func (fakeEnricher) ExecuteSample(s *dataset.Sample) (*behavior.Profile, bool, error) {
	p := behavior.NewProfile()
	for k := 0; k < 10; k++ {
		p.Add(fmt.Sprintf("%s-beh%d", s.TruthVariant, k))
	}
	return p, false, nil
}

func testEvent(i int, variant string) dataset.Event {
	e := dataset.Event{
		ID:          fmt.Sprintf("ev%04d", i),
		Time:        time.Date(2008, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Minute),
		Attacker:    fmt.Sprintf("10.0.%d.%d", i%5, i%13),
		Sensor:      fmt.Sprintf("s%d", i%7),
		FSMPath:     fmt.Sprintf("fsm-%d", i%3),
		DestPort:    445,
		Protocol:    "ftp",
		Filename:    "a.exe",
		PayloadPort: 33333,
		Interaction: "push",
	}
	if variant != "" {
		e.Sample = pe.Features{
			MD5:         fmt.Sprintf("md5-%s-%d", variant, i%4),
			IsPE:        true,
			Magic:       pe.MagicPEGUI,
			NumSections: 3,
		}
		e.DownloadOutcome = "ok"
		e.TruthVariant = variant
	}
	return e
}

func dirtyCorpus(n int) []dataset.Event {
	var out []dataset.Event
	for i := 0; i < n; i++ {
		switch {
		case i%17 == 3 && i >= 3:
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

func testConfig(epochSize int) stream.Config {
	cfg := stream.DefaultConfig()
	cfg.EpochSize = epochSize
	cfg.QueueDepth = 2
	return cfg
}

// primary bundles a test primary: the backend under test plus its
// shipping server.
type primary struct {
	svc   *stream.Service    // nil when sharded
	coord *shard.Coordinator // nil at one shard
	pub   *replica.Publisher
	srv   *httptest.Server
}

func (p *primary) ingest(ctx context.Context, events []dataset.Event) error {
	if p.coord != nil {
		return p.coord.IngestFrom(ctx, "test", events)
	}
	return p.svc.Ingest(ctx, events)
}

func (p *primary) flush(ctx context.Context) error {
	if p.coord != nil {
		return p.coord.Flush(ctx)
	}
	return p.svc.Flush(ctx)
}

func (p *primary) checkpoint(ctx context.Context) error {
	if p.coord != nil {
		return p.coord.Checkpoint(ctx)
	}
	return p.svc.Checkpoint(ctx)
}

func (p *primary) epm(dim string) (stream.EPMView, error) {
	if p.coord != nil {
		return p.coord.EPMClusters(dim)
	}
	return p.svc.EPMClusters(dim)
}

func (p *primary) b() stream.BView {
	if p.coord != nil {
		return p.coord.BClusters()
	}
	return p.svc.BClusters()
}

// newPrimary builds a durable primary — a bare service at one shard
// (matching what a single-shard daemon serves) and a coordinator
// otherwise — plus its shipping publisher behind an httptest server.
func newPrimary(t *testing.T, shards int, scfg stream.Config) *primary {
	t.Helper()
	p := &primary{}
	var sources []replica.Source
	if shards == 1 {
		svc, err := stream.New(scfg, fakeEnricher{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(svc.Close)
		p.svc = svc
		dir, log := svc.ReplicationSource()
		sources = []replica.Source{{Dir: dir, Log: log}}
	} else {
		coord, err := shard.New(shard.Config{Shards: shards, Stream: scfg}, fakeEnricher{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(coord.Close)
		p.coord = coord
		for i := 0; i < coord.Shards(); i++ {
			dir, log := coord.Shard(i).ReplicationSource()
			sources = append(sources, replica.Source{Dir: dir, Log: log})
		}
	}
	pub, err := replica.NewPublisher(sources)
	if err != nil {
		t.Fatal(err)
	}
	p.pub = pub
	p.srv = httptest.NewServer(pub.Handler())
	t.Cleanup(p.srv.Close)
	return p
}

func newFollower(t *testing.T, p *primary, poll time.Duration) *replica.Follower {
	t.Helper()
	f, err := replica.NewFollower(replica.FollowerConfig{
		Primary:  p.srv.URL,
		Stream:   testConfig(8),
		Enricher: fakeEnricher{},
		Poll:     poll,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// TestFollowerEquivalence is the end-to-end tentpole gate: a follower
// bootstrapped over HTTP from a mid-stream checkpoint plus the shipped
// WAL suffix serves cluster views byte-identical to the primary's, at
// one shard and at four.
func TestFollowerEquivalence(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ctx := context.Background()
			scfg := testConfig(8)
			scfg.Durability = stream.Durability{Dir: t.TempDir(), NoSync: true, SegmentBytes: 1 << 10}
			p := newPrimary(t, shards, scfg)

			events := dirtyCorpus(150)
			const batchSize = 10
			for bi := 0; bi*batchSize < len(events); bi++ {
				lo, hi := bi*batchSize, (bi+1)*batchSize
				if hi > len(events) {
					hi = len(events)
				}
				if err := p.ingest(ctx, events[lo:hi]); err != nil {
					t.Fatal(err)
				}
				if bi == 6 {
					// Mid-stream checkpoint: the bootstrap must splice
					// snapshot restore with WAL-suffix replay.
					if err := p.checkpoint(ctx); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := p.flush(ctx); err != nil {
				t.Fatal(err)
			}

			f := newFollower(t, p, 10*time.Millisecond)
			if err := f.Bootstrap(ctx); err != nil {
				t.Fatal(err)
			}

			for _, dim := range []string{"epsilon", "pi", "mu"} {
				fv, err := f.EPMClusters(dim)
				if err != nil {
					t.Fatal(err)
				}
				pv, err := p.epm(dim)
				if err != nil {
					t.Fatal(err)
				}
				fb, _ := json.Marshal(fv)
				pb, _ := json.Marshal(pv)
				if string(fb) != string(pb) {
					t.Fatalf("%s view diverges:\nfollower %s\nprimary  %s", dim, fb, pb)
				}
			}
			fb, _ := json.Marshal(f.BClusters())
			pb, _ := json.Marshal(p.b())
			if string(fb) != string(pb) {
				t.Fatalf("b view diverges:\nfollower %s\nprimary  %s", fb, pb)
			}

			lag := f.Lag()
			if !lag.Bootstrapped || !lag.CaughtUp || lag.BehindRecords != 0 {
				t.Fatalf("lag after bootstrap: %+v", lag)
			}
			if err := f.Ready(); err != nil {
				t.Fatalf("Ready after bootstrap: %v", err)
			}
			if err := f.IngestFrom(ctx, "c", events[:1]); !errors.Is(err, stream.ErrReadOnly) {
				t.Fatalf("IngestFrom on follower: %v, want ErrReadOnly", err)
			}
			if err := f.Flush(ctx); !errors.Is(err, stream.ErrReadOnly) {
				t.Fatalf("Flush on follower: %v, want ErrReadOnly", err)
			}
			st, ok := f.StatsPayload().(replica.FollowerStats)
			if !ok || !st.Replication.CaughtUp {
				t.Fatalf("stats payload: %+v", f.StatsPayload())
			}
		})
	}
}

// TestFollowerTailsNewRecords starts the poll loop and checks the
// follower converges on records written after its bootstrap.
func TestFollowerTailsNewRecords(t *testing.T) {
	ctx := context.Background()
	scfg := testConfig(8)
	scfg.Durability = stream.Durability{Dir: t.TempDir(), NoSync: true, SegmentBytes: 1 << 10}
	p := newPrimary(t, 1, scfg)
	if err := p.ingest(ctx, dirtyCorpus(40)); err != nil {
		t.Fatal(err)
	}

	f := newFollower(t, p, 5*time.Millisecond)
	if err := f.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	f.Start()

	more := dirtyCorpus(120)[40:]
	for i := 0; i < len(more); i += 10 {
		if err := p.ingest(ctx, more[i:i+10]); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.flush(ctx); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	_, log := p.svc.ReplicationSource()
	for {
		lag := f.Lag()
		if lag.CaughtUp && len(lag.AppliedSeq) == 1 && lag.AppliedSeq[0] == log.LastSeq() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: %+v (primary at %d)", lag, log.LastSeq())
		}
		time.Sleep(5 * time.Millisecond)
	}
	fb, _ := json.Marshal(f.BClusters())
	pb, _ := json.Marshal(p.b())
	if string(fb) != string(pb) {
		t.Fatalf("b view diverges after tailing:\nfollower %s\nprimary  %s", fb, pb)
	}
}

// TestFollowerRebootstrapOnGC leaves a follower behind a primary that
// checkpoints and garbage-collects its WAL past the follower's applied
// seq; the tail loop must detect the missed shipping window and
// re-bootstrap from the newer checkpoint rather than serve a gap.
func TestFollowerRebootstrapOnGC(t *testing.T) {
	ctx := context.Background()
	scfg := testConfig(8)
	scfg.Durability = stream.Durability{Dir: t.TempDir(), NoSync: true, SegmentBytes: 64}
	p := newPrimary(t, 1, scfg)
	if err := p.ingest(ctx, dirtyCorpus(30)); err != nil {
		t.Fatal(err)
	}

	f := newFollower(t, p, 5*time.Millisecond)
	if err := f.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	behind := f.Lag().AppliedSeq[0]

	// Advance the primary well past the follower and checkpoint twice:
	// the second checkpoint truncates segments the follower still
	// needs, so tailing alone cannot catch up.
	more := dirtyCorpus(120)[30:]
	for i := 0; i < len(more); i += 10 {
		if err := p.ingest(ctx, more[i:i+10]); err != nil {
			t.Fatal(err)
		}
		if err := p.checkpoint(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.flush(ctx); err != nil {
		t.Fatal(err)
	}
	segs, err := p.pub.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if min := segs.PerShard[0].Segments[0].FirstSeq; min <= behind+1 {
		t.Fatalf("GC did not pass the follower (min first_seq %d, follower at %d); tighten the test", min, behind)
	}

	f.Start()
	_, log := p.svc.ReplicationSource()
	deadline := time.Now().Add(10 * time.Second)
	for {
		lag := f.Lag()
		if lag.CaughtUp && lag.Bootstraps >= 2 && len(lag.AppliedSeq) == 1 && lag.AppliedSeq[0] == log.LastSeq() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never re-bootstrapped: %+v (primary at %d)", lag, log.LastSeq())
		}
		time.Sleep(5 * time.Millisecond)
	}
	fb, _ := json.Marshal(f.BClusters())
	pb, _ := json.Marshal(p.b())
	if string(fb) != string(pb) {
		t.Fatalf("b view diverges after re-bootstrap:\nfollower %s\nprimary  %s", fb, pb)
	}
}

// TestManifestAtomicity hammers Manifest() while the primary ingests,
// auto-checkpoints, and garbage-collects concurrently: no snapshot may
// ever advertise a checkpoint whose WAL suffix the advertised segments
// fail to cover (min first_seq must stay <= checkpoint_seq+1), or a
// bootstrapping follower would be stranded on a truncated log.
func TestManifestAtomicity(t *testing.T) {
	ctx := context.Background()
	scfg := testConfig(8)
	scfg.Durability = stream.Durability{
		Dir:             t.TempDir(),
		NoSync:          true,
		SegmentBytes:    1, // rotate every record
		CheckpointEvery: 1, // checkpoint+GC after every record
	}
	p := newPrimary(t, 1, scfg)

	done := make(chan error, 1)
	go func() {
		events := dirtyCorpus(300)
		for i := range events {
			if err := p.ingest(ctx, events[i:i+1]); err != nil {
				done <- err
				return
			}
		}
		done <- p.flush(ctx)
	}()

	for i := 0; ; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				t.Fatal("reader never overlapped the writer")
			}
			return
		default:
		}
		man, err := p.pub.Manifest()
		if err != nil {
			t.Fatal(err)
		}
		for _, sm := range man.PerShard {
			if len(sm.Segments) == 0 {
				continue
			}
			if min := sm.Segments[0].FirstSeq; min > sm.CheckpointSeq+1 {
				t.Fatalf("manifest advertises truncated suffix: min first_seq %d > checkpoint_seq %d + 1",
					min, sm.CheckpointSeq)
			}
		}
	}
}

// bigCheckpoint builds a one-shard durable primary holding a checkpoint
// with a multi-MiB payload and returns it with the checkpoint file's info
// and the payload's size.
func bigCheckpoint(t *testing.T) (*primary, os.FileInfo, int64) {
	t.Helper()
	ctx := context.Background()
	dir := t.TempDir()
	scfg := testConfig(0)
	scfg.Durability = stream.Durability{Dir: dir, NoSync: true}
	p := newPrimary(t, 1, scfg)
	for lo := 0; lo < 12000; lo += 500 {
		var batch []dataset.Event
		for i := lo; i < lo+500; i++ {
			batch = append(batch, testEvent(i, fmt.Sprintf("v%d", i%5)))
		}
		if err := p.ingest(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, "checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	payload := p.svc.Stats().WAL.LastCheckpointPayloadBytes
	if payload < 4<<20 {
		t.Fatalf("checkpoint payload is only %d bytes; the guard needs a multi-MiB one", payload)
	}
	return p, fi, payload
}

// TestManifestAllocations: every follower poll asks for the manifest,
// and the manifest inflates each checkpoint's header for its seq and
// lets the CRC check the rest of the file as it streams past, so a poll
// allocates a small fraction of the checkpoint's payload however large
// it is. Not parallel: the measure is the process's allocation counter.
func TestManifestAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a multi-MiB checkpoint")
	}
	p, fi, payload := bigCheckpoint(t)
	want := p.svc.Stats().WAL.LastCheckpointSeq
	const polls = 5
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < polls; i++ {
		man, err := p.pub.Manifest()
		if err != nil {
			t.Fatal(err)
		}
		if got := man.PerShard[0].CheckpointSeq; got != want {
			t.Fatalf("manifest checkpoint seq %d, want %d", got, want)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / polls
	t.Logf("a manifest poll over a checkpoint of a %d-byte payload (a %d-byte file) allocated %d bytes", payload, fi.Size(), per)
	if per*10 >= uint64(payload) {
		t.Fatalf("a manifest poll allocated %d bytes for a %d-byte payload, want < a tenth", per, payload)
	}
}

// TestCheckpointFetchAllocations: a bootstrap fetch streams the sealed
// checkpoint file from disk, trailer included, instead of loading it, so
// it allocates a small fraction of the checkpoint's payload however
// large it is, and less than the compressed file it ships. Not parallel:
// the measure is the process's allocation counter.
func TestCheckpointFetchAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a multi-MiB checkpoint")
	}
	p, fi, payload := bigCheckpoint(t)
	h := p.pub.Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/repl/checkpoint/0", nil)
	w := &hashingResponse{h: sha256.New()}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(w, req)
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("a checkpoint fetch of a %d-byte payload (a %d-byte file) allocated %d bytes", payload, fi.Size(), alloc)

	dir, _ := p.svc.ReplicationSource()
	disk, err := os.ReadFile(filepath.Join(dir, fi.Name()))
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(disk); w.status != 0 || w.n != fi.Size() || !bytes.Equal(w.h.Sum(nil), sum[:]) {
		t.Fatalf("fetch answered %d with %d bytes; want the %d-byte sealed file as it lies on disk", w.status, w.n, fi.Size())
	}
	if alloc*10 >= uint64(payload) || alloc >= uint64(fi.Size()) {
		t.Fatalf("a checkpoint fetch allocated %d bytes for a %d-byte payload in a %d-byte file, want < a tenth of the payload and < the file", alloc, payload, fi.Size())
	}
}

// hashingResponse is an http.ResponseWriter that hashes the body instead
// of keeping it.
type hashingResponse struct {
	header http.Header
	status int // 0 until WriteHeader: an implicit 200
	n      int64
	h      hash.Hash
}

func (w *hashingResponse) Header() http.Header {
	if w.header == nil {
		w.header = http.Header{}
	}
	return w.header
}

func (w *hashingResponse) WriteHeader(code int) { w.status = code }

func (w *hashingResponse) Write(b []byte) (int, error) {
	w.n += int64(len(b))
	return w.h.Write(b)
}

// TestFollowerFallsBackPastCorruptCheckpoint corrupts the primary's live
// checkpoint on disk: the publisher must ship the newest retained
// generation instead, and a follower bootstrapped from it must converge
// on the primary's views.
func TestFollowerFallsBackPastCorruptCheckpoint(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	scfg := testConfig(8)
	scfg.Durability = stream.Durability{Dir: dir, NoSync: true, SegmentBytes: 1 << 10}
	p := newPrimary(t, 1, scfg)
	events := dirtyCorpus(150)
	for i, part := range [][]dataset.Event{events[:60], events[60:100], events[100:]} {
		if err := p.ingest(ctx, part); err != nil {
			t.Fatal(err)
		}
		if i < 2 {
			if err := p.checkpoint(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := p.flush(ctx); err != nil {
		t.Fatal(err)
	}
	live := filepath.Join(dir, "checkpoint.json")
	blob, err := os.ReadFile(live)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 1
	if err := os.WriteFile(live, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	man, err := p.pub.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if got, newest := man.PerShard[0].CheckpointSeq, p.svc.Stats().WAL.LastCheckpointSeq; got == 0 || got >= newest {
		t.Fatalf("manifest advertises checkpoint seq %d; want the older generation's, below the corrupt live %d", got, newest)
	}

	f := newFollower(t, p, 10*time.Millisecond)
	if err := f.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	for _, dim := range []string{"epsilon", "pi", "mu"} {
		fv, err := f.EPMClusters(dim)
		if err != nil {
			t.Fatal(err)
		}
		pv, err := p.epm(dim)
		if err != nil {
			t.Fatal(err)
		}
		fb, _ := json.Marshal(fv)
		pb, _ := json.Marshal(pv)
		if string(fb) != string(pb) {
			t.Fatalf("%s view diverges:\nfollower %s\nprimary  %s", dim, fb, pb)
		}
	}
	fb, _ := json.Marshal(f.BClusters())
	pb, _ := json.Marshal(p.b())
	if string(fb) != string(pb) {
		t.Fatalf("b view diverges:\nfollower %s\nprimary  %s", fb, pb)
	}
}

// TestFollowerReadiness pins the readiness contract: not ready before
// bootstrap, ready when caught up, not ready once staleness exceeds
// MaxLag.
func TestFollowerReadiness(t *testing.T) {
	ctx := context.Background()
	scfg := testConfig(8)
	scfg.Durability = stream.Durability{Dir: t.TempDir(), NoSync: true}
	p := newPrimary(t, 1, scfg)
	if err := p.ingest(ctx, dirtyCorpus(20)); err != nil {
		t.Fatal(err)
	}

	f, err := replica.NewFollower(replica.FollowerConfig{
		Primary:  p.srv.URL,
		Stream:   testConfig(8),
		Enricher: fakeEnricher{},
		Poll:     time.Hour, // never polls: staleness only moves via Bootstrap
		MaxLag:   50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	if err := f.Ready(); err == nil {
		t.Fatal("ready before bootstrap")
	}
	if err := f.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	if err := f.Ready(); err != nil {
		t.Fatalf("not ready right after bootstrap: %v", err)
	}
	time.Sleep(80 * time.Millisecond)
	if err := f.Ready(); err == nil {
		t.Fatal("still ready past MaxLag with no successful poll")
	}
}
