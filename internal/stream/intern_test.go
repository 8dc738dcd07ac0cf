package stream_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/behavior"
	"repro/internal/dataset"
	"repro/internal/faultfs"
	"repro/internal/stream"
	"repro/internal/wal"
)

// collideA and collideB are two distinct printable strings with one
// FNV-1a 64 hash.
const (
	collideA = "08%5kU>5/eI8iu"
	collideB = "=m%&7Q#*!>>]Tz"
)

// collideEnricher profiles variant "a" with collideA and variant "b"
// with collideB, beside a feature the two share.
type collideEnricher struct{}

func (collideEnricher) LabelSample(s *dataset.Sample) error { return nil }

func (collideEnricher) ExecuteSample(s *dataset.Sample) (*behavior.Profile, bool, error) {
	p := behavior.NewProfile()
	p.Add("collide-shared")
	switch s.TruthVariant {
	case "a":
		p.Add(collideA)
	case "b":
		p.Add(collideB)
	}
	return p, false, nil
}

// TestFeatureCollisionQuarantines: a profile whose feature shares its
// hash with a different, already interned string is refused with the
// typed error, and the sample is quarantined with it instead of joining
// the B partition under a merged hash.
func TestFeatureCollisionQuarantines(t *testing.T) {
	if behavior.FeatureHash(collideA) != behavior.FeatureHash(collideB) {
		t.Fatal("premise: the two strings must share a hash")
	}
	svc, err := stream.New(testConfig(0), collideEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	// Separate batches: the first string reaches the table first.
	for i, v := range []string{"a", "b"} {
		if err := svc.Ingest(ctx, []dataset.Event{testEvent(i, v)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	a, b := testEvent(0, "a").Sample.MD5, testEvent(1, "b").Sample.MD5
	q := svc.Quarantined()
	if len(q) != 1 || !strings.Contains(q[b], "share the hash") {
		t.Fatalf("quarantine %v, want only %s, refused for the hash collision", q, b)
	}
	if va, _ := svc.Sample(a); va.BSize != 1 || va.ProfileFeatures != 2 {
		t.Fatalf("sample a %+v, want it clustered with its two features", va)
	}
	if vb, _ := svc.Sample(b); vb.BSize != 0 || vb.ProfileFeatures != 0 {
		t.Fatalf("sample b %+v, want it outside the B partition with no profile", vb)
	}
	if st := svc.Stats(); st.Retry.Quarantined != 1 || st.B.Samples != 1 {
		t.Fatalf("stats %+v %+v, want one quarantined sample and one B sample", st.Retry, st.B)
	}
}

// TestInternedProfilesShareAcrossRestore: samples that behaved alike
// hold one interned name list, which is also their B input's, and a
// recovered service shares the same list again.
func TestInternedProfilesShareAcrossRestore(t *testing.T) {
	cfg, _ := durable(t, testConfig(8))
	svc, err := stream.New(cfg, pinEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var events []dataset.Event
	for i := 0; i < 40; i++ {
		e := testEvent(i, fmt.Sprintf("v%d", i%3))
		e.Sample.MD5 = fmt.Sprintf("md5-%d", i%12)
		events = append(events, e)
	}
	if err := stream.Replay(ctx, svc, events, 7); err != nil {
		t.Fatal(err)
	}
	names := func(svc *stream.Service) map[string]*string {
		out := map[string]*string{}
		inputs := stream.BInputNames(svc)
		for _, smp := range svc.Dataset().Samples() {
			p := unsafe.SliceData(smp.Profile)
			if q := unsafe.SliceData(inputs[smp.MD5]); q != p {
				t.Fatalf("sample %s and its B input hold two name lists", smp.MD5)
			}
			out[smp.MD5] = p
		}
		return out
	}
	before := names(svc)
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			same := i%3 == j%3
			if shared := before[fmt.Sprintf("md5-%d", i)] == before[fmt.Sprintf("md5-%d", j)]; shared != same {
				t.Fatalf("samples %d and %d share a name list: %v, want %v", i, j, shared, same)
			}
		}
	}
	svc.Close()
	re, err := stream.New(cfg, pinEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	after := names(re)
	for md5, p := range before {
		if after[md5] != p {
			t.Fatalf("recovered sample %s holds another name list", md5)
		}
	}
}

// heapProbe samples the live heap while recovery reads the checkpoint:
// before every read that crosses another 16 KiB of the compressed file
// (about 256 KiB of payload), and at its end, it collects garbage and
// records HeapAlloc.
type heapProbe struct {
	faultfs.FS
	peak uint64
}

func (h *heapProbe) Open(name string) (faultfs.File, error) {
	f, err := h.FS.Open(name)
	if err != nil || filepath.Base(name) != "checkpoint.json" {
		return f, err
	}
	return &probedFile{File: f, probe: h}, nil
}

type probedFile struct {
	faultfs.File
	probe     *heapProbe
	pos, next int64
}

func (p *probedFile) Read(b []byte) (int, error) {
	n, err := p.File.Read(b)
	p.pos += int64(n)
	if p.pos >= p.next || err == io.EOF {
		p.next = p.pos + 16<<10
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		p.probe.peak = max(p.probe.peak, m.HeapAlloc)
	}
	return n, err
}

// TestRecoveryHoldsLessThanTheCheckpoint bounds what recovery holds
// while it decodes a checkpoint whose samples each have a large profile:
// less than the payload's size above the heap before recovery. Interning
// each set as it is decoded drops the decoded strings of every set the
// table already holds; holding every B input's strings until the
// clusterer was rebuilt needed twice the payload. Not parallel: the
// measure is the process's heap.
func TestRecoveryHoldsLessThanTheCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests 3k events")
	}
	cfg, dir := durable(t, testConfig(0))
	svc, err := stream.New(cfg, wideEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	events := make([]dataset.Event, 3000)
	for i := range events {
		events[i] = testEvent(i, fmt.Sprintf("v%d", i%7))
		events[i].ID = fmt.Sprintf("ev%06d", i)
		events[i].Sample.MD5 = fmt.Sprintf("md5-%06d", i)
	}
	for lo := 0; lo < len(events); lo += 500 {
		if err := svc.Ingest(ctx, events[lo:lo+500]); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	payload := svc.Stats().WAL.LastCheckpointPayloadBytes
	svc.Close()
	fi, err := os.Stat(filepath.Join(dir, "checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	probe := &heapProbe{FS: faultfs.OS}
	cfg.Durability.FS = probe
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	re, err := stream.New(cfg, wideEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	held := probe.peak - min(probe.peak, before.HeapAlloc)
	t.Logf("recovery from a %d-byte payload (a %d-byte file) held at most %d bytes (%.2fx the payload)", payload, fi.Size(), held, float64(held)/float64(payload))
	if st := re.Stats(); st.Events != len(events) || st.B.Samples != len(events) {
		t.Fatalf("recovered %d events, %d B samples; want %d", st.Events, st.B.Samples, len(events))
	}
	if held >= uint64(payload) {
		t.Fatalf("recovery from a %d-byte payload held %d bytes, want less than the payload", payload, held)
	}
}

// wideEnricher gives every sample its own 60-feature profile.
type wideEnricher struct{}

func (wideEnricher) LabelSample(s *dataset.Sample) error { return nil }

func (wideEnricher) ExecuteSample(s *dataset.Sample) (*behavior.Profile, bool, error) {
	p := behavior.NewProfile()
	for k := 0; k < 60; k++ {
		p.Add(fmt.Sprintf("registry-set|HKLM\\Software\\%s\\%s\\key%02d", s.TruthVariant, s.MD5, k))
	}
	return p, false, nil
}

// TestWALReadFaultRefusesStart: a WAL segment that cannot be read
// fails the start with the log's typed error instead of starting on a
// shorter log, and a clean start afterwards finds every event.
func TestWALReadFaultRefusesStart(t *testing.T) {
	cfg, _ := durable(t, testConfig(8))
	svc, err := stream.New(cfg, fakeEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	events := cleanCorpus(60)
	if err := stream.Replay(context.Background(), svc, events, 10); err != nil {
		t.Fatal(err)
	}
	svc.Close()

	faulty := cfg
	faulty.Durability.FS = faultfs.New(nil, faultfs.Config{Rules: []faultfs.Rule{{Op: faultfs.OpRead, At: 1, Until: -1, Kind: faultfs.KindEIO}}})
	var ioErr *wal.IOError
	if _, err := stream.New(faulty, fakeEnricher{}); !errors.As(err, &ioErr) {
		t.Fatalf("start under unreadable storage: %v, want a *wal.IOError", err)
	}
	re, err := stream.New(cfg, fakeEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.Stats(); st.Events != len(events) {
		t.Fatalf("clean restart holds %d events, want %d", st.Events, len(events))
	}
}
