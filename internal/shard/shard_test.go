package shard_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/bcluster"
	"repro/internal/behavior"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/epm"
	"repro/internal/pe"
	"repro/internal/shard"
	"repro/internal/stream"
)

// fakeEnricher mirrors the stream tests' enricher: one AV label and ten
// behavioral features per truth variant, so variants cluster together.
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

// testEvent builds a well-formed event; variant "" omits the sample.
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

func cleanCorpus(n int) []dataset.Event {
	out := make([]dataset.Event, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, testEvent(i, fmt.Sprintf("v%d", i%3)))
	}
	return out
}

func coordConfig(epochSize, shards int) shard.Config {
	scfg := stream.DefaultConfig()
	scfg.EpochSize = epochSize
	scfg.QueueDepth = 4
	return shard.Config{Shards: shards, Stream: scfg}
}

func newCoordinator(t *testing.T, cfg shard.Config) *shard.Coordinator {
	t.Helper()
	c, err := shard.New(cfg, fakeEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// feed replays the corpus through the coordinator in batches and
// flushes.
func feed(t *testing.T, c *shard.Coordinator, events []dataset.Event, batchSize int) {
	t.Helper()
	ctx := context.Background()
	for lo := 0; lo < len(events); lo += batchSize {
		hi := min(lo+batchSize, len(events))
		if err := c.Ingest(ctx, events[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
}

func bMembers(r *bcluster.Result) [][]string {
	out := make([][]string, len(r.Clusters))
	for i, c := range r.Clusters {
		out[i] = c.Members
	}
	return out
}

// TestRouterStability is the router property gate: the sample→shard
// mapping is a pure function of the routing key — identical across
// coordinator restarts and arrival orders — events of one sample
// colocate regardless of download outcome, and the partition is
// reasonably balanced.
func TestRouterStability(t *testing.T) {
	// Colocation: same MD5, different event IDs and outcomes.
	a := testEvent(1, "v0")
	b := testEvent(5, "v0") // i%4 == 1: same MD5 as a
	b.DownloadOutcome = "failed"
	if shard.RouteKey(&a) != shard.RouteKey(&b) {
		t.Fatalf("events of one sample route apart: %q vs %q", shard.RouteKey(&a), shard.RouteKey(&b))
	}
	noSample := testEvent(2, "")
	if shard.RouteKey(&noSample) != noSample.ID {
		t.Fatalf("sample-less event must route by ID, got %q", shard.RouteKey(&noSample))
	}

	// Stability and order independence: the mapping of 10k keys is
	// identical when recomputed in a different order (there is no state
	// to depend on), and no shard starves.
	const n, shards = 10000, 4
	first := make(map[string]int, n)
	counts := make([]int, shards)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("md5-%032x", i)
		first[k] = shard.ShardOf(k, shards)
		counts[first[k]]++
	}
	perm := rand.New(rand.NewSource(3)).Perm(n)
	for _, i := range perm {
		k := fmt.Sprintf("md5-%032x", i)
		if got := shard.ShardOf(strings.Clone(k), shards); got != first[k] {
			t.Fatalf("ShardOf(%q) moved: %d then %d", k, first[k], got)
		}
	}
	for si, got := range counts {
		if got < n/shards/2 {
			t.Fatalf("shard %d starves: %d of %d keys", si, got, n)
		}
	}
}

// TestLayoutMismatchFailsClosed covers the durable-layout guard: a root
// written with one shard count refuses any other, and a pre-sharding
// single-service layout refuses to be sharded over.
func TestLayoutMismatchFailsClosed(t *testing.T) {
	root := t.TempDir()
	cfg := coordConfig(8, 2)
	cfg.Stream.Durability = stream.Durability{Dir: root, NoSync: true}
	c, err := shard.New(cfg, fakeEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()

	bad := cfg
	bad.Shards = 4
	if _, err := shard.New(bad, fakeEnricher{}); err == nil || !strings.Contains(err.Error(), "-shards=2") {
		t.Fatalf("shards=4 over a shards=2 layout: err = %v, want mismatch", err)
	}
	if c, err = shard.New(cfg, fakeEnricher{}); err != nil {
		t.Fatalf("matching shard count must reopen: %v", err)
	}
	c.Close()

	legacy := t.TempDir()
	if err := os.WriteFile(filepath.Join(legacy, "checkpoint.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Stream.Durability.Dir = legacy
	if _, err := shard.New(cfg, fakeEnricher{}); err == nil || !strings.Contains(err.Error(), "pre-sharding") {
		t.Fatalf("sharding over a legacy layout: err = %v, want refusal", err)
	}
}

// TestNewRefusesAmbiguousLayouts covers the layouts a root can reach by
// losing or gaining a file: shard directories whose manifest is gone
// must not be overwritten by a fresh manifest at any shard count, and a
// manifest next to single-service state must not pick one silently.
func TestNewRefusesAmbiguousLayouts(t *testing.T) {
	root := t.TempDir()
	cfg := coordConfig(8, 3)
	cfg.Stream.Durability = stream.Durability{Dir: root, NoSync: true}
	c, err := shard.New(cfg, fakeEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, c, cleanCorpus(21), 7)
	c.Close()

	manifest := filepath.Join(root, "shards.json")
	if err := os.Remove(manifest); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3} {
		cfg.Shards = n
		if _, err := shard.New(cfg, fakeEnricher{}); err == nil || !strings.Contains(err.Error(), "no shards.json") {
			t.Fatalf("shards=%d over shard directories without a manifest: err = %v, want refusal", n, err)
		}
		if _, err := os.Stat(manifest); !os.IsNotExist(err) {
			t.Fatalf("shards=%d wrote a manifest over the shard directories (stat err = %v)", n, err)
		}
	}

	mixed := t.TempDir()
	if err := os.WriteFile(filepath.Join(mixed, "shards.json"), []byte(`{"version":1,"shards":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(mixed, "checkpoint.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 2
	cfg.Stream.Durability.Dir = mixed
	if _, err := shard.New(cfg, fakeEnricher{}); err == nil || !strings.Contains(err.Error(), "single-service state") {
		t.Fatalf("manifest next to a flat checkpoint: err = %v, want refusal", err)
	}
}

// normEPMView strips the per-shard telemetry whose split legitimately
// depends on the shard count: epoch counters sum differently when the
// same corpus is partitioned differently. The clusters themselves —
// stable IDs, patterns, sizes, source counts — must be byte-identical.
func normEPMView(v stream.EPMView) stream.EPMView {
	v.Epoch = 0
	return v
}

// TestShardEquivalence is the tentpole correctness gate: the merged
// E/P/M/B views of an N-shard deployment are byte-identical to the
// 1-shard deployment for shards ∈ {1, 2, 4, 8} and any arrival order.
func TestShardEquivalence(t *testing.T) {
	events := cleanCorpus(240)
	shuffled := append([]dataset.Event(nil), events...)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})

	ref := newCoordinator(t, coordConfig(8, 1))
	feed(t, ref, events, 10)
	refB, err := ref.BResult()
	if err != nil {
		t.Fatal(err)
	}
	var refEPM [3]stream.EPMView
	for d, dim := range []string{"epsilon", "pi", "mu"} {
		if refEPM[d], err = ref.EPMClusters(dim); err != nil {
			t.Fatal(err)
		}
	}
	rEv, rSm, rEx, rE, rP, rM, rB := ref.Counts()

	for _, shards := range []int{1, 2, 4, 8} {
		for name, order := range map[string][]dataset.Event{"forward": events, "shuffled": shuffled} {
			label := fmt.Sprintf("shards=%d order=%s", shards, name)
			c := newCoordinator(t, coordConfig(8, shards))
			feed(t, c, order, 10)

			for d, dim := range []string{"epsilon", "pi", "mu"} {
				v, err := c.EPMClusters(dim)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(normEPMView(v), normEPMView(refEPM[d])) {
					t.Fatalf("%s: merged %s view diverges from 1-shard:\ngot  %+v\nwant %+v",
						label, dim, normEPMView(v), normEPMView(refEPM[d]))
				}
				mc, err := c.EPMClustering(dim)
				if err != nil {
					t.Fatal(err)
				}
				rc, err := ref.EPMClustering(dim)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(mc.Clusters, rc.Clusters) {
					t.Fatalf("%s: merged %s clustering diverges from 1-shard", label, dim)
				}
			}
			b, err := c.BResult()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(bMembers(b), bMembers(refB)) {
				t.Fatalf("%s: merged B partition diverges from 1-shard", label)
			}
			gEv, gSm, gEx, gE, gP, gM, gB := c.Counts()
			if gEv != rEv || gSm != rSm || gEx != rEx || gE != rE || gP != rP || gM != rM || gB != rB {
				t.Fatalf("%s: counts (%d,%d,%d,%d,%d,%d,%d) != 1-shard (%d,%d,%d,%d,%d,%d,%d)",
					label, gEv, gSm, gEx, gE, gP, gM, gB, rEv, rSm, rEx, rE, rP, rM, rB)
			}
			if st := c.Stats(); st.MergeErrors != 0 {
				t.Fatalf("%s: merge errors: %d (%s)", label, st.MergeErrors, st.LastMergeError)
			}
		}
	}
}

// TestShardScenarioEquivalence runs the full SmallScenario — real
// enrichment pipeline, sandbox executions fanned out over four shards —
// and checks the merged E/P/M/B clusterings are byte-identical to the
// one-shot batch pipeline, the same gate the 1-shard stream service
// passes in its own equivalence test.
func TestShardScenarioEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the SmallScenario")
	}
	sc := core.SmallScenario()
	batch, err := core.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	events := batch.Dataset.Events()
	bEvents, bSamples, bExec, bE, bP, bM, bB := batch.Counts()

	cfg := shard.Config{
		Shards: 4,
		Stream: stream.Config{
			EpochSize:  64,
			Thresholds: sc.Thresholds,
			BCluster:   sc.Enrichment.BCluster,
		},
	}
	c, err := shard.New(cfg, batch.Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	feed(t, c, events, 97)

	gEvents, gSamples, gExec, gE, gP, gM, gB := c.Counts()
	if gEvents != bEvents || gSamples != bSamples || gExec != bExec ||
		gE != bE || gP != bP || gM != bM || gB != bB {
		t.Fatalf("counts (%d,%d,%d,%d,%d,%d,%d) != batch (%d,%d,%d,%d,%d,%d,%d)",
			gEvents, gSamples, gExec, gE, gP, gM, gB,
			bEvents, bSamples, bExec, bE, bP, bM, bB)
	}
	for dim, want := range map[string]*epm.Clustering{"epsilon": batch.E, "pi": batch.P, "mu": batch.M} {
		got, err := c.EPMClustering(dim)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Clusters, want.Clusters) {
			t.Fatalf("merged %s clusters diverge from batch", dim)
		}
	}
	gb, err := c.BResult()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bMembers(gb), bMembers(batch.B)) {
		t.Fatal("merged B partition diverges from batch")
	}
	if st := c.Stats(); st.MergeErrors != 0 || st.Aggregate.EnrichErrors != 0 {
		t.Fatalf("unclean sharded replay: merge errors %d, enrich errors %d",
			st.MergeErrors, st.Aggregate.EnrichErrors)
	}
}

// TestShardRecoveryEquivalence is the durability gate: an N-shard
// deployment abandoned without a final checkpoint (the in-process stand-
// in for SIGKILL: the WAL holds records past the last checkpoint) and
// recovered from its per-shard directories must end byte-identical to an
// uninterrupted N-shard run.
func TestShardRecoveryEquivalence(t *testing.T) {
	events := cleanCorpus(120)
	const shards = 3

	want := newCoordinator(t, coordConfig(8, shards))
	feed(t, want, events, 10)

	root := t.TempDir()
	cfg := coordConfig(8, shards)
	cfg.Stream.Durability = stream.Durability{Dir: root, CheckpointEvery: 3, NoSync: true}
	ctx := context.Background()
	c, err := shard.New(cfg, fakeEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	// First half, flushed so the apply workers are idle, then abandoned
	// with the WAL ahead of the last checkpoint — no Close, no final
	// checkpoint, exactly the on-disk state a kill leaves behind.
	for lo := 0; lo < 60; lo += 10 {
		if err := c.Ingest(ctx, events[lo:lo+10]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	re, err := shard.New(cfg, fakeEnricher{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	t.Cleanup(re.Close)
	// Per-shard stats only: a merged view materialized at the 60-event
	// point would mint coordinator stable IDs for the transient pre-
	// threshold patterns, and the uninterrupted run never saw that point.
	recovered := 0
	for i := 0; i < re.Shards(); i++ {
		recovered += re.Shard(i).Stats().WAL.RecoveredRecords
	}
	if recovered == 0 {
		t.Fatal("recovery replayed no WAL records")
	}
	t.Logf("recovered %d WAL records across %d shards", recovered, shards)
	feed(t, re, events[60:], 10)

	for _, dim := range []string{"epsilon", "pi", "mu"} {
		gv, err := re.EPMClusters(dim)
		if err != nil {
			t.Fatal(err)
		}
		wv, err := want.EPMClusters(dim)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normEPMView(gv), normEPMView(wv)) {
			t.Fatalf("recovered %s view diverges:\ngot  %+v\nwant %+v", dim, gv, wv)
		}
	}
	gb, err := re.BResult()
	if err != nil {
		t.Fatal(err)
	}
	wb, err := want.BResult()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bMembers(gb), bMembers(wb)) {
		t.Fatal("recovered B partition diverges")
	}
	gEv, gSm, gEx, gE, gP, gM, gB := re.Counts()
	wEv, wSm, wEx, wE, wP, wM, wB := want.Counts()
	if gEv != wEv || gSm != wSm || gEx != wEx || gE != wE || gP != wP || gM != wM || gB != wB {
		t.Fatalf("recovered counts (%d,%d,%d,%d,%d,%d,%d) != uninterrupted (%d,%d,%d,%d,%d,%d,%d)",
			gEv, gSm, gEx, gE, gP, gM, gB, wEv, wSm, wEx, wE, wP, wM, wB)
	}
}

// TestSharedAdmissionLedger checks the chosen admission design: one
// client budget covers the whole deployment — N shards do not multiply a
// client's rate limit by N — while the trusted loopback path bypasses
// it.
func TestSharedAdmissionLedger(t *testing.T) {
	cfg := coordConfig(8, 4)
	cfg.Stream.Admission = admission.Config{RatePerSec: 1, Burst: 5}
	c := newCoordinator(t, cfg)
	ctx := context.Background()

	if err := c.IngestFrom(ctx, "client-a", cleanCorpus(5)); err != nil {
		t.Fatalf("first batch within burst rejected: %v", err)
	}
	err := c.IngestFrom(ctx, "client-a", cleanCorpus(5))
	if rej, ok := admission.AsRejection(err); !ok || rej.Reason != admission.ReasonRateLimit {
		t.Fatalf("burst-exhausted batch: err = %v, want rate-limit rejection", err)
	}
	if err := c.Ingest(ctx, cleanCorpus(5)); err != nil {
		t.Fatalf("trusted loopback batch rejected: %v", err)
	}
	if err := c.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	st := c.Stats()
	// The loopback batch repeats the first one, so half the admitted
	// events are duplicates.
	if st.Aggregate.Events != 5 || st.Aggregate.Duplicates != 5 {
		t.Fatalf("after Sync: %d events, %d duplicates applied, want 5/5", st.Aggregate.Events, st.Aggregate.Duplicates)
	}
	if st.Aggregate.Admission.RejectedBatches["rate-limit"] != 1 {
		t.Fatalf("aggregate admission missed the rejection: %+v", st.Aggregate.Admission)
	}
	if st.Aggregate.Admission.RateLimitClients != 1 {
		t.Fatalf("shared ledger tracks %d clients, want 1", st.Aggregate.Admission.RateLimitClients)
	}
}

// TestStatsPerShard covers the observability satellite: Stats carries
// one telemetry row per shard, and the aggregate sums what the rows
// report.
func TestStatsPerShard(t *testing.T) {
	c := newCoordinator(t, coordConfig(8, 4))
	feed(t, c, cleanCorpus(120), 10)

	st := c.Stats()
	if st.Shards != 4 || len(st.PerShard) != 4 {
		t.Fatalf("want 4 per-shard rows, got %+v", st)
	}
	events, samples, queueCap := 0, 0, 0
	for i, ps := range st.PerShard {
		if ps.Shard != i {
			t.Fatalf("row %d labeled shard %d", i, ps.Shard)
		}
		if ps.Events == 0 || ps.EpsilonEpoch == 0 || ps.BEpochs == 0 {
			t.Fatalf("shard %d saw no work: %+v", i, ps)
		}
		if ps.Degraded || ps.Fatal != "" {
			t.Fatalf("healthy shard %d reports %+v", i, ps)
		}
		events += ps.Events
		samples += ps.Samples
		queueCap += ps.QueueCap
	}
	if events != st.Aggregate.Events || events != 120 {
		t.Fatalf("per-shard events sum %d, aggregate %d, want 120", events, st.Aggregate.Events)
	}
	if samples != st.Aggregate.Samples {
		t.Fatalf("per-shard samples sum %d, aggregate %d", samples, st.Aggregate.Samples)
	}
	if queueCap != st.Aggregate.QueueCap {
		t.Fatalf("per-shard queue caps sum %d, aggregate %d", queueCap, st.Aggregate.QueueCap)
	}

	// Sample queries resolve through the merged views regardless of the
	// owning shard.
	seen := 0
	for _, e := range cleanCorpus(120) {
		if e.Sample.MD5 == "" {
			continue
		}
		v, ok := c.Sample(e.Sample.MD5)
		if !ok {
			t.Fatalf("sample %s not found", e.Sample.MD5)
		}
		if v.BSize == 0 || v.BRepresentative == "" {
			t.Fatalf("sample %s missing merged B membership: %+v", e.Sample.MD5, v)
		}
		seen++
	}
	if seen == 0 {
		t.Fatal("corpus had no samples")
	}
}
