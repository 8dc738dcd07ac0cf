package stream_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/enrich"
	"repro/internal/poison"
	"repro/internal/stream"
)

// TestStatsClientsLedger pins the -stats-clients surface on its own:
// with no defense knob set, the service stays undefended (no defense
// stats, no B statuses) but the per-client ledger attributes applied
// events and first-seen samples to their ingest identity, loopback
// included, with zero distrust everywhere.
func TestStatsClientsLedger(t *testing.T) {
	cfg := testConfig(4)
	cfg.StatsClients = true
	svc := newTestService(t, cfg)
	ctx := context.Background()

	batch := func(lo, hi int, variant string) []dataset.Event {
		var evs []dataset.Event
		for i := lo; i < hi; i++ {
			evs = append(evs, testEvent(i, variant))
		}
		return evs
	}
	if err := svc.IngestFrom(ctx, "alice", batch(0, 6, "va")); err != nil {
		t.Fatal(err)
	}
	if err := svc.IngestFrom(ctx, "bob", batch(6, 10, "vb")); err != nil {
		t.Fatal(err)
	}
	if err := svc.Ingest(ctx, batch(10, 13, "vc")); err != nil {
		t.Fatal(err)
	}
	if err := svc.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	st := svc.Stats()
	if st.Defense != nil {
		t.Fatalf("StatsClients alone must not enable defenses: %+v", st.Defense)
	}
	if len(st.Clients) != 3 {
		t.Fatalf("Clients = %+v, want loopback + alice + bob", st.Clients)
	}
	wantEvents := map[string]int{"": 3, "alice": 6, "bob": 4}
	for _, cs := range st.Clients {
		if cs.Events != wantEvents[cs.Client] {
			t.Errorf("client %q: %d events, want %d", cs.Client, cs.Events, wantEvents[cs.Client])
		}
		if cs.Samples == 0 {
			t.Errorf("client %q attributed no samples", cs.Client)
		}
		if cs.Distrust != 0 || cs.Suspicion != 0 || cs.Held != 0 || cs.Parked != 0 {
			t.Errorf("client %q accrued defense state without defenses: %+v", cs.Client, cs)
		}
	}

	// Sample views carry the attribution; no B status without defenses.
	v, ok := svc.Sample("md5-va-0")
	if !ok {
		t.Fatal("alice's sample not queryable")
	}
	if v.Client != "alice" {
		t.Errorf("sample client = %q, want alice", v.Client)
	}
	if v.BStatus != "" {
		t.Errorf("undefended sample has B status %q", v.BStatus)
	}
}

// TestClientLedgerSurvivesRecovery pins the durability of provenance:
// WAL records carry the ingest client, so a crash-recovered service
// rebuilds exactly the ledger the original accumulated.
func TestClientLedgerSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(4)
	cfg.StatsClients = true
	cfg.Durability = stream.Durability{Dir: dir, CheckpointEvery: 3, NoSync: true}
	ctx := context.Background()

	svc, err := stream.New(cfg, fakeEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	var evs []dataset.Event
	for i := 0; i < 8; i++ {
		evs = append(evs, testEvent(i, "va"))
	}
	if err := svc.IngestFrom(ctx, "alice", evs); err != nil {
		t.Fatal(err)
	}
	if err := svc.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	want := svc.Stats().Clients
	svc.Close()
	if len(want) == 0 {
		t.Fatal("no client ledger before the crash")
	}

	recovered, err := stream.New(cfg, fakeEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	got := recovered.Stats().Clients
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered ledger %+v != original %+v", got, want)
	}
	v, ok := recovered.Sample("md5-va-0")
	if !ok || v.Client != "alice" {
		t.Fatalf("recovered sample attribution = %+v, %v", v, ok)
	}
}

// TestDefendedRecoveryEquivalence is recovered ≡ uninterrupted for a
// defended service in which some samples reach the B-clusterer only
// after the restart: a transient-fault enricher keeps them in the retry
// pool across the checkpoint, so the anomaly gate reads the μ-group the
// recovered service derives for them from their features.
func TestDefendedRecoveryEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the poisoned SmallScenario")
	}
	sc := core.SmallScenario()
	sc.Landscape.Poison.Rate = 0.10
	batch, err := core.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	events := batch.Dataset.Events()
	ctx := context.Background()
	// run feeds the events in two halves, restarting between them when
	// durable. One enricher serves both lives, so its fault schedule
	// runs on as in the uninterrupted run.
	run := func(durable bool) *stream.Service {
		cfg := stream.Config{
			EpochSize: 64, Thresholds: sc.Thresholds, BCluster: poison.DefaultDefense(sc.Enrichment.BCluster),
			StatsClients: true, Retry: stream.Retry{MaxAttempts: 6},
		}
		if durable {
			cfg.Durability = stream.Durability{Dir: t.TempDir(), NoSync: true}
		}
		enricher := enrich.NewFaulty(batch.Pipeline, enrich.FaultConfig{FailFirst: 2})
		svc, err := stream.New(cfg, enricher)
		if err != nil {
			t.Fatal(err)
		}
		half := len(events) / 2
		if err := poison.IngestByClient(ctx, svc, events[:half], 64); err != nil {
			t.Fatal(err)
		}
		if durable {
			if err := svc.Sync(ctx); err != nil {
				t.Fatal(err)
			}
			if svc.Stats().Retry.Pending == 0 {
				t.Fatal("test premise broken: no sample waits in the retry pool at the restart")
			}
			if err := svc.Checkpoint(ctx); err != nil {
				t.Fatal(err)
			}
			svc.Close()
			if svc, err = stream.New(cfg, enricher); err != nil {
				t.Fatal(err)
			}
		}
		if err := poison.IngestByClient(ctx, svc, events[half:], 64); err != nil {
			t.Fatal(err)
		}
		if err := svc.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(svc.Close)
		return svc
	}
	got, want := run(true), run(false)
	if !reflect.DeepEqual(bMembers(got.BResult()), bMembers(want.BResult())) {
		t.Fatal("recovered: B partition diverges")
	}
	// A defended restore replays the recorded decisions instead of
	// scanning, so B's candidate-pair and link counts are path-dependent
	// here (bcluster.Incremental.Stats); every other counter must match.
	gs, ws := normStats(got.Stats()), normStats(want.Stats())
	gs.B.CandidatePairs, gs.B.Links = ws.B.CandidatePairs, ws.B.Links
	if !reflect.DeepEqual(gs, ws) {
		t.Fatalf("recovered: stats diverge:\ngot  %+v\nwant %+v", gs, ws)
	}
	for _, smp := range want.Dataset().Samples() {
		gv, _ := got.Sample(smp.MD5)
		wv, _ := want.Sample(smp.MD5)
		if gv.BStatus != wv.BStatus {
			t.Fatalf("recovered: sample %s has B status %q, uninterrupted %q", smp.MD5, gv.BStatus, wv.BStatus)
		}
	}
	if ws.Defense == nil || ws.Defense.ParkedTotal == 0 {
		t.Fatal("test premise broken: the anomaly gate parked nothing")
	}
}
