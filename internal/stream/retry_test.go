package stream_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/enrich"
	"repro/internal/stream"
)

// runWithEnricher replays the corpus in fixed batches through a fresh
// service built on the given enricher and returns the flushed service.
func runWithEnricher(t *testing.T, cfg stream.Config, e stream.Enricher, batchSize int) *stream.Service {
	t.Helper()
	svc, err := stream.New(cfg, e)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	if err := stream.Replay(context.Background(), svc, cleanCorpus(120), batchSize); err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestTransientFaultRateKeepsPartitionIdentical is the chaos gate: with
// a 30% transient fault rate on both enrichment operations, every
// sample must still make it into the landscape — zero quarantines, and
// a post-Flush partition byte-identical to the fault-free run.
func TestTransientFaultRateKeepsPartitionIdentical(t *testing.T) {
	want := runWithEnricher(t, testConfig(8), fakeEnricher{}, 10)

	cfg := testConfig(8)
	cfg.Retry = stream.Retry{MaxAttempts: 8}
	faulty := enrich.NewFaulty(fakeEnricher{}, enrich.FaultConfig{Seed: 7, Rate: 0.3})
	got := runWithEnricher(t, cfg, faulty, 10)

	st := got.Stats()
	if tr, perm := faulty.Injected(); tr == 0 || perm != 0 {
		t.Fatalf("injected %d transient / %d permanent faults, want >0 / 0", tr, perm)
	}
	if st.Retry.Quarantined != 0 || len(got.Quarantined()) != 0 {
		t.Fatalf("quarantined %d samples under transient-only faults: %v", st.Retry.Quarantined, got.Quarantined())
	}
	if st.Executed != want.Stats().Executed {
		t.Fatalf("executed %d samples, fault-free run executed %d", st.Executed, want.Stats().Executed)
	}
	if st.Retry.Scheduled == 0 || st.Retry.Successes != st.Retry.Scheduled {
		t.Fatalf("retry pool did not drain cleanly: %+v", st.Retry)
	}
	for _, dim := range []string{"epsilon", "pi", "mu"} {
		gv, _ := got.EPMClusters(dim)
		wv, _ := want.EPMClusters(dim)
		if !reflect.DeepEqual(gv, wv) {
			t.Fatalf("%s view diverges under faults", dim)
		}
	}
	if !reflect.DeepEqual(bMembers(got.BResult()), bMembers(want.BResult())) {
		t.Fatal("B partition diverges under transient faults")
	}
}

// TestFailFirstAccounting pins the exact retry arithmetic for the
// fail-N-times-then-succeed schedule: with FailFirst=3 every sample
// burns three label attempts and three execute attempts before
// recovering, and nothing is quarantined.
func TestFailFirstAccounting(t *testing.T) {
	cfg := testConfig(8)
	cfg.Retry = stream.Retry{MaxAttempts: 5}
	faulty := enrich.NewFaulty(fakeEnricher{}, enrich.FaultConfig{FailFirst: 3})
	svc := runWithEnricher(t, cfg, faulty, 10)

	st := svc.Stats()
	// 12 distinct samples; per sample: 3 failed labels then success,
	// 3 failed executions then success.
	const samples = 12
	if st.Executed != samples || st.Degraded != 0 {
		t.Fatalf("executed=%d degraded=%d, want %d/0", st.Executed, st.Degraded, samples)
	}
	if st.EnrichErrors != 6*samples {
		t.Fatalf("enrich errors %d, want %d", st.EnrichErrors, 6*samples)
	}
	// Each sample enters the pool once per stage and leaves by success.
	if st.Retry.Scheduled != 2*samples || st.Retry.Successes != 2*samples {
		t.Fatalf("retry scheduled/successes %d/%d, want %d/%d", st.Retry.Scheduled, st.Retry.Successes, 2*samples, 2*samples)
	}
	// Per stage: the initial attempt is not a retry; attempts 2..4 are.
	if st.Retry.Attempts != 6*samples {
		t.Fatalf("retry attempts %d, want %d", st.Retry.Attempts, 6*samples)
	}
	if st.Retry.Quarantined != 0 || st.Retry.Pending != 0 {
		t.Fatalf("pool not clean after flush: %+v", st.Retry)
	}
	if st.B.Clusters != 3 {
		t.Fatalf("B clusters %d, want 3", st.B.Clusters)
	}
}

// TestPermanentFaultsQuarantine checks permanent failures degrade
// gracefully: the poisoned sample is quarantined with its final error,
// never retried, and the rest of the landscape is unaffected.
func TestPermanentFaultsQuarantine(t *testing.T) {
	cfg := testConfig(8)
	faulty := enrich.NewFaulty(fakeEnricher{}, enrich.FaultConfig{
		Permanent: map[string]bool{"md5-v0-0": true},
	})
	svc := runWithEnricher(t, cfg, faulty, 10)

	st := svc.Stats()
	q := svc.Quarantined()
	if len(q) != 1 || q["md5-v0-0"] == "" {
		t.Fatalf("quarantine = %v, want exactly md5-v0-0", q)
	}
	if st.Retry.Quarantined != 1 || st.Retry.Scheduled != 0 || st.Retry.Attempts != 0 {
		t.Fatalf("permanent failure must skip the retry pool: %+v", st.Retry)
	}
	if st.Executed != 11 {
		t.Fatalf("executed %d, want 11 (one sample quarantined)", st.Executed)
	}
	if st.B.Clusters != 3 || st.B.Samples != 11 {
		t.Fatalf("B clusters=%d samples=%d, want 3/11", st.B.Clusters, st.B.Samples)
	}
}

// TestQuarantineAfterMaxAttempts checks the transient budget: a sample
// that keeps failing transiently is quarantined after exactly
// MaxAttempts attempts, not before and not forever.
func TestQuarantineAfterMaxAttempts(t *testing.T) {
	cfg := testConfig(8)
	cfg.Retry = stream.Retry{MaxAttempts: 3}
	faulty := enrich.NewFaulty(fakeEnricher{}, enrich.FaultConfig{FailFirst: 100})
	svc := runWithEnricher(t, cfg, faulty, 10)

	st := svc.Stats()
	const samples = 12
	if st.Retry.Quarantined != samples || len(svc.Quarantined()) != samples {
		t.Fatalf("quarantined %d, want all %d samples", st.Retry.Quarantined, samples)
	}
	// Per sample: initial label attempt + 2 retries = MaxAttempts.
	if st.EnrichErrors != 3*samples || st.Retry.Attempts != 2*samples {
		t.Fatalf("errors=%d retryAttempts=%d, want %d/%d", st.EnrichErrors, st.Retry.Attempts, 3*samples, 2*samples)
	}
	tr, _ := faulty.Injected()
	if tr != 3*samples {
		t.Fatalf("enricher saw %d attempts, want exactly %d (quarantine must stop retries)", tr, 3*samples)
	}
	if st.Executed != 0 || st.B.Samples != 0 {
		t.Fatalf("executed=%d bSamples=%d, want 0/0", st.Executed, st.B.Samples)
	}
}

// TestRetryPoolSurvivesRecovery checks the pool is part of the durable
// state: a service torn down with samples still pooled recovers them
// and drains the pool to the same end state as an uninterrupted faulty
// run would — the backoff clock (applied records) replays identically.
func TestRetryPoolSurvivesRecovery(t *testing.T) {
	events := cleanCorpus(120)
	ctx := context.Background()

	cfg := testConfig(8)
	cfg.Retry = stream.Retry{MaxAttempts: 6, BaseBackoff: 2, MaxBackoff: 16}
	cfg.Durability = stream.Durability{Dir: t.TempDir(), CheckpointEvery: 4, NoSync: true}
	// FailFirst counters live in the enricher process; rebuild the
	// wrapper at each restart so the schedule restarts too — the test
	// then proves pooled samples persist and eventually drain.
	newFaulty := func() stream.Enricher {
		return enrich.NewFaulty(fakeEnricher{}, enrich.FaultConfig{FailFirst: 2})
	}

	svc, err := stream.New(cfg, newFaulty())
	if err != nil {
		t.Fatal(err)
	}
	for bi := 0; bi < 12; bi++ {
		if err := svc.Ingest(ctx, events[bi*10:(bi+1)*10]); err != nil {
			t.Fatal(err)
		}
		if bi%3 == 2 {
			if err := svc.Sync(ctx); err != nil {
				t.Fatal(err)
			}
			if svc.Stats().Retry.Pending == 0 && bi == 2 {
				t.Fatal("test premise broken: expected pooled samples at the first restart")
			}
			svc.Close()
			if svc, err = stream.New(cfg, newFaulty()); err != nil {
				t.Fatalf("recovery after batch %d: %v", bi, err)
			}
		}
	}
	if err := svc.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	st := svc.Stats()
	if st.Retry.Pending != 0 || st.Retry.Quarantined != 0 {
		t.Fatalf("pool did not drain after recovery: %+v, quarantine %v", st.Retry, svc.Quarantined())
	}
	if st.Executed != 12 || st.B.Clusters != 3 {
		t.Fatalf("executed=%d clusters=%d, want 12/3", st.Executed, st.B.Clusters)
	}
}
