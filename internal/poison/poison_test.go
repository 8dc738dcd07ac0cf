package poison

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/stream"
)

// findReport selects the sweep row for (rate, defended).
func findReport(t *testing.T, reps []Report, rate float64, defended bool) Report {
	t.Helper()
	for _, r := range reps {
		if r.Rate == rate && r.Defended == defended {
			return r
		}
	}
	t.Fatalf("no report for rate=%g defended=%v", rate, defended)
	return Report{}
}

// TestSweepDefenseRecovery is the poisoning gate: the seeded 10% bridge
// and dilution campaign must measurably degrade the undefended B
// precision, and the defended streaming run must recover at least half
// of the gap to the clean baseline — while a rate-zero defended run
// stays at the baseline (no false merges, at most stray parks that cost
// a fraction of a recall point).
func TestSweepDefenseRecovery(t *testing.T) {
	reps, err := Sweep(context.Background(), Config{Scenario: core.SmallScenario()})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reps {
		t.Logf("rate=%.2f defended=%v events=%d samples=%d poison=%d clusters=%d P=%.3f R=%.3f ARI=%.3f held=%d parked=%d released=%d drained=%d",
			r.Rate, r.Defended, r.Events, r.Samples, r.PoisonSamples, r.Clusters, r.Precision, r.Recall, r.AdjustedRand, r.Held, r.Parked, r.Released, r.Drained)
		if r.Unaccounted != 0 {
			t.Errorf("rate=%g defended=%v: %d executable samples missing from the partition", r.Rate, r.Defended, r.Unaccounted)
		}
	}

	base := findReport(t, reps, 0, false)
	if base.Precision < 0.999 {
		t.Fatalf("clean undefended baseline precision %.3f, want ~1.0", base.Precision)
	}
	if base.PoisonSamples != 0 {
		t.Fatalf("clean baseline generated %d poison samples", base.PoisonSamples)
	}

	// A rate-zero defended run must not disturb the clean result.
	def0 := findReport(t, reps, 0, true)
	if def0.Precision < base.Precision {
		t.Errorf("defenses at rate 0 cost precision: %.3f < %.3f", def0.Precision, base.Precision)
	}
	if def0.Recall < base.Recall-0.01 {
		t.Errorf("defenses at rate 0 cost recall: %.3f < %.3f - 0.01", def0.Recall, base.Recall)
	}
	if def0.Held != 0 {
		t.Errorf("defenses at rate 0 held %d legitimate merges", def0.Held)
	}

	// The attack must bite, and at no rate may the defended run score
	// worse than the undefended one.
	undef10 := findReport(t, reps, 0.10, false)
	if undef10.Precision > base.Precision-0.05 {
		t.Fatalf("10%% poison did not degrade undefended precision: %.3f (baseline %.3f)", undef10.Precision, base.Precision)
	}
	for _, rate := range []float64{0.05, 0.10} {
		u := findReport(t, reps, rate, false)
		d := findReport(t, reps, rate, true)
		if u.PoisonSamples == 0 {
			t.Errorf("rate=%g generated no poison samples", rate)
		}
		if d.Precision < u.Precision {
			t.Errorf("rate=%g: defended precision %.3f below undefended %.3f", rate, d.Precision, u.Precision)
		}
	}

	// The headline criterion: defenses recover at least half the
	// precision the 10% attack destroyed.
	def10 := findReport(t, reps, 0.10, true)
	gap := base.Precision - undef10.Precision
	recovered := def10.Precision - undef10.Precision
	t.Logf("10%% attack: gap=%.3f recovered=%.3f (%.0f%%)", gap, recovered, 100*recovered/gap)
	if recovered < gap/2 {
		t.Fatalf("defenses recovered %.3f of a %.3f precision gap, want at least half", recovered, gap)
	}
	if def10.Held+def10.Parked == 0 {
		t.Error("10% defended run triggered no defense at all")
	}
	if def10.Drained == 0 {
		t.Error("flush drained no quarantined samples")
	}
}

// TestDefendedServiceLedgerAndDrain exercises the serving surfaces of a
// defended run directly: every executable sample remains queryable with
// a defense status, quarantine fully drains on flush, and the per-client
// ledger pins the suspicion on the attacker's client identity while the
// trusted loopback keeps full trust.
func TestDefendedServiceLedgerAndDrain(t *testing.T) {
	sc := core.SmallScenario()
	sc.Landscape.Poison.Rate = 0.10
	batch, err := core.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := stream.New(stream.Config{
		EpochSize:    64,
		Thresholds:   sc.Thresholds,
		BCluster:     DefaultDefense(sc.Enrichment.BCluster),
		StatsClients: true,
	}, batch.Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	if err := IngestByClient(ctx, svc, batch.Dataset.Events(), 64); err != nil {
		t.Fatal(err)
	}
	if err := svc.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	st := svc.Stats()
	if st.Defense == nil {
		t.Fatal("defended service reports no defense stats")
	}
	if st.Defense.Held != 0 || st.Defense.Parked != 0 {
		t.Errorf("quarantine survived the flush: held=%d parked=%d", st.Defense.Held, st.Defense.Parked)
	}
	if st.Defense.Drained == 0 {
		t.Error("flush drained nothing despite a 10% attack")
	}

	// Every executable sample is queryable and carries a status; the
	// statuses account for the drain counter exactly.
	statuses := map[string]int{}
	attackerSamples := 0
	for _, smp := range batch.Dataset.Samples() {
		v, ok := svc.Sample(smp.MD5)
		if !ok {
			t.Fatalf("sample %s not queryable", smp.MD5)
		}
		if !v.Executable {
			continue
		}
		statuses[v.BStatus]++
		if v.Client != "" {
			attackerSamples++
		}
	}
	if statuses["drained"] != st.Defense.Drained {
		t.Errorf("queryable drained samples %d != drained counter %d", statuses["drained"], st.Defense.Drained)
	}
	if statuses["held"] != 0 || statuses["parked"] != 0 {
		t.Errorf("samples still held/parked after flush: %v", statuses)
	}
	if total := statuses["clustered"] + statuses["drained"]; total != st.ExecutableSamples {
		t.Errorf("statuses cover %d of %d executable samples", total, st.ExecutableSamples)
	}
	if attackerSamples == 0 {
		t.Error("no sample attributed to an attacker client")
	}

	// The ledger: the campaign client accrued suspicion, the loopback
	// did not.
	if len(st.Clients) < 2 {
		t.Fatalf("expected loopback + attacker clients, got %+v", st.Clients)
	}
	var sawLoopback, sawAttacker bool
	for _, cs := range st.Clients {
		switch cs.Client {
		case "":
			sawLoopback = true
			if cs.Distrust != 0 || cs.Suspicion != 0 {
				t.Errorf("trusted loopback accrued distrust: %+v", cs)
			}
		default:
			sawAttacker = true
			if cs.Samples == 0 {
				t.Errorf("attacker client %q delivered no samples", cs.Client)
			}
			if cs.Suspicion == 0 || cs.Distrust <= 0 {
				t.Errorf("attacker client %q accrued no suspicion: %+v", cs.Client, cs)
			}
		}
	}
	if !sawLoopback || !sawAttacker {
		t.Fatalf("ledger missing loopback or attacker entry: %+v", st.Clients)
	}
}

// TestDefenseKnobsOnBCluster runs the poisoned SmallScenario through a
// service whose merge resistance and anomaly-gate quorum are set on
// Config.BCluster, where a landscaped -scenario file sets them. The
// service must run defended: the gate sees μ-groups and parks samples,
// Stats reports the defense, and the flush drains every hold. The
// partition has the 108 clusters these knobs gave through the service's
// former separate defense config; with the gate blind it has 85.
func TestDefenseKnobsOnBCluster(t *testing.T) {
	sc := core.SmallScenario()
	sc.Landscape.Poison.Rate = 0.10
	batch, err := core.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := stream.Config{EpochSize: 64, Thresholds: sc.Thresholds, BCluster: sc.Enrichment.BCluster}
	cfg.BCluster.MergeResistance, cfg.BCluster.GroupQuorum = 3, 3
	svc, err := stream.New(cfg, batch.Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	if err := IngestByClient(ctx, svc, batch.Dataset.Events(), 64); err != nil {
		t.Fatal(err)
	}
	if err := svc.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Defense == nil {
		t.Fatal("a service defended through Config.BCluster reports no defense stats")
	}
	if st.Defense.ParkedTotal == 0 {
		t.Error("the anomaly gate parked nothing")
	}
	if st.Defense.Held != 0 {
		t.Errorf("the flush left %d samples held", st.Defense.Held)
	}
	if n := len(svc.BResult().Clusters); n != 108 {
		t.Errorf("%d B clusters, want 108", n)
	}
}

// TestIngestByClientMatchesReplayUndefended pins the attribution path:
// with defenses off, splitting the stream into client-attributed runs
// must not change the final partition — client identity is provenance
// metadata, not analysis input.
func TestIngestByClientMatchesReplayUndefended(t *testing.T) {
	sc := core.SmallScenario()
	sc.Landscape.Poison.Rate = 0.10
	batch, err := core.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := stream.New(stream.Config{
		EpochSize:  64,
		Thresholds: sc.Thresholds,
		BCluster:   sc.Enrichment.BCluster,
	}, batch.Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	if err := IngestByClient(ctx, svc, batch.Dataset.Events(), 64); err != nil {
		t.Fatal(err)
	}
	if err := svc.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	got := svc.BResult()
	if len(got.Clusters) != len(batch.B.Clusters) {
		t.Fatalf("undefended client-attributed replay: %d clusters, batch has %d", len(got.Clusters), len(batch.B.Clusters))
	}
	for i := range got.Clusters {
		if !reflect.DeepEqual(got.Clusters[i].Members, batch.B.Clusters[i].Members) {
			t.Fatalf("cluster %d diverges from batch", i)
		}
	}
}
