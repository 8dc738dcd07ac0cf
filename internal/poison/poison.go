// Package poison is the adversarial measurement harness: it sweeps the
// attacker's poison rate, runs the undefended batch pipeline and the
// defended streaming pipeline over the same generated event stream, and
// scores both clusterings against ground truth (internal/validity).
//
// The attack is generated inside the landscape (internal/malgen): bridge
// chains that interpolate one victim bot family's behavior into
// another's to force a B-cluster merge, and dilution families that pad a
// victim cluster with near-duplicate noise. Attacker events arrive
// through the ordinary event stream, attributed to the campaign's client
// identity; victim events arrive on the trusted loopback — exactly the
// asymmetry the streaming service's provenance defenses key off.
//
// A sweep answers the two questions the defense design hinges on: how
// much does an undefended clustering degrade as the poison rate rises,
// and how much of that degradation do the online defenses (merge
// resistance, trust penalty, anomaly gate — see internal/bcluster and
// internal/stream) recover.
package poison

import (
	"context"
	"fmt"

	"repro/internal/bcluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/malgen"
	"repro/internal/stream"
	"repro/internal/validity"
)

// Report scores one pipeline run at one poison rate. JSON tags are the
// BENCH_poison.json row shape (cmd/benchjson).
type Report struct {
	// Rate is the attacker's share of total event volume.
	Rate float64 `json:"poison_rate"`
	// Defended reports whether the run used the streaming defenses; an
	// undefended row is the batch pipeline.
	Defended bool `json:"defended"`
	// Events, Samples, and PoisonSamples size the run; PoisonSamples
	// counts distinct samples whose ground-truth family is an attacker
	// campaign.
	Events        int `json:"events"`
	Samples       int `json:"samples"`
	PoisonSamples int `json:"poison_samples"`
	// Clusters, Precision, Recall, F, and AdjustedRand are the validity
	// scores of the B partition against ground-truth families.
	Clusters     int     `json:"clusters"`
	Precision    float64 `json:"precision"`
	Recall       float64 `json:"recall"`
	F            float64 `json:"f"`
	AdjustedRand float64 `json:"ari"`
	// Held, Parked, Released, and Drained are the cumulative defense
	// counters of a defended run (zero on batch rows).
	Held     int `json:"held,omitempty"`
	Parked   int `json:"parked,omitempty"`
	Released int `json:"released,omitempty"`
	Drained  int `json:"drained,omitempty"`
	// Unaccounted is the number of executable samples missing from the
	// final partition; the no-silent-drop invariant requires zero.
	Unaccounted int `json:"unaccounted"`
}

// Config parameterizes a sweep.
type Config struct {
	// Scenario is the base experiment; each rate overrides
	// Scenario.Landscape.Poison.Rate.
	Scenario core.Scenario
	// Rates is the poison-rate schedule, e.g. {0, 0.05, 0.10}.
	Rates []float64
	// EpochSize and BatchSize shape the streaming replay; 0 selects 64
	// for both.
	EpochSize int
	BatchSize int
}

// DefaultDefense returns c with the defense configuration the sweep,
// the smoke target, and the documentation quote. Merge resistance 3
// holds bridges between established victim cores while leaving organic
// growth alone (a lone sample closing two three-strong components is
// already the bridge signature; the SmallScenario baseline shows no
// false holds); trust penalty 0.6 pushes a once-suspected client's
// effective link threshold to 0.9, above the 0.75 dilution-to-victim
// and 5/7 bridge-step overlap geometry; quorum 3 arms the
// cross-perspective anomaly gate once a static μ-group has an
// established presence.
func DefaultDefense(c bcluster.Config) bcluster.Config {
	c.MergeResistance, c.TrustPenalty, c.GroupQuorum = 3, 0.6, 3
	return c
}

// Sweep runs the rate schedule and returns two Reports per rate:
// undefended batch, then defended streaming, both over the same
// generated events. The defended runs use the defenses the scenario's
// Enrichment.BCluster sets, or DefaultDefense's when it sets none.
func Sweep(ctx context.Context, cfg Config) ([]Report, error) {
	if len(cfg.Rates) == 0 {
		cfg.Rates = []float64{0, 0.05, 0.10}
	}
	var out []Report
	for _, rate := range cfg.Rates {
		sc := cfg.Scenario
		sc.Landscape.Poison.Rate = rate
		batch, err := core.Run(sc)
		if err != nil {
			return nil, fmt.Errorf("poison: batch run at rate %g: %w", rate, err)
		}
		truth := TruthFamilies(batch.Dataset)

		undef, err := scoreRun(batch.Dataset, batch.B, truth, rate, false)
		if err != nil {
			return nil, fmt.Errorf("poison: scoring batch at rate %g: %w", rate, err)
		}
		out = append(out, undef)

		def, err := runDefended(ctx, batch, truth, cfg, rate)
		if err != nil {
			return nil, err
		}
		out = append(out, def)
	}
	return out, nil
}

// runDefended replays the batch run's events through a defended
// streaming service — attacker events under their campaign clients —
// and scores the resulting partition.
func runDefended(ctx context.Context, batch *core.Results, truth map[string]string, cfg Config, rate float64) (Report, error) {
	epoch := cfg.EpochSize
	if epoch <= 0 {
		epoch = 64
	}
	bc := batch.Scenario.Enrichment.BCluster
	if !bc.Defended() {
		bc = DefaultDefense(bc)
	}
	svc, err := stream.New(stream.Config{
		EpochSize:  epoch,
		Thresholds: batch.Scenario.Thresholds,
		BCluster:   bc,
	}, batch.Pipeline)
	if err != nil {
		return Report{}, fmt.Errorf("poison: defended service at rate %g: %w", rate, err)
	}
	defer svc.Close()
	if err := IngestByClient(ctx, svc, batch.Dataset.Events(), cfg.BatchSize); err != nil {
		return Report{}, fmt.Errorf("poison: defended replay at rate %g: %w", rate, err)
	}
	if err := svc.Flush(ctx); err != nil {
		return Report{}, fmt.Errorf("poison: defended flush at rate %g: %w", rate, err)
	}
	rep, err := scoreRun(svc.Dataset(), svc.BResult(), truth, rate, true)
	if err != nil {
		return Report{}, fmt.Errorf("poison: scoring defended run at rate %g: %w", rate, err)
	}
	st := svc.Stats()
	if st.Defense != nil {
		rep.Held = st.Defense.HeldTotal
		rep.Parked = st.Defense.ParkedTotal
		rep.Released = st.Defense.Released
		rep.Drained = st.Defense.Drained
	}
	return rep, nil
}

// IngestByClient replays events in arrival order, attributing each
// attacker family's events to its campaign client (malgen.PoisonClient)
// and everything else to the trusted loopback. Consecutive same-client
// events are batched into one ingest call, capped at batchSize (0
// selects 64), so ordering is preserved exactly.
func IngestByClient(ctx context.Context, svc *stream.Service, events []dataset.Event, batchSize int) error {
	if batchSize <= 0 {
		batchSize = 64
	}
	var run []dataset.Event
	client := ""
	flush := func() error {
		if len(run) == 0 {
			return nil
		}
		err := svc.IngestFrom(ctx, client, run)
		run = run[:0]
		return err
	}
	for _, e := range events {
		c := malgen.PoisonClient(e.TruthFamily)
		if c != client || len(run) >= batchSize {
			if err := flush(); err != nil {
				return err
			}
			client = c
		}
		run = append(run, e)
	}
	return flush()
}

// TruthFamilies extracts the ground-truth sample→family labeling.
func TruthFamilies(ds *dataset.Dataset) map[string]string {
	truth := make(map[string]string, ds.SampleCount())
	for _, smp := range ds.Samples() {
		truth[smp.MD5] = smp.TruthFamily
	}
	return truth
}

// scoreRun turns one clustering into a Report.
func scoreRun(ds *dataset.Dataset, b *bcluster.Result, truth map[string]string, rate float64, defended bool) (Report, error) {
	clusters := make([][]string, len(b.Clusters))
	clustered := 0
	for i, c := range b.Clusters {
		clusters[i] = c.Members
		clustered += len(c.Members)
	}
	rep, err := validity.Compare(clusters, truth)
	if err != nil {
		return Report{}, err
	}
	poisonSamples := 0
	for _, fam := range truth {
		if malgen.IsPoisonFamily(fam) {
			poisonSamples++
		}
	}
	return Report{
		Rate:          rate,
		Defended:      defended,
		Events:        ds.EventCount(),
		Samples:       ds.SampleCount(),
		PoisonSamples: poisonSamples,
		Clusters:      rep.Clusters,
		Precision:     rep.Precision,
		Recall:        rep.Recall,
		F:             rep.F,
		AdjustedRand:  rep.AdjustedRand,
		Unaccounted:   ds.ExecutableSampleCount() - clustered,
	}, nil
}
