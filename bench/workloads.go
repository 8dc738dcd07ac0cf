package main

import (
	"fmt"
	"sort"

	"repro/bench/synth"
	"repro/internal/bcluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/epm"
	"repro/internal/simrng"
)

// workload is one system-under-test configuration and traffic mix. Every
// workload runs the same phases (see runE2E); these fields size them.
type workload struct {
	name string

	// landscaped runs the real daemon, whose enrichment is the
	// scenario's sandbox and AV oracle; otherwise synthd with the
	// synthetic enricher.
	landscaped bool
	shards     int
	sync       bool // WAL and checkpoint fsyncs
	ckptEvery  int  // checkpoint every N applied batches (0 = never)
	setups     int  // cold starts measured for setup_s
	recoveries int  // crash-restart rounds before the gate

	openRate  float64 // events/s of the open loop
	openBatch int
}

// scenarioKeep is the share of the scenario world's events a seed
// delivers (see makeInputs).
const scenarioKeep = 0.8

var workloads = []workload{
	{
		// The production write path at a sustainable sensor rate:
		// fsyncs and whole-state checkpoints dominate, shard merging
		// does nothing.
		name: "ingest-durable", shards: 1, sync: true, ckptEvery: 64, setups: 21, recoveries: 1,
		openRate: 3000, openBatch: 64,
	},
	{
		// Many small requests with no fsyncs and no checkpoints: the
		// per-request path (HTTP decode, WAL encode, apply) dominates.
		name: "ingest-nosync", shards: 1, ckptEvery: 0, setups: 21, recoveries: 1,
		openRate: 3000, openBatch: 16,
	},
	{
		// Four shards: every stats poll after a write merges the
		// shards' EPM and B state into the global view. At twice this
		// rate the merges grow to fill a core by the end of the run,
		// and the acks' tail follows how fast the host runs them.
		name: "sharded-mixed", shards: 4, ckptEvery: 0, setups: 21, recoveries: 1,
		openRate: 150, openBatch: 4,
	},
	{
		// The real daemon on the paper-scale scenario: sandbox and AV
		// enrichment and B verification on the apply path.
		name: "scenario-enrich", landscaped: true, shards: 1, sync: true, ckptEvery: 64, setups: 3,
		openRate: 500, openBatch: 8,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs is everything a run sends, generated from the seed before any
// timing starts, plus what the gate needs to recompute the answer.
type inputs struct {
	// open holds the open loop's batches in send order.
	open []synth.Batch
	// samples are the sample MD5s the traced run's queries look up.
	samples []string

	enricher core.Enricher
	th       epm.Thresholds
	bcfg     bcluster.Config
}

// makeInputs generates a run's traffic: seconds of the open loop at the
// workload's rate. The seed is the only source of randomness, and the
// daemons never see it.
//
// landscaped serves the paper-scale scenario at its default seed: the
// world must be the daemon's own, since its enrichment only knows that
// world's samples. Here the benchmark seed picks which scenarioKeep share
// of the world's events reach the daemon, in their order, as if the
// sensors lost the rest; the open loop sends at most that many. Seeding
// the world itself instead would make every metric a function of the
// world's size and of how many candidate pairs its behaviours produce.
func (w workload) makeInputs(seed uint64, seconds float64) (*inputs, error) {
	in := &inputs{th: epm.DefaultThresholds(), bcfg: bcluster.DefaultConfig()}
	var open []dataset.Event
	n := int(w.openRate * seconds)
	if w.landscaped {
		sc := core.DefaultScenario()
		_, sim, pipe, err := core.Prepare(sc)
		if err != nil {
			return nil, err
		}
		in.enricher, in.th, in.bcfg = pipe, sc.Thresholds, sc.Enrichment.BCluster
		r := simrng.New(seed).Stream("bench-scenario-delivery")
		sim.Dataset.EachEvent(func(e *dataset.Event) {
			if len(open) < n && r.Float64() < scenarioKeep {
				open = append(open, *e)
			}
		})
	} else {
		in.enricher = synth.Enricher{}
		open = synth.NewGen(seed).Events(n)
	}
	var err error
	if in.open, err = synth.Encode(open, w.openBatch); err != nil {
		return nil, err
	}
	if len(in.open) <= probeBatches {
		return nil, fmt.Errorf("workload %s at %gs generates too little traffic", w.name, seconds)
	}
	// Lookups go to samples the traced run's service holds before the
	// probe batches it sends last.
	seen := map[string]bool{}
	for _, b := range in.open[:len(in.open)-probeBatches] {
		for _, e := range b.Events {
			if e.HasSample() && !seen[e.Sample.MD5] {
				seen[e.Sample.MD5] = true
				in.samples = append(in.samples, e.Sample.MD5)
			}
		}
	}
	sort.Strings(in.samples)
	if len(in.samples) == 0 {
		return nil, fmt.Errorf("workload %s at %gs delivers no sample", w.name, seconds)
	}
	return in, nil
}

// admitted lists, in send order, the events a run sent.
func (in *inputs) admitted() []dataset.Event {
	var out []dataset.Event
	for _, b := range in.open {
		out = append(out, b.Events...)
	}
	return out
}

// picker returns a seeded chooser over the query samples.
func (in *inputs) picker(seed uint64) func() string {
	r := simrng.New(seed).Stream("bench-queries")
	return func() string { return in.samples[r.Intn(len(in.samples))] }
}

// sutArgs is the daemon command line for this workload.
func (w workload) sutArgs(addr, walDir string) []string {
	args := []string{"-addr", addr, "-wal-dir", walDir}
	if w.landscaped {
		// landscaped's defaults are the durable production settings
		// (fsync on, -checkpoint-every 64) and the paper's world.
		return args
	}
	args = append(args, "-shards", fmt.Sprint(w.shards), "-checkpoint-every", fmt.Sprint(w.ckptEvery))
	if !w.sync {
		args = append(args, "-wal-nosync")
	}
	return args
}
