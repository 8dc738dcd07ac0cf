// Package core wires the full reproduction pipeline: landscape generation
// → deployment simulation → information enrichment → EPM and behavioral
// clustering → cross-perspective joins.
//
// It is the public façade the binaries, examples, and benchmarks build
// on: one Scenario in, one Results out, deterministic under the scenario
// seed.
package core

import (
	"fmt"
	"sync"

	"repro/internal/analysis"
	"repro/internal/bcluster"
	"repro/internal/dataset"
	"repro/internal/enrich"
	"repro/internal/epm"
	"repro/internal/malgen"
	"repro/internal/sgnet"
	"repro/internal/simrng"
)

// Scenario is a complete experiment configuration.
type Scenario struct {
	// Seed drives every stochastic decision; equal scenarios reproduce
	// byte-identical results.
	Seed uint64
	// Landscape scales the ground-truth malware ecosystem.
	Landscape malgen.Config
	// Deployment configures the honeypot deployment.
	Deployment sgnet.Config
	// Enrichment configures sandboxing, AV labeling, and B-clustering.
	Enrichment enrich.Config
	// Thresholds configure EPM invariant discovery.
	Thresholds epm.Thresholds
	// Parallelism bounds the worker pools of the parallel pipeline stages
	// (EPM invariant discovery and grouping, and sandbox enrichment); 0
	// selects GOMAXPROCS. A nonzero Enrichment.Workers takes precedence.
	// Results are byte-identical at every level.
	Parallelism int
}

// DefaultScenario is the paper-scale configuration used by the
// experiments harness.
func DefaultScenario() Scenario {
	return Scenario{
		Seed:       2010,
		Landscape:  malgen.DefaultConfig(),
		Deployment: sgnet.DefaultConfig(),
		Enrichment: enrich.DefaultConfig(),
		Thresholds: epm.DefaultThresholds(),
	}
}

// SmallScenario is a fast configuration for tests and the quickstart
// example.
func SmallScenario() Scenario {
	s := DefaultScenario()
	s.Landscape = malgen.SmallConfig()
	return s
}

// Results bundles every artifact of a pipeline run.
type Results struct {
	Scenario   Scenario
	Landscape  *malgen.Landscape
	Simulation *sgnet.Result
	Dataset    *dataset.Dataset
	Pipeline   *enrich.Pipeline
	Enrichment *enrich.Result

	// E, P, M are the EPM clusterings of the three dimensions.
	E, P, M *epm.Clustering
	// B is the behavioral clustering.
	B *bcluster.Result
	// CrossMap joins the static and behavioral perspectives.
	CrossMap *analysis.CrossMap
}

// NewPipeline generates the scenario's landscape and builds the
// enrichment pipeline over it, seeded exactly as Run seeds them, without
// simulating the deployment. A service that only enriches events
// arriving from elsewhere (cmd/landscaped) needs nothing more, and the
// simulation is most of Prepare's cost.
func NewPipeline(s Scenario) (*malgen.Landscape, *enrich.Pipeline, error) {
	rng := simrng.New(s.Seed)

	enrichCfg := s.Enrichment
	if enrichCfg.Workers == 0 {
		enrichCfg.Workers = s.Parallelism
	}

	landscape, err := malgen.Generate(s.Landscape, rng.Child("landscape"))
	if err != nil {
		return nil, nil, fmt.Errorf("core: generating landscape: %w", err)
	}
	pipe, err := enrich.New(landscape, enrichCfg, rng.Child("enrich"))
	if err != nil {
		return nil, nil, fmt.Errorf("core: building enrichment: %w", err)
	}
	return landscape, pipe, nil
}

// Prepare executes the generation and simulation prefix of Run: it
// builds the landscape and enrichment pipeline (NewPipeline) and
// simulates the deployment, all seeded exactly as Run seeds them. The
// streaming service (internal/stream) replays sim.Dataset events through
// the returned pipeline to converge on the same results the batch Run
// produces; Run itself continues from here with the batch enrichment.
func Prepare(s Scenario) (*malgen.Landscape, *sgnet.Result, *enrich.Pipeline, error) {
	landscape, pipe, err := NewPipeline(s)
	if err != nil {
		return nil, nil, nil, err
	}
	sim, err := sgnet.Simulate(landscape, s.Deployment, simrng.New(s.Seed).Child("sgnet"))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: simulating deployment: %w", err)
	}
	return landscape, sim, pipe, nil
}

// Run executes the full pipeline. The three EPM clusterings are the
// paper's independent observation perspectives — they share no state, so
// they run concurrently; Scenario.Parallelism additionally bounds the
// worker pools inside every stage. The output is deterministic under the
// scenario seed at any parallelism level.
func Run(s Scenario) (*Results, error) {
	landscape, sim, pipe, err := Prepare(s)
	if err != nil {
		return nil, err
	}
	enriched, err := pipe.Enrich(sim.Dataset)
	if err != nil {
		return nil, fmt.Errorf("core: enriching dataset: %w", err)
	}

	res := &Results{
		Scenario:   s,
		Landscape:  landscape,
		Simulation: sim,
		Dataset:    sim.Dataset,
		Pipeline:   pipe,
		Enrichment: enriched,
		B:          enriched.BClusters,
	}
	var wg sync.WaitGroup
	var errE, errP, errM error
	wg.Add(3)
	go func() {
		defer wg.Done()
		res.E, errE = epm.RunParallel(dataset.EpsilonSchema, sim.Dataset.EpsilonInstances(), s.Thresholds, s.Parallelism)
	}()
	go func() {
		defer wg.Done()
		res.P, errP = epm.RunParallel(dataset.PiSchema, sim.Dataset.PiInstances(), s.Thresholds, s.Parallelism)
	}()
	go func() {
		defer wg.Done()
		res.M, errM = epm.RunParallel(dataset.MuSchema, sim.Dataset.MuInstances(), s.Thresholds, s.Parallelism)
	}()
	wg.Wait()
	if errE != nil {
		return nil, fmt.Errorf("core: epsilon clustering: %w", errE)
	}
	if errP != nil {
		return nil, fmt.Errorf("core: pi clustering: %w", errP)
	}
	if errM != nil {
		return nil, fmt.Errorf("core: mu clustering: %w", errM)
	}
	if res.CrossMap, err = analysis.BuildCrossMap(sim.Dataset, res.M, res.B); err != nil {
		return nil, fmt.Errorf("core: cross map: %w", err)
	}
	return res, nil
}

// Counts extracts the §4.1 headline numbers.
func (r *Results) Counts() (events, samples, executable, e, p, m, b int) {
	return r.Dataset.EventCount(),
		r.Dataset.SampleCount(),
		r.Dataset.ExecutableSampleCount(),
		len(r.E.Clusters),
		len(r.P.Clusters),
		len(r.M.Clusters),
		len(r.B.Clusters)
}
