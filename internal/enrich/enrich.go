// Package enrich implements the information-enrichment pipeline of the
// SGNET dataset: every collected sample is submitted to the dynamic
// analysis sandbox (Anubis stand-in) and to the AV labeling oracle
// (VirusTotal stand-in), and the behavioral profiles are clustered into
// B-clusters.
//
// Substitution note: the real pipeline executes the binary; the
// reproduction resolves the sample's ground-truth behaviour program and
// executes that in the simulated sandbox. The execution *time* is the
// sample's first-seen instant, so environment-dependent behaviour
// (C&C availability, DNS takedowns) varies across samples exactly as in
// the paper.
package enrich

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/avsim"
	"repro/internal/bcluster"
	"repro/internal/behavior"
	"repro/internal/dataset"
	"repro/internal/malgen"
	"repro/internal/sandbox"
	"repro/internal/simrng"
)

// Config parameterizes enrichment.
type Config struct {
	// SandboxBudget is the per-execution time budget (zero selects the
	// 4-minute default).
	SandboxBudget time.Duration
	// BCluster configures behavioral clustering.
	BCluster bcluster.Config
	// AVGenericProb and AVUndetectedProb configure AV label noise.
	AVGenericProb    float64
	AVUndetectedProb float64
	// Workers bounds the sandbox executions running concurrently; 0
	// defers to core.Scenario.Parallelism (and ultimately GOMAXPROCS).
	// Results are identical regardless of the worker count: every
	// execution derives its randomness from the sample hash, not from
	// scheduling order.
	Workers int
}

// DefaultConfig returns production-like enrichment parameters.
func DefaultConfig() Config {
	return Config{
		BCluster:         bcluster.DefaultConfig(),
		AVGenericProb:    0.08,
		AVUndetectedProb: 0.03,
	}
}

// Result is the enrichment outcome.
type Result struct {
	// BClusters is the behavioral clustering over executable samples.
	BClusters *bcluster.Result
	// Executed counts sandbox runs performed.
	Executed int
	// Degraded counts runs that hit the fragility model.
	Degraded int
}

// Pipeline holds the enrichment services so analyses can re-execute
// samples (§4.2 healing).
type Pipeline struct {
	cfg       Config
	landscape *malgen.Landscape
	sandbox   *sandbox.Sandbox
	oracle    *avsim.Oracle
	panel     *avsim.Panel
}

// New builds a pipeline over the given landscape.
func New(l *malgen.Landscape, cfg Config, rng *simrng.Source) (*Pipeline, error) {
	if l == nil {
		return nil, fmt.Errorf("enrich: nil landscape")
	}
	if err := cfg.BCluster.Validate(); err != nil {
		return nil, err
	}
	return &Pipeline{
		cfg:       cfg,
		landscape: l,
		sandbox:   sandbox.New(l.Env, cfg.SandboxBudget, rng.Child("sandbox")),
		oracle:    avsim.New(cfg.AVGenericProb, cfg.AVUndetectedProb),
		panel:     avsim.DefaultPanel(),
	}, nil
}

// Enrich labels every sample, executes every executable sample once, and
// clusters the behavioral profiles. The dataset is updated in place.
// Sandbox executions run on a worker pool (Config.Workers); the outcome
// is independent of the degree of parallelism.
func (p *Pipeline) Enrich(ds *dataset.Dataset) (*Result, error) {
	if ds == nil {
		return nil, fmt.Errorf("enrich: nil dataset")
	}
	res := &Result{}
	samples := ds.Samples()

	// Labeling and executability screening are cheap; do them inline and
	// collect the sandbox work list.
	type job struct {
		sample  *dataset.Sample
		variant *malgen.Variant
	}
	jobs := make([]job, 0, len(samples))
	for _, s := range samples {
		if err := p.LabelSample(s); err != nil {
			return nil, err
		}
		if s.Executable {
			// LabelSample already validated the variant reference.
			jobs = append(jobs, job{sample: s, variant: p.landscape.Variant(s.TruthVariant)})
		}
	}

	workers := p.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) && len(jobs) > 0 {
		workers = len(jobs)
	}
	// Each worker interns the profiles it produces, so the B-clustering
	// below finds every profile interned.
	type exec struct {
		report *sandbox.Report
		set    *behavior.Set
		err    error
	}
	execs := make([]exec, len(jobs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				rep := p.sandbox.Run(jobs[i].variant.Program, jobs[i].sample.FirstSeen, jobs[i].sample.MD5)
				set, err := behavior.Intern(rep.Profile)
				execs[i] = exec{report: rep, set: set, err: err}
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()

	inputs := make([]bcluster.Input, 0, len(jobs))
	for i, j := range jobs {
		rep := execs[i].report
		if err := execs[i].err; err != nil {
			return nil, fmt.Errorf("enrich: sample %s: %w", j.sample.MD5, err)
		}
		res.Executed++
		if rep.Degraded {
			res.Degraded++
		}
		j.sample.Profile = execs[i].set.Names()
		inputs = append(inputs, bcluster.Input{ID: j.sample.MD5, Profile: rep.Profile})
	}
	bres, err := bcluster.Run(inputs, p.cfg.BCluster)
	if err != nil {
		return nil, err
	}
	res.BClusters = bres
	return res, nil
}

// LabelSample assigns the AV oracle and panel labels to one sample. It is
// the per-sample unit of the labeling pass, shared by the batch Enrich
// loop and the streaming service (internal/stream), which labels samples
// as they first appear.
func (p *Pipeline) LabelSample(s *dataset.Sample) error {
	v := p.landscape.Variant(s.TruthVariant)
	if v == nil {
		return fmt.Errorf("enrich: sample %s references unknown variant %q", s.MD5, s.TruthVariant)
	}
	avName := p.avName(v.FamilyName)
	s.AVLabel = p.oracle.Label(avName, s.MD5)
	s.AVLabels = p.panel.Labels(avName, s.MD5)
	return nil
}

// ExecuteSample runs one executable sample through the sandbox at its
// first-seen instant and returns its behavioral profile and whether the
// run degraded. The execution randomness derives from the sample hash
// alone, so the profile is identical whether the sample is executed by
// the batch Enrich pass or incrementally by the streaming service — as
// long as FirstSeen matches.
func (p *Pipeline) ExecuteSample(s *dataset.Sample) (*behavior.Profile, bool, error) {
	if !s.Executable {
		return nil, false, fmt.Errorf("enrich: sample %s is not executable", s.MD5)
	}
	v := p.landscape.Variant(s.TruthVariant)
	if v == nil {
		return nil, false, fmt.Errorf("enrich: sample %s references unknown variant %q", s.MD5, s.TruthVariant)
	}
	rep := p.sandbox.Run(v.Program, s.FirstSeen, s.MD5)
	return rep.Profile, rep.Degraded, nil
}

// Reexecute runs a sample's program `attempts` times with fresh run keys
// and returns the best profile: the first non-degraded run, or the run
// with the most features when all attempts degrade. This is the §4.2
// healing procedure ("re-running the misconfigured samples multiple times
// is indeed very effective").
func (p *Pipeline) Reexecute(ds *dataset.Dataset, md5 string, attempts int) (*behavior.Profile, bool, error) {
	s := ds.Sample(md5)
	if s == nil {
		return nil, false, fmt.Errorf("enrich: unknown sample %s", md5)
	}
	if !s.Executable {
		return nil, false, fmt.Errorf("enrich: sample %s is not executable", md5)
	}
	v := p.landscape.Variant(s.TruthVariant)
	if v == nil {
		return nil, false, fmt.Errorf("enrich: sample %s references unknown variant %q", md5, s.TruthVariant)
	}
	if attempts < 1 {
		attempts = 1
	}
	var best *behavior.Profile
	healed := false
	for i := 0; i < attempts; i++ {
		rep := p.sandbox.Run(v.Program, s.FirstSeen, fmt.Sprintf("%s/reexec-%d", md5, i))
		if !rep.Degraded {
			best = rep.Profile
			healed = true
			break
		}
		if best == nil || rep.Profile.Len() > best.Len() {
			best = rep.Profile
		}
	}
	set, err := behavior.Intern(best)
	if err != nil {
		return nil, false, fmt.Errorf("enrich: sample %s: %w", md5, err)
	}
	s.Profile = set.Names()
	return best, healed, nil
}

// avName resolves a family's AV vendor base name.
func (p *Pipeline) avName(familyName string) string {
	for _, f := range p.landscape.Families {
		if f.Name == familyName {
			return f.AVName
		}
	}
	return ""
}
