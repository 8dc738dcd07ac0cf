package core

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/bcluster"
	"repro/internal/behavior"
	"repro/internal/dataset"
	"repro/internal/epm"
)

// Enricher is the per-sample enrichment contract RunEvents consumes. It
// is structurally identical to stream.Enricher, so the same
// implementation (an *enrich.Pipeline or a synthetic test enricher) can
// drive a streaming replay and its batch reference run.
type Enricher interface {
	LabelSample(s *dataset.Sample) error
	ExecuteSample(s *dataset.Sample) (*behavior.Profile, bool, error)
}

// EventResults bundles the artifacts of a RunEvents pass.
type EventResults struct {
	Dataset *dataset.Dataset
	// E, P, M are the EPM clusterings of the three dimensions.
	E, P, M *epm.Clustering
	// B is the behavioral clustering over the executable samples.
	B *bcluster.Result
	// Executed and Degraded count the sandbox runs.
	Executed, Degraded int
}

// RunEvents runs the batch analysis pipeline over an arbitrary event
// list: load the events into a dataset, label every sample, execute
// every executable sample through the enricher, cluster behaviors, and
// cluster the three EPM dimensions. It is the batch reference for
// workloads that do not come from a generated landscape — most notably
// the overload smoke, which compares a pressured streaming service's
// final state against RunEvents over the events the service admitted.
// The output is deterministic in (events, enricher) at any parallelism.
func RunEvents(events []dataset.Event, enricher Enricher, th epm.Thresholds, bcfg bcluster.Config, parallelism int) (*EventResults, error) {
	if enricher == nil {
		return nil, fmt.Errorf("core: nil enricher")
	}
	ds := dataset.New()
	for _, e := range events {
		if err := ds.AddEvent(e); err != nil {
			return nil, fmt.Errorf("core: loading event %s: %w", e.ID, err)
		}
	}

	samples := ds.Samples()
	execList := make([]*dataset.Sample, 0, len(samples))
	for _, smp := range samples {
		if err := enricher.LabelSample(smp); err != nil {
			return nil, fmt.Errorf("core: labeling sample %s: %w", smp.MD5, err)
		}
		if smp.Executable {
			execList = append(execList, smp)
		}
	}

	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(execList) && len(execList) > 0 {
		workers = len(execList)
	}
	// Each worker interns the profiles it produces, as the streaming
	// service does.
	type outcome struct {
		profile  *behavior.Profile
		set      *behavior.Set
		degraded bool
		err      error
	}
	outs := make([]outcome, len(execList))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				p, d, err := enricher.ExecuteSample(execList[i])
				var set *behavior.Set
				if err == nil {
					set, err = behavior.Intern(p)
				}
				outs[i] = outcome{profile: p, set: set, degraded: d, err: err}
			}
		}()
	}
	for i := range execList {
		next <- i
	}
	close(next)
	wg.Wait()

	res := &EventResults{Dataset: ds}
	inputs := make([]bcluster.Input, 0, len(execList))
	for i, smp := range execList {
		if outs[i].err != nil {
			return nil, fmt.Errorf("core: executing sample %s: %w", smp.MD5, outs[i].err)
		}
		res.Executed++
		if outs[i].degraded {
			res.Degraded++
		}
		smp.Profile = outs[i].set.Names()
		inputs = append(inputs, bcluster.Input{ID: smp.MD5, Profile: outs[i].profile})
	}
	b, err := bcluster.Run(inputs, bcfg)
	if err != nil {
		return nil, fmt.Errorf("core: behavioral clustering: %w", err)
	}
	res.B = b

	var errE, errP, errM error
	wg.Add(3)
	go func() {
		defer wg.Done()
		res.E, errE = epm.RunParallel(dataset.EpsilonSchema, ds.EpsilonInstances(), th, parallelism)
	}()
	go func() {
		defer wg.Done()
		res.P, errP = epm.RunParallel(dataset.PiSchema, ds.PiInstances(), th, parallelism)
	}()
	go func() {
		defer wg.Done()
		res.M, errM = epm.RunParallel(dataset.MuSchema, ds.MuInstances(), th, parallelism)
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
	return res, nil
}
