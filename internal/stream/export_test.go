package stream

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/bcluster"
	"repro/internal/dataset"
)

// Replay feeds a recorded event sequence through the service in batches
// of batchSize and flushes, leaving the service in the state a batch
// pipeline run over the same events would produce.
func Replay(ctx context.Context, svc *Service, events []dataset.Event, batchSize int) error {
	for start := 0; start < len(events); start += batchSize {
		if err := svc.Ingest(ctx, events[start:min(start+batchSize, len(events))]); err != nil {
			return fmt.Errorf("stream: replay batch at event %d: %w", start, err)
		}
	}
	return svc.Flush(ctx)
}

// Quarantined snapshots the quarantined samples: MD5 -> final error.
func (s *Service) Quarantined() map[string]string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return maps.Clone(s.quarantined)
}

// MarshalCheckpoint is the checkpoint writer before it streamed, kept
// as the oracle the codec tests hold the checkpoint's payload to: the
// whole state copied into a checkpointFile and json.Marshal'd in one
// piece. It numbers behavior sets by their names, where the writer goes
// by the identity of their interned name lists, so it also checks that
// the state holds each set once.
func MarshalCheckpoint(s *Service) []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cp := &checkpointFile{
		Version: checkpointVersion,
		Seq:     s.applySeq,
		Events:  s.ds.Events(),
		Counters: checkpointCounters{
			Events:           s.events,
			Rejected:         s.rejected,
			RejectedByReason: s.rejectedByReason,
			Duplicates:       s.duplicates,
			Executed:         s.executed,
			Degraded:         s.degraded,
			EnrichErrors:     s.enrichErrors,
			StaleProfiles:    s.staleProfiles,
			Flushes:          s.flushes,
			RetryScheduled:   s.retryScheduled,
			RetryAttempts:    s.retryAttempts,
			RetrySuccesses:   s.retrySuccesses,
			RecentErrors:     s.recentErrors,
		},
		B: bState{
			Inputs:     make([]bInput, 0, s.b.Samples()),
			Integrated: s.b.Samples() - s.b.Pending(),
			Epochs:     s.b.Epochs(),
		},
		Quarantined: s.quarantined,
	}
	index := map[string]int{}
	ref := func(names []string) int {
		key := strings.Join(names, "\x00")
		i, ok := index[key]
		if !ok {
			i = len(cp.Sets)
			index[key] = i
			cp.Sets = append(cp.Sets, slices.Clone(names))
		}
		return i
	}
	for _, smp := range s.ds.Samples() {
		if smp.AVLabel == "" && len(smp.AVLabels) == 0 && smp.Profile == nil {
			continue
		}
		rec := sampleEnrichment{MD5: smp.MD5, AVLabel: smp.AVLabel, AVLabels: smp.AVLabels}
		if smp.Profile != nil {
			i := ref(smp.Profile)
			rec.Set = &i
		}
		cp.Samples = append(cp.Samples, rec)
	}
	s.b.EachInput(func(in *bcluster.IncrementalInput) {
		c := *in
		c.HoldPair = slices.Clone(in.HoldPair)
		cp.B.Inputs = append(cp.B.Inputs, bInput{IncrementalInput: c, SetIndex: ref(in.Set.Names())})
	})
	if len(s.clients) > 0 {
		cp.Clients = s.clients
	}
	if len(s.sampleClient) > 0 {
		cp.SampleClients = s.sampleClient
	}
	for i, d := range s.dims {
		cp.Dims[i] = dimState{Epoch: d.epoch, BuiltLen: d.builtLen}
	}
	for _, e := range s.retry.entries {
		cp.Retry = append(cp.Retry, retryEntryState{
			MD5: e.md5, Stage: e.stage, Attempts: e.attempts, NextSeq: e.nextSeq, LastErr: e.lastErr,
		})
	}
	blob, err := json.Marshal(cp)
	if err != nil {
		panic(err)
	}
	return blob
}

// BInputNames maps each B input's ID to its set's feature names,
// uncopied: the interned set's shared list.
func BInputNames(s *Service) map[string][]string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string][]string, s.b.Samples())
	s.b.EachInput(func(in *bcluster.IncrementalInput) { out[in.ID] = in.Set.Names() })
	return out
}

// FreshBResult assembles the B partition anew, past the query cache.
func FreshBResult(s *Service) *bcluster.Result {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.b.Result()
}
