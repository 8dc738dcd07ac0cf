package stream

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"maps"
	"slices"

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
// as the oracle the codec tests hold the streamed file to: the whole
// state copied into a checkpointFile, json.Marshal'd in one piece, and
// sealed with the CRC trailer.
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
		B: bcluster.IncrementalState{
			Inputs:     make([]bcluster.IncrementalInput, 0, s.b.Samples()),
			Integrated: s.b.Samples() - s.b.Pending(),
			Epochs:     s.b.Epochs(),
		},
		Quarantined: s.quarantined,
	}
	s.b.EachInput(func(in *bcluster.IncrementalInput) {
		c := *in
		c.Features, c.HoldPair = slices.Clone(in.Features), slices.Clone(in.HoldPair)
		cp.B.Inputs = append(cp.B.Inputs, c)
	})
	if len(s.clients) > 0 {
		cp.Clients = s.clients
	}
	if len(s.sampleClient) > 0 {
		cp.SampleClients = s.sampleClient
	}
	if len(s.sampleGroup) > 0 {
		cp.SampleGroups = s.sampleGroup
	}
	for _, smp := range s.ds.Samples() {
		if smp.AVLabel == "" && len(smp.AVLabels) == 0 && smp.Profile == nil {
			continue
		}
		cp.Samples = append(cp.Samples, sampleEnrichment{
			MD5: smp.MD5, AVLabel: smp.AVLabel, AVLabels: smp.AVLabels, Profile: smp.Profile,
		})
	}
	for i, d := range s.dims {
		cp.Dims[i] = dimState{Epoch: d.epoch, BuiltLen: d.builtLen, NextStable: d.nextStable, Stable: d.stable}
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
	return append(blob, fmt.Sprintf("\n#checkpoint-crc32 %08x\n", crc32.ChecksumIEEE(blob))...)
}

// BInputNames maps each B input's ID to the feature list its checkpoint
// record carries, uncopied: the interned set's shared names.
func BInputNames(s *Service) map[string][]string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string][]string, s.b.Samples())
	s.b.EachInput(func(in *bcluster.IncrementalInput) { out[in.ID] = in.Features })
	return out
}

// FreshBResult assembles the B partition anew, past the query cache.
func FreshBResult(s *Service) *bcluster.Result {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.b.Result()
}
