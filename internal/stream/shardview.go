package stream

// This file is the service's surface toward internal/shard: the
// coordinator merges several services' incremental engines into global
// clusterings, and needs a consistent, lock-scoped view of the live
// state.

import (
	"repro/internal/bcluster"
	"repro/internal/epm"
)

// EngineView exposes the live incremental engines of one service for a
// cross-shard merge. The engines are the apply worker's own state:
// everything reachable through the view is valid only between
// AcquireView and its release, and must be treated as read-only.
type EngineView struct {
	// EPM holds the ε/π/μ epoch engines, in schema order.
	EPM [3]*epm.Incremental
	// B is the incremental behavioral clusterer.
	B *bcluster.Incremental
}

// AcquireView read-locks the service and returns its engine view along
// with the release function. The caller must call release promptly —
// the apply worker blocks on its write lock for the duration — and must
// not retain any engine pointer past it. Acquiring views of several
// services in a fixed order is how the coordinator gets one consistent
// multi-shard snapshot.
func (s *Service) AcquireView() (EngineView, func()) {
	s.mu.RLock()
	return EngineView{
		EPM: [3]*epm.Incremental{s.dims[0].eng, s.dims[1].eng, s.dims[2].eng},
		B:   s.b,
	}, s.mu.RUnlock
}

// SampleEventIDs lists the IDs of the events that referenced the
// sample, in arrival order; nil for an unknown sample. The coordinator
// uses it to remap a sample's μ-cluster memberships through the merged
// clustering.
func (s *Service) SampleEventIDs(md5 string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	evs := s.ds.EventsOfSample(md5)
	if len(evs) == 0 {
		return nil
	}
	out := make([]string, len(evs))
	for i := range evs {
		out[i] = evs[i].ID
	}
	return out
}

// StatsPayload adapts Stats to the httpapi backend interface, which
// serves whatever stats shape the backend produces.
func (s *Service) StatsPayload() any { return s.Stats() }
