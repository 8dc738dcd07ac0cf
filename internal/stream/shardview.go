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
	// Epoch and Pending are the ε/π/μ epoch counters and pending-pool
	// sizes, and Degraded the pressure flag, as EPMClusters reports
	// them, read under the same lock as the engines.
	Epoch, Pending [3]int
	Degraded       bool
}

// AcquireView read-locks the service and returns its engine view along
// with the release function. The caller must call release promptly —
// the apply worker blocks on its write lock for the duration — and must
// not retain any engine pointer past it. Acquiring views of several
// services in a fixed order is how the coordinator gets one consistent
// multi-shard snapshot.
func (s *Service) AcquireView() (EngineView, func()) {
	s.mu.RLock()
	v := EngineView{B: s.b, Degraded: s.degradedMode}
	for i, d := range s.dims {
		v.EPM[i], v.Epoch[i], v.Pending[i] = d.eng, d.epoch, d.pendingCount
	}
	return v, s.mu.RUnlock
}

// Membership resolves the cluster memberships a sample view reports in
// views other than the service's own: a coordinator above one shard
// passes its merged global views to SampleIn.
type Membership interface {
	// BCluster returns the representative and size of the B-cluster
	// holding md5; size 0 when none does.
	BCluster(md5 string) (rep string, size int)
	// MCluster returns the stable μ-cluster ID of an event.
	MCluster(eventID string) (int64, bool)
}

// StatsPayload adapts Stats to the httpapi backend interface, which
// serves whatever stats shape the backend produces.
func (s *Service) StatsPayload() any { return s.Stats() }
