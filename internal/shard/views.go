package shard

// Merged global views. Above one shard the coordinator merges the
// shards' incremental engines on demand — epm.Merge for each EPM
// dimension, bcluster.Merge over the behavioral clusterers — and caches
// each of the four merged components under its own key: the per-shard
// engine state that component's merge reads (see epmKey and bKey). A
// query rebuilds only the components whose key moved and carries the
// rest over, so an unchanged deployment serves from the cache without
// touching the shards' engines, and a batch that crossed no EPM epoch
// re-merges at most the B partition. A single shard serves its own
// views instead: a merge reads only epoch-integrated instances, so it
// would drop the shard's provisional classifications between epochs.

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/bcluster"
	"repro/internal/epm"
	"repro/internal/stream"
)

// epmKey is one shard's part of an EPM dimension's cache key.
// epm.Merge reads the engine's sketches, invariant sets, pattern groups
// and epoch-integrated instances. Add only appends to the pending pool,
// and Epoch is the one call that changes any of the four, so the epoch
// counter moves exactly when the merge's input does.
type epmKey struct {
	eng    *epm.Incremental
	epochs int
}

// bKey is one shard's part of the B partition's cache key.
// bcluster.Merge reads the sample IDs, the union-find, the posted
// samples with their prefix index, and the probe stats. Add changes the
// first and the last (it moves Samples()) and Verify all four (it moves
// Epochs(); a Verify with nothing parked is a no-op). Amend only
// rewrites the profile of a parked sample, which no probe reads, and
// DrainHeld only defense status, so neither can change the merge.
type bKey struct {
	eng             *bcluster.Incremental
	samples, epochs int
}

// mergedState is one immutable merged snapshot. A snapshot shares the
// components whose keys did not move with the one it replaced; both
// merges return self-contained copies, so a component outlives the
// engine state it was built from.
type mergedState struct {
	// epmKeys and bKeys, one entry per shard, are the components' cache
	// keys. They hold the engines themselves: a shard that restored or
	// reset its state has new engines whose counters may repeat the old
	// ones, and a key that references an engine keeps its address from
	// being reused.
	epmKeys [3][]epmKey
	bKeys   []bKey
	// epm holds the merged ε/π/μ clusterings, b the merged behavioral
	// partition.
	epm [3]*epm.Clustering
	b   *bcluster.Result
	// ids holds the stable ID of each merged EPM cluster
	// (stream.ClusterIDs).
	ids [3][]int64
}

// counters are the per-shard query counters a merged view reports
// beside the merged clusters, summed under the same read locks the
// snapshot is taken under, so the two are consistent.
type counters struct {
	epoch, pending    [3]int
	bPending, bEpochs int
	degraded          bool
}

// merged returns the current merged snapshot, rebuilding only the
// components whose key moved, and the shards' summed counters (valid
// even when the merge fails). Lock order: viewMu first, then the
// per-shard read locks in shard order — one merger at a time, and the
// shards' apply workers only ever take their own lock, so the order
// cannot cycle.
func (c *Coordinator) merged() (*mergedState, counters, error) {
	c.viewMu.Lock()
	defer c.viewMu.Unlock()

	releases := make([]func(), len(c.shards))
	m := &mergedState{bKeys: make([]bKey, len(c.shards))}
	for d := range m.epmKeys {
		m.epmKeys[d] = make([]epmKey, len(c.shards))
	}
	var live counters
	for i, s := range c.shards {
		var v stream.EngineView
		v, releases[i] = s.AcquireView()
		for d, eng := range v.EPM {
			m.epmKeys[d][i] = epmKey{eng, eng.Epochs()}
			live.epoch[d] += v.Epoch[d]
			live.pending[d] += v.Pending[d]
		}
		m.bKeys[i] = bKey{v.B, v.B.Samples(), v.B.Epochs()}
		live.bPending += v.B.Pending()
		live.bEpochs += v.B.Epochs()
		live.degraded = live.degraded || v.Degraded
	}
	release := func() {
		for i := len(releases) - 1; i >= 0; i-- {
			releases[i]()
		}
	}

	old := c.view
	var epmDirty [3]bool
	for d := range m.epmKeys {
		epmDirty[d] = old == nil || !slices.Equal(m.epmKeys[d], old.epmKeys[d])
	}
	bDirty := old == nil || !slices.Equal(m.bKeys, old.bKeys)
	if !bDirty && epmDirty == [3]bool{} {
		release()
		return old, live, nil
	}
	if old != nil {
		m.epm, m.b, m.ids = old.epm, old.b, old.ids
	}

	var err error
	func() {
		defer release()
		for d, keys := range m.epmKeys {
			if !epmDirty[d] {
				continue
			}
			parts := make([]*epm.Incremental, len(keys))
			for i, k := range keys {
				parts[i] = k.eng
			}
			if m.epm[d], err = epm.Merge(parts); err == nil {
				m.ids[d], err = stream.ClusterIDs(m.epm[d])
			}
			if err != nil {
				return
			}
		}
		if bDirty {
			parts := make([]*bcluster.Incremental, len(m.bKeys))
			for i, k := range m.bKeys {
				parts[i] = k.eng
			}
			m.b, err = bcluster.Merge(parts)
		}
	}()
	if err != nil {
		// A merge can only fail on incompatible engines, a sample routed
		// to two shards or two patterns sharing a stable ID — a bug or a
		// hash collision, not an operational state. Keep serving the
		// previous snapshot and surface the error in Stats.
		c.mergeErrors++
		c.lastMergeErr = err.Error()
		if old != nil {
			return old, live, nil
		}
		return nil, live, fmt.Errorf("shard: merging views: %w", err)
	}

	c.view = m
	return m, live, nil
}

// dimIndex resolves a dimension name the same way the stream service
// does ("epsilon"/"pi"/"mu" or single-letter aliases).
func dimIndex(name string) (int, error) {
	switch name {
	case stream.DimEpsilon, "e":
		return 0, nil
	case stream.DimPi, "p":
		return 1, nil
	case stream.DimMu, "m":
		return 2, nil
	}
	return 0, fmt.Errorf("stream: unknown dimension %q", name)
}

// EPMClusters snapshots one EPM dimension: the shard's own view at one
// shard, the merged view above. Merged cluster sizes count
// epoch-integrated members (the merged engines' state); instances still
// pending on their shard are reported in Pending, and Epoch sums the
// per-shard epoch counters.
func (c *Coordinator) EPMClusters(name string) (stream.EPMView, error) {
	if len(c.shards) == 1 {
		return c.shards[0].EPMClusters(name)
	}
	d, err := dimIndex(name)
	if err != nil {
		return stream.EPMView{}, err
	}
	m, live, err := c.merged()
	if err != nil {
		return stream.EPMView{}, err
	}
	view := stream.EPMView{
		Dimension: m.epm[d].Schema.Dimension,
		Epoch:     live.epoch[d],
		Pending:   live.pending[d],
		Degraded:  live.degraded,
		Clusters:  make([]stream.EPMClusterView, len(m.epm[d].Clusters)),
	}
	for i := range m.epm[d].Clusters {
		cl := &m.epm[d].Clusters[i]
		view.Instances += len(cl.InstanceIDs)
		view.Clusters[i] = stream.EPMClusterView{
			StableID:  m.ids[d][i],
			EpochID:   cl.ID,
			Pattern:   cl.Pattern.Values,
			Size:      len(cl.InstanceIDs),
			Attackers: cl.Attackers,
			Sensors:   cl.Sensors,
		}
	}
	return view, nil
}

// BClusters snapshots the behavioral clustering: the shard's own view
// at one shard, the merged view above. On a merge failure with no prior
// snapshot it serves the counters with no clusters; the error shows up
// in Stats.
func (c *Coordinator) BClusters() stream.BView {
	if len(c.shards) == 1 {
		return c.shards[0].BClusters()
	}
	m, live, err := c.merged()
	view := stream.BView{Pending: live.bPending, Epochs: live.bEpochs, Degraded: live.degraded}
	if err != nil {
		return view
	}
	view.Samples = m.b.Stats.Samples
	view.Clusters = make([]stream.BClusterView, len(m.b.Clusters))
	for i, cl := range m.b.Clusters {
		view.Clusters[i] = stream.BClusterView{ID: cl.ID, Representative: cl.Members[0], Size: cl.Size()}
	}
	return view
}

// Sample queries one sample on the shard that owns it. Above one shard
// the owner resolves the sample's B-cluster and μ-cluster IDs in the
// merged global views.
func (c *Coordinator) Sample(md5 string) (stream.SampleView, bool) {
	owner := c.shards[ShardOf(md5, len(c.shards))]
	if len(c.shards) == 1 {
		return owner.Sample(md5)
	}
	m, _, err := c.merged()
	if err != nil {
		return owner.Sample(md5)
	}
	return owner.SampleIn(md5, m)
}

// BCluster resolves a sample's merged B-cluster (stream.Membership).
func (m *mergedState) BCluster(md5 string) (rep string, size int) {
	if i := m.b.ClusterOf(md5); i >= 0 {
		return m.b.Clusters[i].Members[0], m.b.Clusters[i].Size()
	}
	return "", 0
}

// MCluster resolves an event's stable merged μ-cluster ID
// (stream.Membership).
func (m *mergedState) MCluster(eventID string) (int64, bool) {
	if ci := m.epm[2].ClusterOf(eventID); ci >= 0 {
		return m.ids[2][ci], true
	}
	return 0, false
}

// ShardStats is the per-shard telemetry slice of Stats.
type ShardStats struct {
	Shard         int    `json:"shard"`
	Events        int    `json:"events"`
	Samples       int    `json:"samples"`
	QueueDepth    int    `json:"queue_depth"`
	QueueCap      int    `json:"queue_cap"`
	MaxQueueDepth int    `json:"max_queue_depth"`
	EpsilonEpoch  int    `json:"epsilon_epoch"`
	PiEpoch       int    `json:"pi_epoch"`
	MuEpoch       int    `json:"mu_epoch"`
	BEpochs       int    `json:"b_epochs"`
	Degraded      bool   `json:"degraded"`
	Fatal         string `json:"fatal,omitempty"`
	// ReadOnly marks a shard serving reads only after a storage failure.
	ReadOnly bool `json:"read_only,omitempty"`
}

// Stats is the deployment-wide snapshot, in one shape at every shard
// count: the aggregate in the stream.Stats shape plus the per-shard
// telemetry. At one shard the aggregate is the shard's own Stats. Above
// one shard its counters are summed, its cluster counts come from the
// merged views, and its admission ledger adds the shared ledger's
// rate-limit refusals to the shards' own counts.
type Stats struct {
	Shards         int          `json:"shards"`
	MergeErrors    int          `json:"merge_errors,omitempty"`
	LastMergeError string       `json:"last_merge_error,omitempty"`
	Aggregate      stream.Stats `json:"aggregate"`
	PerShard       []ShardStats `json:"per_shard"`
}

// Stats snapshots the deployment.
func (c *Coordinator) Stats() Stats {
	per := make([]stream.Stats, len(c.shards))
	out := Stats{Shards: len(c.shards), PerShard: make([]ShardStats, len(c.shards))}
	for i, s := range c.shards {
		st := s.Stats()
		per[i] = st
		out.PerShard[i] = ShardStats{
			Shard:         i,
			Events:        st.Events,
			Samples:       st.Samples,
			QueueDepth:    st.QueueDepth,
			QueueCap:      st.QueueCap,
			MaxQueueDepth: st.MaxQueueDepth,
			EpsilonEpoch:  st.Epsilon.Epoch,
			PiEpoch:       st.Pi.Epoch,
			MuEpoch:       st.Mu.Epoch,
			BEpochs:       st.B.Epochs,
			Degraded:      st.Admission.Degraded,
			Fatal:         st.Fatal,
			ReadOnly:      st.Storage.ReadOnly,
		}
	}
	c.admMu.Lock()
	role := c.role
	c.admMu.Unlock()
	if len(per) == 1 {
		out.Aggregate = per[0]
		out.Aggregate.Role = role
		return out
	}

	agg := &out.Aggregate
	agg.Role = role
	agg.UptimeMS = time.Since(c.start).Milliseconds()
	agg.RejectedByReason = map[string]int{}
	var clientParts [][]stream.ClientStat
	for _, st := range per {
		agg.Replicated += st.Replicated
		agg.Events += st.Events
		agg.Rejected += st.Rejected
		for k, v := range st.RejectedByReason {
			agg.RejectedByReason[k] += v
		}
		agg.Duplicates += st.Duplicates
		agg.Samples += st.Samples
		agg.ExecutableSamples += st.ExecutableSamples
		agg.Executed += st.Executed
		agg.Degraded += st.Degraded
		agg.EnrichErrors += st.EnrichErrors
		agg.StaleProfiles += st.StaleProfiles
		agg.Flushes += st.Flushes
		agg.RecentErrors = append(agg.RecentErrors, st.RecentErrors...)
		agg.QueueCap += st.QueueCap
		agg.QueueDepth += st.QueueDepth
		agg.MaxQueueDepth = max(agg.MaxQueueDepth, st.MaxQueueDepth)
		if agg.Fatal == "" {
			agg.Fatal = st.Fatal
		}
		// Storage health: one read-only shard makes the deployment's
		// write path partially degraded — surface it, keep the reason
		// from the first failing shard, and sum the healing ledgers.
		if st.Storage.ReadOnly && !agg.Storage.ReadOnly {
			agg.Storage.ReadOnly = true
			agg.Storage.Reason = st.Storage.Reason
			agg.Storage.Error = st.Storage.Error
		}
		agg.Storage.WALRepairs += st.Storage.WALRepairs
		agg.Storage.CheckpointFailures += st.Storage.CheckpointFailures
		agg.Storage.CheckpointFallbacks += st.Storage.CheckpointFallbacks
		agg.Storage.CorruptCheckpoints += st.Storage.CorruptCheckpoints
		agg.Storage.Generations += st.Storage.Generations
		agg.Storage.Scrub.Runs += st.Storage.Scrub.Runs
		agg.Storage.Scrub.Segments += st.Storage.Scrub.Segments
		agg.Storage.Scrub.Records += st.Storage.Scrub.Records
		agg.Storage.Scrub.Corruptions += st.Storage.Scrub.Corruptions
		agg.Storage.Scrub.CorruptSegments = append(agg.Storage.Scrub.CorruptSegments, st.Storage.Scrub.CorruptSegments...)
		if st.Storage.Scrub.LastError != "" {
			agg.Storage.Scrub.LastError = st.Storage.Scrub.LastError
		}
		agg.Retry.Pending += st.Retry.Pending
		agg.Retry.Scheduled += st.Retry.Scheduled
		agg.Retry.Attempts += st.Retry.Attempts
		agg.Retry.Successes += st.Retry.Successes
		agg.Retry.Quarantined += st.Retry.Quarantined
		agg.WAL.Enabled = agg.WAL.Enabled || st.WAL.Enabled
		agg.WAL.Appends += st.WAL.Appends
		agg.WAL.AppendErrors += st.WAL.AppendErrors
		agg.WAL.Checkpoints += st.WAL.Checkpoints
		agg.WAL.LastSeq = max(agg.WAL.LastSeq, st.WAL.LastSeq)
		agg.WAL.LastCheckpointSeq = max(agg.WAL.LastCheckpointSeq, st.WAL.LastCheckpointSeq)
		agg.WAL.LastCheckpointPayloadBytes += st.WAL.LastCheckpointPayloadBytes
		agg.WAL.RecoveredRecords += st.WAL.RecoveredRecords
		agg.Epsilon = sumDim(agg.Epsilon, st.Epsilon)
		agg.Pi = sumDim(agg.Pi, st.Pi)
		agg.Mu = sumDim(agg.Mu, st.Mu)
		agg.B.Pending += st.B.Pending
		agg.B.Epochs += st.B.Epochs
		agg.Admission = sumAdmission(agg.Admission, st.Admission)
		// Defense counters sum across shards: each shard's clusterer
		// quarantines independently over its own sample subset.
		if st.Defense != nil {
			if agg.Defense == nil {
				agg.Defense = &bcluster.DefenseStats{}
			}
			agg.Defense.Held += st.Defense.Held
			agg.Defense.Parked += st.Defense.Parked
			agg.Defense.HeldTotal += st.Defense.HeldTotal
			agg.Defense.ParkedTotal += st.Defense.ParkedTotal
			agg.Defense.Released += st.Defense.Released
			agg.Defense.Drained += st.Defense.Drained
		}
		if len(st.Clients) > 0 {
			clientParts = append(clientParts, st.Clients)
		}
	}
	agg.Clients = stream.MergeClientStats(clientParts...)
	if len(agg.RejectedByReason) == 0 {
		agg.RejectedByReason = nil
	}

	// The shared ledger's rate-limit refusals never reached a shard, so
	// they add to the refusals the shards counted themselves, and to the
	// client's own count. Clients are listed as one shard lists them:
	// those with a ledger on some shard.
	c.admMu.Lock()
	for i := range agg.Clients {
		agg.Clients[i].RejectedBatches += c.rejectedByClient[agg.Clients[i].Client]
	}
	for k, v := range c.rejectedBatches {
		if agg.Admission.RejectedBatches == nil {
			agg.Admission.RejectedBatches = map[string]int{}
		}
		agg.Admission.RejectedBatches[k] += v
	}
	for k, v := range c.rejectedEvents {
		if agg.Admission.RejectedEvents == nil {
			agg.Admission.RejectedEvents = map[string]int{}
		}
		agg.Admission.RejectedEvents[k] += v
	}
	c.admMu.Unlock()
	if c.limiter != nil {
		agg.Admission.Enabled = true
		agg.Admission.RateLimitClients = c.limiter.Clients()
	}

	// Cluster counts come from the merged views, not per-shard sums — a
	// cross-shard link or an aggregate-only invariant crossing changes
	// them.
	m, _, err := c.merged()
	c.viewMu.Lock()
	out.MergeErrors = c.mergeErrors
	out.LastMergeError = c.lastMergeErr
	c.viewMu.Unlock()
	if err == nil {
		agg.Epsilon.Clusters = len(m.epm[0].Clusters)
		agg.Pi.Clusters = len(m.epm[1].Clusters)
		agg.Mu.Clusters = len(m.epm[2].Clusters)
		agg.B.Samples = m.b.Stats.Samples
		agg.B.Clusters = len(m.b.Clusters)
		agg.B.CandidatePairs = m.b.Stats.CandidatePairs
		agg.B.Links = m.b.Stats.Links
	}
	return out
}

// sumDim folds one shard's dimension stats into the aggregate; Clusters
// is overwritten from the merged view afterwards.
func sumDim(a, b stream.DimStats) stream.DimStats {
	a.Epoch += b.Epoch
	a.Instances += b.Instances
	a.Pending += b.Pending
	a.DeltaEpochs += b.DeltaEpochs
	a.FullRegroups += b.FullRegroups
	return a
}

// sumAdmission folds one shard's admission ledger into the aggregate;
// the shared ledger's rate-limit fields are added afterwards.
func sumAdmission(a, b stream.AdmissionStats) stream.AdmissionStats {
	a.Enabled = a.Enabled || b.Enabled
	a.AdmittedBatches += b.AdmittedBatches
	a.AdmittedEvents += b.AdmittedEvents
	for k, v := range b.RejectedBatches {
		if a.RejectedBatches == nil {
			a.RejectedBatches = map[string]int{}
		}
		a.RejectedBatches[k] += v
	}
	for k, v := range b.RejectedEvents {
		if a.RejectedEvents == nil {
			a.RejectedEvents = map[string]int{}
		}
		a.RejectedEvents[k] += v
	}
	a.QueueDelayMs = maxf(a.QueueDelayMs, b.QueueDelayMs)
	a.ShedProbability = maxf(a.ShedProbability, b.ShedProbability)
	a.Waiters += b.Waiters
	a.Degraded = a.Degraded || b.Degraded
	a.DegradedEntered += b.DegradedEntered
	a.DegradedExited += b.DegradedExited
	a.EpochsDeferred += b.EpochsDeferred
	return a
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// StatsPayload adapts Stats to the httpapi backend interface.
func (c *Coordinator) StatsPayload() any { return c.Stats() }

// Counts mirrors stream.Service.Counts over the served views, for
// convergence verification.
func (c *Coordinator) Counts() (events, samples, executable, e, p, m, b int) {
	if len(c.shards) == 1 {
		return c.shards[0].Counts()
	}
	for _, s := range c.shards {
		ev, sm, ex, _, _, _, _ := s.Counts()
		events += ev
		samples += sm
		executable += ex
	}
	ms, _, err := c.merged()
	if err != nil {
		return events, samples, executable, 0, 0, 0, 0
	}
	return events, samples, executable,
		len(ms.epm[0].Clusters), len(ms.epm[1].Clusters), len(ms.epm[2].Clusters), len(ms.b.Clusters)
}

// EPMClustering exposes the served clustering of one dimension for
// equivalence tests and reporting: the shard's own at one shard (nil
// before its first epoch), the merged one above.
func (c *Coordinator) EPMClustering(name string) (*epm.Clustering, error) {
	if len(c.shards) == 1 {
		return c.shards[0].EPMClustering(name)
	}
	d, err := dimIndex(name)
	if err != nil {
		return nil, err
	}
	m, _, err := c.merged()
	if err != nil {
		return nil, err
	}
	return m.epm[d], nil
}

// BResult exposes the served behavioral partition.
func (c *Coordinator) BResult() (*bcluster.Result, error) {
	if len(c.shards) == 1 {
		return c.shards[0].BResult(), nil
	}
	m, _, err := c.merged()
	if err != nil {
		return nil, err
	}
	return m.b, nil
}
