package shard

// Merged global views. The coordinator merges the shards' incremental
// engines on demand — epm.Merge for each EPM dimension, bcluster.Merge
// over the behavioral clusterers — and caches each of the four merged
// components under its own key: the per-shard engine state that
// component's merge reads (see epmKey and bKey). A query rebuilds only
// the components whose key moved and carries the rest over, so an
// unchanged deployment serves from the cache without touching the
// shards' engines, and a batch that crossed no EPM epoch re-merges at
// most the B partition.

import (
	"fmt"
	"slices"
	"sort"
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
	// stableIDs maps each merged EPM cluster index to its
	// coordinator-level stable ID (minted largest-first, kept for the
	// coordinator's lifetime — a pattern keeps its ID across snapshots).
	stableIDs [3][]int
}

// merged returns the current merged snapshot, rebuilding only the
// components whose key moved. Lock order: viewMu first, then the
// per-shard read locks in shard order — one merger at a time, and the
// shards' apply workers only ever take their own lock, so the order
// cannot cycle.
func (c *Coordinator) merged() (*mergedState, error) {
	c.viewMu.Lock()
	defer c.viewMu.Unlock()

	releases := make([]func(), len(c.shards))
	m := &mergedState{bKeys: make([]bKey, len(c.shards))}
	for d := range m.epmKeys {
		m.epmKeys[d] = make([]epmKey, len(c.shards))
	}
	for i, s := range c.shards {
		var v stream.EngineView
		v, releases[i] = s.AcquireView()
		for d, eng := range v.EPM {
			m.epmKeys[d][i] = epmKey{eng, eng.Epochs()}
		}
		m.bKeys[i] = bKey{v.B, v.B.Samples(), v.B.Epochs()}
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
		return old, nil
	}
	if old != nil {
		m.epm, m.b, m.stableIDs = old.epm, old.b, old.stableIDs
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
			if m.epm[d], err = epm.Merge(parts); err != nil {
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
		// A merge can only fail on incompatible engines or a sample
		// routed to two shards — a bug, not an operational state. Keep
		// serving the previous snapshot and surface the error in Stats.
		c.mergeErrors++
		c.lastMergeErr = err.Error()
		if old != nil {
			return old, nil
		}
		return nil, fmt.Errorf("shard: merging views: %w", err)
	}

	// Only a rebuilt dimension can hold a pattern without a stable ID,
	// so minting visits the rebuilt ones, in dimension order.
	for d := range m.epm {
		if !epmDirty[d] {
			continue
		}
		m.stableIDs[d] = make([]int, len(m.epm[d].Clusters))
		for i := range m.epm[d].Clusters {
			key := m.epm[d].Clusters[i].Pattern.Key()
			id, ok := c.stable[d][key]
			if !ok {
				id = c.nextStable[d]
				c.nextStable[d]++
				c.stable[d][key] = id
			}
			m.stableIDs[d][i] = id
		}
	}
	c.view = m
	return m, nil
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

// EPMClusters snapshots the merged view of one EPM dimension. Cluster
// sizes count epoch-integrated members (the merged engines' state);
// instances still pending on their shard are reported in Pending, and
// Epoch sums the per-shard epoch counters.
func (c *Coordinator) EPMClusters(name string) (stream.EPMView, error) {
	d, err := dimIndex(name)
	if err != nil {
		return stream.EPMView{}, err
	}
	m, err := c.merged()
	if err != nil {
		return stream.EPMView{}, err
	}
	view := stream.EPMView{Dimension: m.epm[d].Schema.Dimension}
	for _, s := range c.shards {
		sv, serr := s.EPMClusters(name)
		if serr != nil {
			return stream.EPMView{}, serr
		}
		view.Epoch += sv.Epoch
		view.Pending += sv.Pending
		view.Degraded = view.Degraded || sv.Degraded
	}
	view.Clusters = make([]stream.EPMClusterView, len(m.epm[d].Clusters))
	for i := range m.epm[d].Clusters {
		cl := &m.epm[d].Clusters[i]
		view.Instances += len(cl.InstanceIDs)
		view.Clusters[i] = stream.EPMClusterView{
			StableID:  m.stableIDs[d][i],
			EpochID:   cl.ID,
			Pattern:   cl.Pattern.Values,
			Size:      len(cl.InstanceIDs),
			Attackers: cl.Attackers,
			Sensors:   cl.Sensors,
		}
	}
	return view, nil
}

// BClusters snapshots the merged behavioral clustering. On a merge
// failure with no prior snapshot it serves an empty view; the error
// shows up in Stats.
func (c *Coordinator) BClusters() stream.BView {
	var view stream.BView
	for _, s := range c.shards {
		sv := s.BClusters()
		view.Pending += sv.Pending
		view.Epochs += sv.Epochs
		view.Degraded = view.Degraded || sv.Degraded
	}
	m, err := c.merged()
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

// Sample queries one sample: the owning shard serves the per-sample
// facts, and the B-membership and μ-cluster IDs are remapped through
// the merged global views.
func (c *Coordinator) Sample(md5 string) (stream.SampleView, bool) {
	owner := c.shards[ShardOf(md5, len(c.shards))]
	v, ok := owner.Sample(md5)
	if !ok {
		return stream.SampleView{}, false
	}
	m, err := c.merged()
	if err != nil {
		return v, true
	}
	if i := m.b.ClusterOf(md5); i >= 0 {
		v.BRepresentative = m.b.Clusters[i].Members[0]
		v.BSize = m.b.Clusters[i].Size()
	}
	mSet := map[int]bool{}
	for _, eid := range owner.SampleEventIDs(md5) {
		if ci := m.epm[2].ClusterOf(eid); ci >= 0 {
			mSet[m.stableIDs[2][ci]] = true
		}
	}
	v.MClusters = make([]int, 0, len(mSet))
	for sid := range mSet {
		v.MClusters = append(v.MClusters, sid)
	}
	sort.Ints(v.MClusters)
	return v, true
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

// Stats is the deployment-wide snapshot: the aggregate in the familiar
// stream.Stats shape (counters summed, cluster counts from the merged
// views, shared-ledger admission), plus the per-shard telemetry.
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
	for i, s := range c.shards {
		per[i] = s.Stats()
	}

	out := Stats{Shards: len(c.shards), PerShard: make([]ShardStats, len(c.shards))}
	agg := &out.Aggregate
	agg.RejectedByReason = map[string]int{}
	var clientParts [][]stream.ClientStat
	for i, st := range per {
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

	// Shared-ledger admission: the coordinator counts whole-deployment
	// batch admissions and rate-limit rejections; the per-shard ledgers
	// contribute shed/deadline/queue-full refusals, summed above.
	c.admMu.Lock()
	agg.Role = c.role
	agg.UptimeMS = time.Since(c.start).Milliseconds()
	agg.Replicated = 0
	for _, st := range per {
		agg.Replicated += st.Replicated
	}
	agg.Admission.AdmittedBatches = c.admittedBatches
	agg.Admission.AdmittedEvents = c.admittedEvents
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
	m, err := c.merged()
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

// sumAdmission folds one shard's admission ledger into the aggregate.
// AdmittedBatches/Events and the rate-limit fields are overwritten from
// the coordinator's shared ledger afterwards.
func sumAdmission(a, b stream.AdmissionStats) stream.AdmissionStats {
	a.Enabled = a.Enabled || b.Enabled
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

// Counts mirrors stream.Service.Counts over the merged views, for
// convergence verification.
func (c *Coordinator) Counts() (events, samples, executable, e, p, m, b int) {
	for _, s := range c.shards {
		ev, sm, ex, _, _, _, _ := s.Counts()
		events += ev
		samples += sm
		executable += ex
	}
	ms, err := c.merged()
	if err != nil {
		return events, samples, executable, 0, 0, 0, 0
	}
	return events, samples, executable,
		len(ms.epm[0].Clusters), len(ms.epm[1].Clusters), len(ms.epm[2].Clusters), len(ms.b.Clusters)
}

// EPMClustering exposes the merged clustering of one dimension for
// equivalence tests and reporting.
func (c *Coordinator) EPMClustering(name string) (*epm.Clustering, error) {
	d, err := dimIndex(name)
	if err != nil {
		return nil, err
	}
	m, err := c.merged()
	if err != nil {
		return nil, err
	}
	return m.epm[d], nil
}

// BResult exposes the merged behavioral partition.
func (c *Coordinator) BResult() (*bcluster.Result, error) {
	m, err := c.merged()
	if err != nil {
		return nil, err
	}
	return m.b, nil
}
