// Package stream implements the incremental landscape service: a
// long-running ingestor of attack events that keeps live E/P/M/B cluster
// state, the streaming counterpart of the one-shot batch pipeline in
// internal/core.
//
// Events arrive in batches on a bounded queue (backpressure: Ingest
// blocks while the queue is full) and are applied by a single worker.
// Each EPM dimension classifies new instances against its current
// pattern set via the Classify fast path; instances no pattern matches
// accumulate in a pending pool that, once it reaches Config.EpochSize,
// triggers an epoch. Epochs are incremental (epm.Incremental): the
// engine merges only the newly arrived instances into its persistent
// value-count sketches and pattern groups, falling back to a full
// regroup only when an invariant threshold crossing invalidates the
// pattern tree, so epoch cost tracks new arrivals rather than corpus
// size while the output stays byte-identical to a full re-run of
// discovery over every instance. A cluster's stable ID is a function of
// its dimension and pattern (ClusterIDs), so it survives epochs and is
// the same at every epoch size, shard count, recovery and replica.
//
// New samples are labeled and sandbox-executed on first sight and parked
// in the incremental B-clusterer (bcluster.Incremental), which probes
// them against its prefix index at the next verification epoch. Because the
// per-sample execution randomness derives from the sample hash and the
// B partition is arrival-order independent, a replay of a batch dataset
// converges on exactly the batch pipeline's clusters — byte-identical
// memberships after Flush, at any epoch size (see the equivalence test).
package stream

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/bcluster"
	"repro/internal/behavior"
	"repro/internal/ckpt"
	"repro/internal/dataset"
	"repro/internal/enrich"
	"repro/internal/epm"
	"repro/internal/faultfs"
	"repro/internal/wal"
)

// Enricher supplies the per-sample enrichment the service performs on
// first sight of a sample. *enrich.Pipeline implements it; benchmarks
// substitute synthetic implementations.
type Enricher interface {
	// LabelSample assigns AV labels to a newly seen sample.
	LabelSample(s *dataset.Sample) error
	// ExecuteSample runs an executable sample in the sandbox at its
	// first-seen instant and returns its behavioral profile and whether
	// the run degraded.
	ExecuteSample(s *dataset.Sample) (*behavior.Profile, bool, error)
}

// Config parameterizes the service.
type Config struct {
	// EpochSize is the pending-pool size that triggers an EPM rebuild
	// epoch (per dimension) and a B verification epoch; 0 defers every
	// epoch to Flush ("epoch size = all").
	EpochSize int
	// QueueDepth bounds the ingest queue, in batches; Ingest blocks while
	// the queue is full. 0 selects 16.
	QueueDepth int
	// Parallelism bounds the sandbox executions per batch; 0 selects
	// GOMAXPROCS.
	Parallelism int
	// Thresholds configure EPM invariant discovery.
	Thresholds epm.Thresholds
	// BCluster configures the incremental behavioral clustering.
	BCluster bcluster.Config
	// Durability configures the write-ahead log and checkpointing; the
	// zero value keeps the service memory-only.
	Durability Durability
	// Retry configures transient-enrichment retry and quarantine.
	Retry Retry
	// Admission configures overload protection: per-client rate
	// limiting, the admission deadline, adaptive load shedding, and
	// degraded mode. The zero value disables all of it — Ingest then
	// blocks on a full queue exactly as before.
	Admission admission.Config
	// StatsClients surfaces the per-client admission and provenance
	// ledger in Stats.Clients. The ledger is maintained whenever a
	// defense is on; this knob only controls the reporting surface.
	StatsClients bool
}

// DefaultConfig mirrors the batch pipeline's analysis parameters with a
// serving-friendly epoch size.
func DefaultConfig() Config {
	return Config{
		EpochSize:  256,
		QueueDepth: 16,
		Thresholds: epm.DefaultThresholds(),
		BCluster:   bcluster.DefaultConfig(),
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.EpochSize < 0 {
		return fmt.Errorf("stream: EpochSize %d is negative", c.EpochSize)
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("stream: QueueDepth %d is negative", c.QueueDepth)
	}
	if err := c.Thresholds.Validate(); err != nil {
		return err
	}
	if err := c.Durability.validate(); err != nil {
		return err
	}
	if err := c.Retry.validate(); err != nil {
		return err
	}
	if err := c.Admission.Validate(); err != nil {
		return err
	}
	return c.BCluster.Validate()
}

// ErrClosed is returned by Ingest and Flush after Close.
var ErrClosed = errors.New("stream: service closed")

// request is one unit of ingest-worker work.
type request struct {
	events []dataset.Event
	// client is the ingest identity the batch arrived under; "" is the
	// trusted loopback.
	client string
	flush  bool
	ckpt   bool
	// sync asks only for an acknowledgement: the worker answers once
	// every request queued before it has been applied.
	sync bool
	errc chan error
	// at is the enqueue instant; the worker derives the queue-wait
	// pressure signal from it.
	at time.Time
}

// Service is the streaming landscape service. Construct with New, feed
// with Ingest, snapshot with the query methods, stop with Close.
type Service struct {
	cfg      Config
	enricher Enricher

	in         chan request
	closed     chan struct{}
	workerDone chan struct{}
	closeOnce  sync.Once
	prodMu     sync.Mutex
	prodWG     sync.WaitGroup
	isClosed   bool

	// wal, applySeq (guarded by mu for readers), and the checkpoint
	// cursors are mutated by the worker only.
	wal       *wal.Log
	sinceCkpt int

	mu   sync.RWMutex
	ds   *dataset.Dataset
	dims [3]*dimension
	b    *bcluster.Incremental
	// bres caches b's assembled partition under the state it reads (see
	// bResult). Queries hold only the read lock, so it has its own mutex.
	bresMu  sync.Mutex
	bresKey bResultKey
	bres    *bcluster.Result
	// restored marks a replica that RestoreSnapshot bootstrapped. With
	// applySeq it is the bootstrap's freshness check: a replica applies
	// records only at seq 1 and up, but a checkpoint the primary wrote
	// before its first record restores at seq 0.
	restored bool

	applySeq uint64 // seq of the last applied (or logged) record

	events           int
	rejected         int
	rejectedByReason map[string]int
	duplicates       int
	executed         int
	degraded         int
	enrichErrors     int
	staleProfiles    int
	flushes          int
	maxQueue         int
	recentErrors     []string

	retry          *retryPool
	quarantined    map[string]string
	retryScheduled int
	retryAttempts  int
	retrySuccesses int

	// Provenance (defense.go). clients and the sample-attribution map
	// are guarded by mu and populated only when trackClients() — with
	// every knob off they stay empty and the checkpoint byte-identical.
	clients      map[string]*clientLedger
	sampleClient map[string]string

	// Overload protection. The limiter and shedder are nil when their
	// knobs are off; qDelay and waiters are lock-free so admission
	// decisions never serialize behind the apply worker; the ledger
	// counters take admMu; the degraded fields are guarded by mu
	// (worker-written, query-read).
	limiter    *admission.Limiter
	shedder    *admission.Shedder
	qDelay     admission.EWMA
	waiters    atomic.Int64
	storageErr atomic.Pointer[StorageFailure]

	admMu            sync.Mutex
	admittedBatches  int
	admittedEvents   int
	rejectedBatches  map[string]int
	rejectedEvents   map[string]int
	rejectedByClient map[string]int
	shedProb         float64

	degradedMode    bool
	degradedEntered int
	degradedExited  int
	epochsDeferred  int

	walAppends       int
	walAppendErrors  int
	checkpoints      int
	lastCkptSeq      uint64
	lastCkptPayload  int64
	recoveredRecords int

	// Self-healing durability (durability.go, storage.go). fs is the
	// filesystem under the checkpoint writer — the os passthrough unless
	// the chaos harness injected faults; ckptGen/gens track the retained
	// fallback checkpoint generations; ckw is the checkpoint writer,
	// which keeps its compressor between checkpoints; the remaining
	// fields are the repair/fallback/scrub ledger surfaced in
	// Stats.Storage.
	fs            faultfs.FS
	ckw           ckpt.Writer
	ckptGen       uint64
	gens          []ckptGeneration
	walRepairs    int
	ckptFailures  int
	ckptFallbacks int
	corruptCkpts  int

	scrubRuns        int
	scrubSegments    int
	scrubRecords     int
	scrubCorruptions int
	scrubCorrupt     []string
	scrubLastErr     string

	// Replication. replica and role are immutable after construction
	// (NewReplica sets them before the service is shared), so the
	// write-path guards read them without locks; the applied-record
	// counter is guarded by mu.
	replica    bool
	role       string
	start      time.Time
	replicated int
}

// New starts a service. The enricher must resolve every sample the
// ingested events reference; events whose samples it rejects are
// counted, kept in the event dataset, and excluded from B-clustering.
func New(cfg Config, enricher Enricher) (*Service, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if enricher == nil {
		return nil, fmt.Errorf("stream: nil enricher")
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 16
	}
	if cfg.Retry.MaxAttempts == 0 {
		cfg.Retry.MaxAttempts = 5
	}
	if cfg.Retry.BaseBackoff == 0 {
		cfg.Retry.BaseBackoff = 1
	}
	if cfg.Retry.MaxBackoff == 0 {
		cfg.Retry.MaxBackoff = 8
	}
	if cfg.Retry.MaxBackoff < cfg.Retry.BaseBackoff {
		cfg.Retry.MaxBackoff = cfg.Retry.BaseBackoff
	}
	s := &Service{
		cfg:              cfg,
		enricher:         enricher,
		in:               make(chan request, cfg.QueueDepth),
		closed:           make(chan struct{}),
		workerDone:       make(chan struct{}),
		limiter:          admission.NewLimiter(cfg.Admission.RatePerSec, cfg.Admission.Burst, cfg.Admission.MaxClients, nil),
		shedder:          admission.NewShedder(cfg.Admission.ShedTarget, cfg.Admission.Seed),
		rejectedBatches:  make(map[string]int),
		rejectedEvents:   make(map[string]int),
		rejectedByClient: make(map[string]int),
		role:             RoleStandalone,
		start:            time.Now(),
		fs:               faultfs.OrOS(cfg.Durability.FS),
	}
	if err := s.resetState(); err != nil {
		return nil, err
	}
	if cfg.Durability.Dir != "" {
		// Recovery runs synchronously, before the worker: load the last
		// checkpoint, replay the WAL suffix through the normal apply
		// path. Callers that need liveness during a long recovery (the
		// daemon) construct the service off their serving goroutine.
		if err := s.recover(); err != nil {
			return nil, err
		}
	}
	go s.worker()
	return s, nil
}

// resetState (re)initializes every piece of recoverable landscape
// state. New calls it once before recovery; recovery calls it again
// before restoring an older checkpoint generation after a newer
// candidate proved corrupt, so a half-restored attempt never leaks into
// the fallback.
func (s *Service) resetState() error {
	b, err := bcluster.NewIncremental(s.cfg.BCluster)
	if err != nil {
		return err
	}
	s.ds = dataset.New()
	s.b = b
	for i, schema := range []epm.Schema{dataset.EpsilonSchema, dataset.PiSchema, dataset.MuSchema} {
		if s.dims[i], err = newDimension(schema, s.cfg.Thresholds); err != nil {
			return err
		}
	}
	s.rejectedByReason = make(map[string]int)
	s.retry = newRetryPool()
	s.quarantined = make(map[string]string)
	s.clients = make(map[string]*clientLedger)
	s.sampleClient = make(map[string]string)
	s.events, s.rejected, s.duplicates = 0, 0, 0
	s.executed, s.degraded = 0, 0
	s.enrichErrors, s.staleProfiles, s.flushes = 0, 0, 0
	s.retryScheduled, s.retryAttempts, s.retrySuccesses = 0, 0, 0
	s.recentErrors = nil
	s.applySeq = 0
	return nil
}

// Ingest enqueues one batch of events and returns once the batch is
// queued (not yet applied). With overload protection off it blocks
// while the queue is full — that is the backpressure bound on producer
// memory — and fails only when the context ends or the service closes.
// Per-event problems (duplicate IDs, unresolvable samples) do not fail
// the batch; they are counted in Stats. Ingest is the trusted loopback
// entry: it bypasses the per-client rate limiter (the HTTP layer calls
// IngestFrom with a client key instead) but not the shedder, the
// admission deadline, or the waiter budget.
func (s *Service) Ingest(ctx context.Context, events []dataset.Event) error {
	return s.IngestFrom(ctx, "", events)
}

// IngestFrom is Ingest with a client identity for admission control:
// the batch first passes the fail-closed gate, the client's token
// bucket (client "" is exempt), and the adaptive shedder, then waits
// for queue space at most Admission.Deadline. A refusal is a typed
// *admission.Rejection carrying the reason and a retry-after hint; the
// HTTP layer maps it to 429/503 with a Retry-After header.
func (s *Service) IngestFrom(ctx context.Context, client string, events []dataset.Event) error {
	if s.replica {
		return ErrReadOnly
	}
	if len(events) == 0 {
		return nil
	}
	if err := s.admitBatch(client, len(events)); err != nil {
		return err
	}
	return s.send(ctx, request{events: append([]dataset.Event(nil), events...), client: client})
}

// Flush forces an epoch everywhere: it waits for every previously queued
// batch, rebuilds any EPM dimension that grew since its last epoch, and
// verifies every parked B sample. After Flush the cluster state equals
// the batch pipeline's over the same events. Under a persistent WAL
// failure Flush returns the read-only *StorageFailure instead of
// acknowledging state it cannot make durable.
func (s *Service) Flush(ctx context.Context) error {
	if s.replica {
		return ErrReadOnly
	}
	if err := s.StorageFailure(); err != nil {
		return err
	}
	return s.call(ctx, request{flush: true})
}

// Sync waits until every batch queued before the call has been applied,
// so state read afterwards reflects them. Unlike Flush it forces no
// epoch, drains no retries and releases no quarantine: parked samples
// stay parked and the retry backoff clock does not move.
func (s *Service) Sync(ctx context.Context) error {
	return s.call(ctx, request{sync: true})
}

// call enqueues a control request (flush, checkpoint, sync) and waits
// for the worker's answer, which comes after every request queued
// before it.
func (s *Service) call(ctx context.Context, req request) error {
	req.errc = make(chan error, 1)
	if err := s.send(ctx, req); err != nil {
		return err
	}
	select {
	case err := <-req.errc:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// send registers the caller as a producer and enqueues the request,
// honoring the admission deadline and the global waiter budget. Event
// batches are accounted admitted/rejected here; control requests
// (flush, checkpoint) share the gates but not the ledger.
func (s *Service) send(ctx context.Context, req request) error {
	s.prodMu.Lock()
	if s.isClosed {
		s.prodMu.Unlock()
		return ErrClosed
	}
	s.prodWG.Add(1)
	s.prodMu.Unlock()
	defer s.prodWG.Done()
	req.at = time.Now()

	// Fast path: queue space is free, no waiting and no gates.
	select {
	case s.in <- req:
		if req.events != nil {
			s.noteAdmitted(len(req.events))
		}
		return nil
	default:
	}

	// The queue is full: this producer becomes a waiter. The waiter
	// budget fails fast when too many producers are already parked.
	if max := s.cfg.Admission.MaxWaiters; max > 0 {
		if int(s.waiters.Add(1)) > max {
			s.waiters.Add(-1)
			rej := &admission.Rejection{
				Reason:     admission.ReasonQueueFull,
				RetryAfter: admission.RetryAfterHint(s.qDelay.Load()),
			}
			if req.events != nil {
				s.noteRejected(req.client, string(rej.Reason), len(req.events))
			}
			return rej
		}
	} else {
		s.waiters.Add(1)
	}
	defer s.waiters.Add(-1)

	var deadline <-chan time.Time
	if d := s.cfg.Admission.Deadline; d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case s.in <- req:
		if req.events != nil {
			s.noteAdmitted(len(req.events))
		}
		return nil
	case <-deadline:
		rej := &admission.Rejection{
			Reason:     admission.ReasonDeadline,
			RetryAfter: admission.RetryAfterHint(s.qDelay.Load()),
		}
		if req.events != nil {
			s.noteRejected(req.client, string(rej.Reason), len(req.events))
		}
		return rej
	case <-ctx.Done():
		return ctx.Err()
	case <-s.closed:
		return ErrClosed
	}
}

// Close stops the service: new producers are refused, blocked producers
// unblock with ErrClosed, queued batches are applied, and the worker
// exits. Close is idempotent and safe to call concurrently.
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		s.prodMu.Lock()
		s.isClosed = true
		s.prodMu.Unlock()
		close(s.closed)
		s.prodWG.Wait()
		close(s.in)
		<-s.workerDone
		if s.wal != nil {
			s.wal.Close()
		}
	})
}

// worker is the single mutator: it applies batches in arrival order, so
// all cluster state evolves deterministically in the record sequence.
// Every accepted request is WAL-logged before it is applied; a request
// whose append fails (after one self-heal attempt) is dropped, not
// half-applied, and the service degrades to read-only. Each dequeue
// also feeds the smoothed queue-delay signal that drives shedding and
// degraded mode.
func (s *Service) worker() {
	defer close(s.workerDone)
	for req := range s.in {
		if !req.at.IsZero() {
			s.observePressure(time.Since(req.at))
		}
		depth := len(s.in) + 1
		if req.sync {
			req.errc <- nil
			continue
		}
		if req.ckpt {
			req.errc <- s.checkpoint()
			continue
		}
		var failed error
		if s.logRequest(req) {
			if req.flush {
				s.applyFlush()
			} else {
				s.applyBatch(req.client, req.events, depth)
			}
			if every := s.cfg.Durability.CheckpointEvery; s.wal != nil && every > 0 {
				s.sinceCkpt++
				if s.sinceCkpt >= every {
					// checkpoint records and accounts its own failures.
					s.checkpoint()
				}
			}
		} else if failed = s.StorageFailure(); failed == nil {
			failed = errors.New("stream: request dropped: wal append failed")
		}
		if req.errc != nil {
			req.errc <- failed
		}
	}
}

// applyBatch ingests one batch: due retries are re-drained and events
// projected under the write lock, sandbox executions run outside it
// (they are the slow part and mutate nothing the queries read), then
// profiles, B additions, and epoch triggers land under the lock again.
func (s *Service) applyBatch(client string, events []dataset.Event, depth int) {
	s.mu.Lock()
	if depth > s.maxQueue {
		s.maxQueue = depth
	}
	// execList collects every sample needing a sandbox run this batch:
	// due execute-stage retries, just-relabeled executables, first-seen
	// executables, and parked samples whose first-seen moved backwards.
	execList, seen := s.drainRetries(false)
	for _, e := range events {
		if reason, err := s.validateEvent(e); err != nil {
			s.rejected++
			s.rejectedByReason[reason]++
			s.recordError(err.Error())
			continue
		}
		var prev *dataset.Sample
		var prevFirst time.Time
		if e.HasSample() {
			if prev = s.ds.Sample(e.Sample.MD5); prev != nil {
				prevFirst = prev.FirstSeen
			}
		}
		if err := s.ds.AddEvent(e); err != nil {
			// validateEvent screened everything AddEvent checks except
			// ID reuse, the streaming world's at-least-once redelivery.
			s.duplicates++
			continue
		}
		s.events++
		if s.trackClients() {
			s.ledger(client).Events++
		}
		if err := s.dims[0].add(e.EpsilonInstance()); err != nil {
			s.recordError(err.Error())
		}
		if err := s.dims[1].add(e.PiInstance()); err != nil {
			s.recordError(err.Error())
		}
		if in, ok := e.MuInstance(); ok {
			if err := s.dims[2].add(in); err != nil {
				s.recordError(err.Error())
			}
		}
		s.epochCheck()
		if !e.HasSample() {
			continue
		}
		smp := s.ds.Sample(e.Sample.MD5)
		if prev == nil {
			s.noteSampleOrigin(client, e.Sample.MD5)
		}
		if prev == nil && !seen[smp.MD5] {
			if err := s.enricher.LabelSample(smp); err != nil {
				s.noteEnrichFailure(smp.MD5, retryLabel, err)
				continue
			}
			if smp.Executable {
				execList = append(execList, smp)
				seen[smp.MD5] = true
			}
		} else if prev != nil && smp.Executable && smp.FirstSeen.Before(prevFirst) &&
			!seen[smp.MD5] && s.retry.get(smp.MD5) == nil && !s.isQuarantined(smp.MD5) {
			// A late event moved the sample's first-seen instant
			// backwards; its profile (a function of that instant) is
			// stale. Re-execute; samples still in the retry pool pick
			// the refreshed instant up on their next attempt instead.
			execList = append(execList, smp)
			seen[smp.MD5] = true
		}
	}
	s.mu.Unlock()

	outs := s.runExecs(execList)

	s.mu.Lock()
	s.applyExecResults(execList, outs)
	s.mu.Unlock()
}

// outcome is one sandbox execution's result: the profile and its
// interned set.
type outcome struct {
	profile  *behavior.Profile
	set      *behavior.Set
	degraded bool
	err      error
}

// runExecs runs the sandbox executions on a bounded pool and interns
// each profile there. They are slow, read-only with respect to
// query-visible state, and deterministic per sample, so they run outside
// the service lock; the locked apply then finds each profile interned.
// A feature hash collision fails the execution, which quarantines the
// sample.
func (s *Service) runExecs(samples []*dataset.Sample) []outcome {
	outs := make([]outcome, len(samples))
	parallelEach(len(samples), s.cfg.Parallelism, func(i int) {
		p, d, err := s.enricher.ExecuteSample(samples[i])
		var set *behavior.Set
		if err == nil {
			set, err = behavior.Intern(p)
		}
		outs[i] = outcome{profile: p, set: set, degraded: d, err: err}
	})
	return outs
}

// applyExecResults lands one round of execution outcomes: successes
// join (or amend) the B-clusterer and leave the retry pool, failures
// are classified transient/permanent. Callers hold the write lock.
func (s *Service) applyExecResults(samples []*dataset.Sample, outs []outcome) {
	for i, smp := range samples {
		if outs[i].err != nil {
			s.noteEnrichFailure(smp.MD5, retryExecute, outs[i].err)
			continue
		}
		if s.retry.get(smp.MD5) != nil {
			s.retrySuccesses++
			s.retry.remove(smp.MD5)
		}
		s.executed++
		if outs[i].degraded {
			s.degraded++
		}
		smp.Profile = outs[i].set.Names()
		if s.b.Has(smp.MD5) {
			if err := s.b.Amend(smp.MD5, outs[i].profile); err != nil {
				// Already verified: its links are frozen. The refreshed
				// profile is recorded on the sample; the membership
				// keeps the original execution, and we surface the
				// divergence.
				s.staleProfiles++
				s.recordError(err.Error())
			}
			continue
		}
		if err := s.b.Add(s.bInput(smp, outs[i].profile)); err != nil {
			s.enrichErrors++
			s.recordError(err.Error())
			continue
		}
		s.epochCheck()
	}
}

// drainRetries retries due label-stage entries inline (the oracle is
// cheap) and returns the samples needing a sandbox run — due
// execute-stage entries plus just-relabeled executables — with the set
// of their MD5s. force ignores backoff deadlines. Callers hold the
// write lock.
func (s *Service) drainRetries(force bool) ([]*dataset.Sample, map[string]bool) {
	var out []*dataset.Sample
	seen := make(map[string]bool)
	for _, e := range s.retry.due(s.applySeq, force) {
		smp := s.ds.Sample(e.md5)
		if smp == nil {
			// Unreachable: entries are only created for known samples.
			s.retry.remove(e.md5)
			continue
		}
		switch e.stage {
		case retryLabel:
			s.retryAttempts++
			if err := s.enricher.LabelSample(smp); err != nil {
				s.enrichErrors++
				s.handleRetryFailure(e, err)
				continue
			}
			s.retrySuccesses++
			s.retry.remove(e.md5)
			if smp.Executable {
				out = append(out, smp)
				seen[smp.MD5] = true
			}
		case retryExecute:
			s.retryAttempts++
			out = append(out, smp)
			seen[smp.MD5] = true
		}
	}
	return out, seen
}

// drainAllRetries retries every pooled sample, deadlines ignored, in
// rounds until the pool is empty: each round every entry either
// succeeds or burns one attempt, so the loop ends within MaxAttempts
// rounds. Flush calls it so a flushed service has nothing in flight.
func (s *Service) drainAllRetries() {
	for {
		s.mu.Lock()
		if s.retry.len() == 0 {
			s.mu.Unlock()
			return
		}
		execList, _ := s.drainRetries(true)
		s.mu.Unlock()
		outs := s.runExecs(execList)
		s.mu.Lock()
		s.applyExecResults(execList, outs)
		s.mu.Unlock()
	}
}

// noteEnrichFailure classifies one enrichment failure: pooled samples
// burn an attempt, fresh transient failures enter the retry pool with
// backoff, and permanent failures quarantine the sample. Callers hold
// the write lock.
func (s *Service) noteEnrichFailure(md5, stage string, err error) {
	s.enrichErrors++
	if e := s.retry.get(md5); e != nil {
		s.handleRetryFailure(e, err)
		return
	}
	if !enrich.IsTransient(err) || s.cfg.Retry.MaxAttempts <= 1 {
		s.quarantine(md5, err)
		return
	}
	s.retry.add(&retryEntry{
		md5:      md5,
		stage:    stage,
		attempts: 1,
		nextSeq:  s.applySeq + s.backoff(md5, 1),
		lastErr:  err.Error(),
	})
	s.retryScheduled++
	s.recordError(err.Error())
}

// handleRetryFailure burns one attempt of a pooled entry: transient
// failures reschedule with backoff until the budget runs out,
// non-transient ones quarantine immediately. Callers hold the write
// lock.
func (s *Service) handleRetryFailure(e *retryEntry, err error) {
	e.attempts++
	e.lastErr = err.Error()
	if !enrich.IsTransient(err) || e.attempts >= s.cfg.Retry.MaxAttempts {
		s.retry.remove(e.md5)
		s.quarantine(e.md5, err)
		return
	}
	e.nextSeq = s.applySeq + s.backoff(e.md5, e.attempts)
	s.recordError(err.Error())
}

// quarantine gives up on a sample's enrichment. A sample that already
// holds an integrated profile (a failed refresh) keeps its membership
// and is only flagged stale; anything else is excluded from
// B-clustering and recorded with its final error. Callers hold the
// write lock.
func (s *Service) quarantine(md5 string, err error) {
	if s.b.Has(md5) {
		s.staleProfiles++
		s.recordError("profile refresh abandoned for " + md5 + ": " + err.Error())
		return
	}
	s.quarantined[md5] = err.Error()
	s.recordError("quarantined " + md5 + ": " + err.Error())
}

func (s *Service) isQuarantined(md5 string) bool {
	_, ok := s.quarantined[md5]
	return ok
}

// recordError appends to the bounded recent-errors ring. Callers hold
// the write lock.
func (s *Service) recordError(msg string) {
	const ringCap = 16
	entry := fmt.Sprintf("seq %d: %s", s.applySeq, msg)
	if len(s.recentErrors) >= ringCap {
		copy(s.recentErrors, s.recentErrors[1:])
		s.recentErrors[len(s.recentErrors)-1] = entry
		return
	}
	s.recentErrors = append(s.recentErrors, entry)
}

// epochCheck fires any epoch whose pending pool reached the threshold.
// While the service is degraded, epochs are deferred instead: instances
// keep classifying via the fast path and samples keep parking, so the
// expensive rebuild/verification work is shed until pressure releases
// (observePressure drains it) or the next Flush forces it. Callers hold
// the write lock.
func (s *Service) epochCheck() {
	if s.cfg.EpochSize <= 0 {
		return
	}
	if s.degradedMode {
		due := s.b.Pending() >= s.cfg.EpochSize
		for _, d := range s.dims {
			due = due || d.pendingCount >= s.cfg.EpochSize
		}
		if due {
			s.epochsDeferred++
		}
		return
	}
	for _, d := range s.dims {
		if d.pendingCount >= s.cfg.EpochSize {
			d.rebuild()
		}
	}
	if s.b.Pending() >= s.cfg.EpochSize {
		s.b.Verify()
		s.harvestDefense()
	}
}

// applyFlush retries every pooled sample to completion (success or
// quarantine), then forces the final epochs: a flushed service has
// nothing in flight. Under defenses that includes quarantine — held and
// parked samples are drained into permanent singletons, so a flushed
// defended service reaches a stable state with every sample queryable
// and none silently dropped.
func (s *Service) applyFlush() {
	s.drainAllRetries()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, d := range s.dims {
		if d.eng.Len() > d.builtLen {
			d.rebuild()
		}
	}
	s.b.Verify()
	s.harvestDefense()
	if s.defended() {
		s.b.DrainHeld()
	}
	s.flushes++
}

// validateEvent screens an event for the invariants the EPM engine
// enforces, so a malformed event is rejected at the door instead of
// poisoning a later epoch rebuild. The first return value is the
// rejection-reason slug surfaced in Stats.RejectedByReason.
func (s *Service) validateEvent(e dataset.Event) (string, error) {
	if e.ID == "" {
		return "empty-id", fmt.Errorf("stream: event with empty ID")
	}
	if e.Attacker == "" || e.Sensor == "" {
		return "missing-source", fmt.Errorf("stream: event %s needs attacker and sensor", e.ID)
	}
	check := func(in epm.Instance) error {
		for _, v := range in.Values {
			if v == epm.Wildcard {
				return fmt.Errorf("stream: event %s uses reserved value %q", e.ID, epm.Wildcard)
			}
		}
		return nil
	}
	if err := check(e.EpsilonInstance()); err != nil {
		return "reserved-value", err
	}
	if err := check(e.PiInstance()); err != nil {
		return "reserved-value", err
	}
	if in, ok := e.MuInstance(); ok {
		if err := check(in); err != nil {
			return "reserved-value", err
		}
	}
	return "", nil
}

// parallelEach runs fn(i) for i in [0,n) on a bounded worker pool; with
// workers <= 1 it runs inline.
func parallelEach(n, workers int, fn func(i int)) {
	if n == 0 {
		return
	}
	if workers <= 0 || workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// dimension is the incremental state of one EPM dimension. The epoch
// engine (epm.Incremental) owns the instance log, the per-feature value
// sketches, and the pattern groups; the dimension layers the epoch's
// stable cluster IDs and provisional fast-path classifications on top.
type dimension struct {
	schema     epm.Schema
	thresholds epm.Thresholds

	eng          *epm.Incremental
	clustering   *epm.Clustering // nil before the first epoch
	epoch        int
	builtLen     int // eng.Len() at the last epoch
	pendingCount int

	ids   []int64 // stable ID of each epoch cluster (ClusterIDs)
	idErr error   // the collision ClusterIDs found among them, if any
	// provAssign maps only the instances the fast path classified since
	// the last epoch; epoch-built instances resolve through the engine
	// (assignOf), so the dimension never mirrors the corpus-sized
	// instance -> cluster table the engine already maintains.
	provAssign  map[string]int // instance ID -> epoch cluster index
	provisional []int          // epoch cluster index -> members classified since the last epoch
}

func newDimension(schema epm.Schema, th epm.Thresholds) (*dimension, error) {
	eng, err := epm.NewIncremental(schema, th)
	if err != nil {
		return nil, err
	}
	return &dimension{
		schema:     schema,
		thresholds: th,
		eng:        eng,
		provAssign: make(map[string]int),
	}, nil
}

// add records one instance: classified provisionally when the current
// pattern set matches it, pooled as pending otherwise. An engine
// rejection (impossible for instances that passed validateEvent and the
// dataset's duplicate screen) leaves the dimension unchanged. The
// dataset screen is also why the trusted engine path is sound here:
// every instance ID is an event ID the store has already deduplicated.
func (d *dimension) add(in epm.Instance) error {
	if err := d.eng.AddTrusted(in); err != nil {
		return err
	}
	if d.clustering != nil {
		if _, ci, ok := d.clustering.Classify(in.Values); ok {
			d.provAssign[in.ID] = ci
			d.provisional[ci]++
			return nil
		}
	}
	d.pendingCount++
	return nil
}

// rebuild runs one epoch. The engine integrates only the instances added
// since the last epoch (falling back to a full regroup when an invariant
// threshold crossing invalidates the pattern tree), so the epoch cost
// tracks new arrivals, not corpus size.
func (d *dimension) rebuild() {
	c, _ := d.eng.Epoch()
	d.clustering = c
	d.ids, d.idErr = ClusterIDs(c)
	d.epoch++
	d.builtLen = d.eng.Len()
	d.pendingCount = 0
	d.provisional = make([]int, len(c.Clusters))
	clear(d.provAssign)
}

// assignOf resolves the stable cluster ID of an instance: provisional
// fast-path classifications first, then the engine's epoch assignment.
func (d *dimension) assignOf(id string) (int64, bool) {
	if ci, ok := d.provAssign[id]; ok {
		return d.ids[ci], true
	}
	if d.clustering == nil {
		return 0, false
	}
	ci := d.clustering.ClusterOf(id)
	if ci < 0 {
		return 0, false
	}
	return d.ids[ci], true
}

// ClusterIDs returns the stable ID of each cluster of c: the first 53
// bits of the SHA-256 of the dimension name, a NUL byte and the pattern
// key. The ID depends on nothing but the pattern, so every epoch, shard
// count, recovery and replica serves the same one; below 2^53 it reads
// exactly as a JSON number in JavaScript too. Two clusters sharing an ID
// are an *IDCollisionError, returned with every ID computed.
func ClusterIDs(c *epm.Clustering) ([]int64, error) {
	ids := make([]int64, len(c.Clusters))
	seen := make(map[int64]int, len(c.Clusters))
	buf := append([]byte(c.Schema.Dimension), 0)
	n := len(buf)
	var err error
	for i := range c.Clusters {
		buf = append(buf[:n], c.Clusters[i].Pattern.Key()...)
		sum := sha256.Sum256(buf)
		ids[i] = int64(binary.BigEndian.Uint64(sum[:]) >> 11)
		if j, ok := seen[ids[i]]; ok && err == nil {
			err = &IDCollisionError{Dimension: c.Schema.Dimension, ID: ids[i],
				Keys: [2]string{c.Clusters[j].Pattern.Key(), c.Clusters[i].Pattern.Key()}}
		}
		seen[ids[i]] = i
	}
	return ids, err
}

// IDCollisionError reports two patterns of one dimension whose stable
// cluster IDs coincide.
type IDCollisionError struct {
	Dimension string
	ID        int64
	Keys      [2]string
}

func (e *IDCollisionError) Error() string {
	return fmt.Sprintf("stream: %s patterns %q and %q share cluster ID %d", e.Dimension, e.Keys[0], e.Keys[1], e.ID)
}

// clusterViews snapshots the dimension's clusters.
func (d *dimension) clusterViews() []EPMClusterView {
	if d.clustering == nil {
		return nil
	}
	out := make([]EPMClusterView, 0, len(d.clustering.Clusters))
	for i := range d.clustering.Clusters {
		cl := &d.clustering.Clusters[i]
		out = append(out, EPMClusterView{
			StableID:  d.ids[i],
			EpochID:   cl.ID,
			Pattern:   cl.Pattern.Values,
			Size:      cl.Size() + d.provisional[i],
			Attackers: cl.Attackers,
			Sensors:   cl.Sensors,
		})
	}
	return out
}

// Dimension name constants accepted by the query methods.
const (
	DimEpsilon = "epsilon"
	DimPi      = "pi"
	DimMu      = "mu"
)

// dim resolves a dimension name ("epsilon"/"pi"/"mu" or "e"/"p"/"m").
func (s *Service) dim(name string) (*dimension, error) {
	switch name {
	case DimEpsilon, "e":
		return s.dims[0], nil
	case DimPi, "p":
		return s.dims[1], nil
	case DimMu, "m":
		return s.dims[2], nil
	}
	return nil, fmt.Errorf("stream: unknown dimension %q", name)
}

// EPMClusterView is one cluster of an EPM dimension snapshot.
type EPMClusterView struct {
	// StableID is the pattern's 53-bit hash (ClusterIDs): the same on
	// every epoch and deployment shape.
	StableID int64 `json:"stable_id"`
	// EpochID is the dense largest-first index within the current epoch.
	EpochID int `json:"epoch_id"`
	// Pattern is the invariant tuple (wildcards included).
	Pattern []string `json:"pattern"`
	// Size counts epoch members plus provisional classifications since.
	Size int `json:"size"`
	// Attackers and Sensors count distinct sources among epoch members.
	Attackers int `json:"attackers"`
	Sensors   int `json:"sensors"`
}

// EPMView is a snapshot of one EPM dimension.
type EPMView struct {
	Dimension string `json:"dimension"`
	Epoch     int    `json:"epoch"`
	Instances int    `json:"instances"`
	Pending   int    `json:"pending"`
	// Degraded marks the snapshot as served under pressure: epoch
	// rebuilds are deferred, so Clusters is the last epoch's view plus
	// provisional fast-path classifications.
	Degraded bool             `json:"degraded"`
	Clusters []EPMClusterView `json:"clusters"`
}

// EPMClusters snapshots the named dimension ("epsilon"/"pi"/"mu" or
// single-letter aliases).
func (s *Service) EPMClusters(name string) (EPMView, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, err := s.dim(name)
	if err != nil {
		return EPMView{}, err
	}
	if d.idErr != nil {
		return EPMView{}, d.idErr
	}
	return EPMView{
		Dimension: d.schema.Dimension,
		Epoch:     d.epoch,
		Instances: d.eng.Len(),
		Pending:   d.pendingCount,
		Degraded:  s.degradedMode,
		Clusters:  d.clusterViews(),
	}, nil
}

// BClusterView is one behavioral cluster in a snapshot.
type BClusterView struct {
	// ID is dense largest-first within this snapshot; Representative —
	// the lexicographically smallest member MD5 — is the stable handle.
	ID             int    `json:"id"`
	Representative string `json:"representative"`
	Size           int    `json:"size"`
}

// BView is a snapshot of the behavioral clustering.
type BView struct {
	Samples int `json:"samples"`
	Pending int `json:"pending"`
	Epochs  int `json:"epochs"`
	// Degraded marks the snapshot as served under pressure: B
	// verification epochs are deferred, so parked samples stay
	// singletons longer than usual.
	Degraded bool           `json:"degraded"`
	Clusters []BClusterView `json:"clusters"`
}

// BClusters snapshots the behavioral clustering; parked samples appear
// as singletons.
func (s *Service) BClusters() BView {
	s.mu.RLock()
	defer s.mu.RUnlock()
	res := s.bResult()
	out := make([]BClusterView, len(res.Clusters))
	for i, c := range res.Clusters {
		out[i] = BClusterView{ID: c.ID, Representative: c.Members[0], Size: c.Size()}
	}
	return BView{
		Samples:  s.b.Samples(),
		Pending:  s.b.Pending(),
		Epochs:   s.b.Epochs(),
		Degraded: s.degradedMode,
		Clusters: out,
	}
}

// SampleView is the per-sample query result.
type SampleView struct {
	MD5             string    `json:"md5"`
	FirstSeen       time.Time `json:"first_seen"`
	Events          int       `json:"events"`
	Executable      bool      `json:"executable"`
	AVLabel         string    `json:"av_label,omitempty"`
	ProfileFeatures int       `json:"profile_features"`
	// BPending reports the sample is parked awaiting verification.
	BPending bool `json:"b_pending"`
	// BStatus is the defense disposition (clustered, held, parked,
	// drained); empty when the defenses are off.
	BStatus string `json:"b_status,omitempty"`
	// Client is the ingest identity that first delivered the sample;
	// populated when the provenance ledger is maintained.
	Client string `json:"client,omitempty"`
	// BRepresentative and BSize describe the sample's current B-cluster.
	BRepresentative string `json:"b_representative,omitempty"`
	BSize           int    `json:"b_size"`
	// MClusters lists the stable μ-cluster IDs of the sample's events.
	MClusters []int64 `json:"m_clusters"`
}

// Sample queries one sample by MD5.
func (s *Service) Sample(md5 string) (SampleView, bool) {
	return s.SampleIn(md5, nil)
}

// SampleIn is Sample with the sample's B-cluster and μ-cluster IDs
// resolved in views instead of the service's own state (when views is
// non-nil); the per-sample facts always come from this service.
func (s *Service) SampleIn(md5 string, views Membership) (SampleView, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	smp := s.ds.Sample(md5)
	if smp == nil {
		return SampleView{}, false
	}
	v := SampleView{
		MD5:             smp.MD5,
		FirstSeen:       smp.FirstSeen,
		Events:          smp.Events,
		Executable:      smp.Executable,
		AVLabel:         smp.AVLabel,
		ProfileFeatures: len(smp.Profile),
	}
	if s.b.Has(md5) {
		if views != nil {
			v.BRepresentative, v.BSize = views.BCluster(md5)
		} else {
			res := s.bResult()
			if i := res.ClusterOf(md5); i >= 0 {
				v.BRepresentative = res.Clusters[i].Members[0]
				v.BSize = res.Clusters[i].Size()
			}
		}
		v.BPending = s.b.Pending() > 0 && v.BSize == 1
		if s.defended() {
			if st, ok := s.b.SampleStatus(md5); ok {
				v.BStatus = st.String()
			}
		}
	}
	if c, ok := s.sampleClient[md5]; ok && c != "" {
		v.Client = c
	}
	v.MClusters = []int64{}
	for _, e := range s.ds.EventsOfSample(md5) {
		var sid int64
		var ok bool
		if views != nil {
			sid, ok = views.MCluster(e.ID)
		} else {
			sid, ok = s.dims[2].assignOf(e.ID)
		}
		if ok {
			v.MClusters = append(v.MClusters, sid)
		}
	}
	slices.Sort(v.MClusters)
	v.MClusters = slices.Compact(v.MClusters)
	return v, true
}

// DimStats summarizes one EPM dimension for Stats. DeltaEpochs and
// FullRegroups split the engine-level epoch work (a recovery replays the
// built prefix as one full regroup, so the split is path-dependent in a
// way Epoch is not).
type DimStats struct {
	Epoch        int `json:"epoch"`
	Clusters     int `json:"clusters"`
	Instances    int `json:"instances"`
	Pending      int `json:"pending"`
	DeltaEpochs  int `json:"delta_epochs"`
	FullRegroups int `json:"full_regroups"`
}

// BStats summarizes the behavioral clustering for Stats.
type BStats struct {
	Samples        int `json:"samples"`
	Pending        int `json:"pending"`
	Epochs         int `json:"epochs"`
	Clusters       int `json:"clusters"`
	CandidatePairs int `json:"candidate_pairs"`
	Links          int `json:"links"`
}

// Stats is the service-wide counter snapshot.
type Stats struct {
	// Role is the replication role: standalone, primary, or replica.
	Role     string `json:"role"`
	UptimeMS int64  `json:"uptime_ms"`
	// Replicated counts WAL records a replica applied from its primary.
	Replicated        int            `json:"replicated,omitempty"`
	Events            int            `json:"events"`
	Rejected          int            `json:"rejected"`
	RejectedByReason  map[string]int `json:"rejected_by_reason,omitempty"`
	Duplicates        int            `json:"duplicates"`
	Samples           int            `json:"samples"`
	ExecutableSamples int            `json:"executable_samples"`
	Executed          int            `json:"executed"`
	Degraded          int            `json:"degraded"`
	EnrichErrors      int            `json:"enrich_errors"`
	StaleProfiles     int            `json:"stale_profiles"`
	Flushes           int            `json:"flushes"`
	RecentErrors      []string       `json:"recent_errors,omitempty"`
	QueueCap          int            `json:"queue_cap"`
	QueueDepth        int            `json:"queue_depth"`
	MaxQueueDepth     int            `json:"max_queue_depth"`
	// Fatal carries the storage-failure error once persistent durability
	// failure moved the service to read-only mode; empty while healthy.
	// Storage carries the full durability-health ledger (read-only mode,
	// self-heal repairs, checkpoint generations, scrub results).
	Fatal     string         `json:"fatal,omitempty"`
	Storage   StorageStats   `json:"storage"`
	Admission AdmissionStats `json:"admission"`
	Retry     RetryStats     `json:"retry"`
	WAL       WALStats       `json:"wal"`
	Epsilon   DimStats       `json:"epsilon"`
	Pi        DimStats       `json:"pi"`
	Mu        DimStats       `json:"mu"`
	B         BStats         `json:"b"`
	// Defense carries the poisoning-defense counters (held and parked
	// samples, quarantined merges, releases, drains); nil when the
	// defenses are off.
	Defense *bcluster.DefenseStats `json:"defense,omitempty"`
	// Clients is the per-client admission and provenance ledger,
	// populated when Config.StatsClients is on.
	Clients []ClientStat `json:"clients,omitempty"`
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	dimStats := func(d *dimension) DimStats {
		n := 0
		if d.clustering != nil {
			n = len(d.clustering.Clusters)
		}
		return DimStats{
			Epoch:        d.epoch,
			Clusters:     n,
			Instances:    d.eng.Len(),
			Pending:      d.pendingCount,
			DeltaEpochs:  d.eng.DeltaEpochs(),
			FullRegroups: d.eng.FullRegroups(),
		}
	}
	bs := s.b.Stats()
	var byReason map[string]int
	if len(s.rejectedByReason) > 0 {
		byReason = make(map[string]int, len(s.rejectedByReason))
		for k, v := range s.rejectedByReason {
			byReason[k] = v
		}
	}
	var recent []string
	if len(s.recentErrors) > 0 {
		recent = append(recent, s.recentErrors...)
	}
	walStats := WALStats{
		Enabled:                    s.wal != nil,
		Appends:                    s.walAppends,
		AppendErrors:               s.walAppendErrors,
		Checkpoints:                s.checkpoints,
		LastCheckpointSeq:          s.lastCkptSeq,
		LastCheckpointPayloadBytes: s.lastCkptPayload,
		RecoveredRecords:           s.recoveredRecords,
	}
	if s.wal != nil {
		walStats.LastSeq = s.wal.LastSeq()
	}
	var fatal string
	if err := s.StorageFailure(); err != nil {
		fatal = err.Error()
	}
	var defense *bcluster.DefenseStats
	if s.defended() {
		d := s.b.DefenseStats()
		defense = &d
	}
	return Stats{
		Defense:           defense,
		Clients:           s.clientStats(),
		Role:              s.role,
		UptimeMS:          time.Since(s.start).Milliseconds(),
		Replicated:        s.replicated,
		Fatal:             fatal,
		Storage:           s.storageStats(),
		Admission:         s.admissionStats(),
		Events:            s.events,
		Rejected:          s.rejected,
		RejectedByReason:  byReason,
		Duplicates:        s.duplicates,
		Samples:           s.ds.SampleCount(),
		ExecutableSamples: s.ds.ExecutableSampleCount(),
		Executed:          s.executed,
		Degraded:          s.degraded,
		EnrichErrors:      s.enrichErrors,
		StaleProfiles:     s.staleProfiles,
		Flushes:           s.flushes,
		RecentErrors:      recent,
		QueueCap:          cap(s.in),
		QueueDepth:        len(s.in),
		MaxQueueDepth:     s.maxQueue,
		Retry: RetryStats{
			Pending:     s.retry.len(),
			Scheduled:   s.retryScheduled,
			Attempts:    s.retryAttempts,
			Successes:   s.retrySuccesses,
			Quarantined: len(s.quarantined),
		},
		WAL:     walStats,
		Epsilon: dimStats(s.dims[0]),
		Pi:      dimStats(s.dims[1]),
		Mu:      dimStats(s.dims[2]),
		B: BStats{
			Samples:        s.b.Samples(),
			Pending:        s.b.Pending(),
			Epochs:         s.b.Epochs(),
			Clusters:       s.b.Components(),
			CandidatePairs: bs.CandidatePairs,
			Links:          bs.Links,
		},
	}
}

// Counts mirrors core.Results.Counts for convergence checks: events,
// samples, executable samples, and the E/P/M/B cluster counts.
func (s *Service) Counts() (events, samples, executable, e, p, m, b int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := func(d *dimension) int {
		if d.clustering == nil {
			return 0
		}
		return len(d.clustering.Clusters)
	}
	return s.ds.EventCount(), s.ds.SampleCount(), s.ds.ExecutableSampleCount(),
		n(s.dims[0]), n(s.dims[1]), n(s.dims[2]), s.b.Components()
}

// EPMClustering exposes the named dimension's current epoch clustering
// for equivalence tests and reporting. The returned clustering is the
// live object: callers must treat it as read-only and must not retain it
// across concurrent ingestion.
func (s *Service) EPMClustering(name string) (*epm.Clustering, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, err := s.dim(name)
	if err != nil {
		return nil, err
	}
	return d.clustering, nil
}

// BResult returns the current behavioral partition (see
// bcluster.Incremental.Result). It is shared with later queries until
// the partition moves: callers must treat it as read-only.
func (s *Service) BResult() *bcluster.Result {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bResult()
}

// bResultKey is the state b.Result reads: the engine, with its Samples
// and Epochs counters. Only Add (which moves Samples) and Verify (which
// moves Epochs; with nothing parked it is a no-op) change the sample
// IDs, the union-find or the probe stats. Amend and DrainHeld touch only
// a parked sample's set and the defense statuses, which Result does not
// read, and a restore replaces the engine. The key holds the engine
// itself, so a later engine cannot reuse its address.
type bResultKey struct {
	b               *bcluster.Incremental
	samples, epochs int
}

// bResult returns b.Result(), assembled again only when the key moved.
// Callers hold at least the read lock.
func (s *Service) bResult() *bcluster.Result {
	key := bResultKey{s.b, s.b.Samples(), s.b.Epochs()}
	s.bresMu.Lock()
	defer s.bresMu.Unlock()
	if s.bres == nil || s.bresKey != key {
		s.bres, s.bresKey = s.b.Result(), key
	}
	return s.bres
}

// Dataset exposes the accumulated dataset for reporting after ingestion
// has stopped; it must not be used concurrently with live producers.
func (s *Service) Dataset() *dataset.Dataset {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ds
}
