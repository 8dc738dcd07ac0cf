package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/wal"
)

// FollowerConfig parameterizes a read replica.
type FollowerConfig struct {
	// Primary is the primary's base URL (it must serve /v1/repl/*).
	Primary string
	// Stream must match the primary's analysis parameters (epoch size,
	// thresholds, clustering config) — the replica re-derives state by
	// running the primary's records through the same apply path, the
	// contract local recovery already imposes. Durability and admission
	// are ignored (forced off per replica service).
	Stream stream.Config
	// Enricher must be the same deterministic enricher the primary runs.
	Enricher stream.Enricher
	// Poll is the tail-loop interval; 0 selects 500ms. Errors back off
	// to 8x Poll.
	Poll time.Duration
	// MaxLag bounds staleness for readiness: when the follower has not
	// been fully caught up within MaxLag, Ready reports an error and
	// /readyz flips to 503. 0 keeps the replica ready whenever
	// bootstrapped.
	MaxLag time.Duration
	// Client overrides the HTTP client (tests); nil uses a default with
	// a 30s timeout.
	Client *http.Client
}

// errRestart reports that the primary's shipping window moved past the
// follower (segments garbage-collected, shard count changed): the only
// recovery is a fresh bootstrap from the newest checkpoint.
var errRestart = errors.New("replica: shipping window moved; re-bootstrap")

// Follower is a read replica: it bootstraps every shard from the
// primary's newest checkpoint, replays the shipped WAL suffix through
// the replica apply path, tails new records on a polling loop, and
// serves the query endpoints. Writes are refused with
// stream.ErrReadOnly.
type Follower struct {
	cfg    FollowerConfig
	client *http.Client

	mu sync.RWMutex
	// state is the current generation: a coordinator over one
	// bootstrapped set of replica services, serving them as a primary's
	// coordinator serves its own shards. A re-bootstrap builds a whole
	// new generation and swaps it in, so queries never observe a
	// half-rebuilt state.
	state      *shard.Coordinator
	applied    []uint64
	target     []uint64
	caughtUp   bool
	caughtUpAt time.Time
	started    time.Time
	lastErr    string
	bootstraps int

	stop     chan struct{}
	loopDone chan struct{}
	closed   sync.Once
}

// NewFollower validates the config; call Bootstrap before serving and
// Start to begin tailing.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Primary == "" {
		return nil, errors.New("replica: empty primary URL")
	}
	if cfg.Enricher == nil {
		return nil, errors.New("replica: nil enricher")
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 500 * time.Millisecond
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return &Follower{
		cfg:     cfg,
		client:  client,
		started: time.Now(),
		stop:    make(chan struct{}),
	}, nil
}

// Bootstrap performs the initial catch-up: fetch the manifest, restore
// every shard from its newest checkpoint, and replay the advertised
// WAL suffix. When the primary checkpoints and garbage-collects
// underneath the bootstrap it restarts from the then-newer checkpoint,
// so each retry strictly advances.
func (f *Follower) Bootstrap(ctx context.Context) error {
	for attempt := 1; ; attempt++ {
		err := f.bootstrapOnce(ctx)
		if err == nil {
			return nil
		}
		if !errors.Is(err, errRestart) || attempt >= 10 || ctx.Err() != nil {
			return err
		}
	}
}

func (f *Follower) bootstrapOnce(ctx context.Context) error {
	man, err := f.fetchManifest(ctx)
	if err != nil {
		return err
	}
	n := man.Shards
	if n < 1 || len(man.PerShard) != n {
		return fmt.Errorf("replica: malformed manifest (%d shards, %d entries)", n, len(man.PerShard))
	}
	svcs := make([]*stream.Service, 0, n)
	closeAll := func() {
		for _, s := range svcs {
			s.Close()
		}
	}
	for i := 0; i < n; i++ {
		svc, err := stream.NewReplica(f.cfg.Stream, f.cfg.Enricher)
		if err != nil {
			closeAll()
			return err
		}
		svcs = append(svcs, svc)
	}
	for i, sm := range man.PerShard {
		body, err := f.fetchCheckpoint(ctx, i)
		switch {
		case err == nil:
			err := svcs[i].RestoreSnapshot(body)
			body.Close()
			if err != nil {
				closeAll()
				return err
			}
		case errors.Is(err, ErrNoCheckpoint):
			// Young shard: replay its WAL from seq 1.
		default:
			closeAll()
			return err
		}
		if err := f.catchUp(ctx, svcs[i], sm); err != nil {
			closeAll()
			return err
		}
	}
	st, err := shard.NewReplicaSet(svcs)
	if err != nil {
		closeAll()
		return err
	}
	f.mu.Lock()
	old := f.state
	f.state = st
	f.bootstraps++
	f.mu.Unlock()
	f.noteProgress(man, st)
	if old != nil {
		old.Close()
	}
	return nil
}

// Start launches the tail loop.
func (f *Follower) Start() {
	f.loopDone = make(chan struct{})
	go f.loop()
}

func (f *Follower) loop() {
	defer close(f.loopDone)
	delay := f.cfg.Poll
	for {
		select {
		case <-f.stop:
			return
		case <-time.After(delay):
		}
		if err := f.poll(context.Background()); err != nil {
			f.noteError(err)
			if delay < 8*f.cfg.Poll {
				delay *= 2
			}
		} else {
			delay = f.cfg.Poll
		}
	}
}

// poll fetches the manifest and catches every shard up to it. A
// shipping-window miss (garbage-collected segment, shard-count change)
// triggers a full re-bootstrap; the generation swap keeps queries
// consistent throughout.
func (f *Follower) poll(ctx context.Context) error {
	man, err := f.fetchManifest(ctx)
	if err != nil {
		return err
	}
	f.mu.RLock()
	st := f.state
	f.mu.RUnlock()
	if st == nil || len(man.PerShard) != st.Shards() {
		return f.bootstrapOnce(ctx)
	}
	for i, sm := range man.PerShard {
		if err := f.catchUp(ctx, st.Shard(i), sm); err != nil {
			if errors.Is(err, errRestart) {
				return f.bootstrapOnce(ctx)
			}
			return err
		}
	}
	f.noteProgress(man, st)
	return nil
}

// catchUp replays one shard's advertised records past the service's
// applied seq. Each iteration either advances or returns, so a torn
// stream cannot loop; the remainder is retried on the next poll.
func (f *Follower) catchUp(ctx context.Context, svc *stream.Service, sm ShardManifest) error {
	for {
		next := svc.AppliedSeq() + 1
		if sm.LastSeq == 0 || next > sm.LastSeq {
			return nil
		}
		seg := findSegment(sm.Segments, next)
		if seg == nil {
			// Every segment holding next is gone from the manifest: the
			// primary's GC overtook this replica.
			return errRestart
		}
		applied, err := f.fetchFrames(ctx, svc, sm.Shard, seg.FirstSeq, next)
		if err != nil {
			return err
		}
		if applied == 0 {
			return nil
		}
	}
}

func findSegment(segs []SegmentManifest, seq uint64) *SegmentManifest {
	for i := range segs {
		if segs[i].LastSeq < segs[i].FirstSeq {
			continue // no complete records yet
		}
		if segs[i].FirstSeq <= seq && seq <= segs[i].LastSeq {
			return &segs[i]
		}
	}
	return nil
}

// fetchFrames streams one segment from seq `from` and applies every
// verified frame. A 404 means the segment was garbage-collected
// (errRestart); a torn stream keeps what was applied — frames are
// self-delimiting, so the next poll resumes exactly after the last
// applied record.
func (f *Follower) fetchFrames(ctx context.Context, svc *stream.Service, shardIdx int, first, from uint64) (int, error) {
	resp, err := f.get(ctx, fmt.Sprintf("/v1/repl/segment/%d/%d?from=%d", shardIdx, first, from))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return 0, errRestart
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("replica: segment %d/%d: HTTP %d", shardIdx, first, resp.StatusCode)
	}
	fr := wal.NewFrameReader(resp.Body, from)
	applied := 0
	for {
		seq, payload, err := fr.Next()
		if err == io.EOF {
			return applied, nil
		}
		if err != nil {
			if applied > 0 {
				return applied, nil
			}
			return 0, fmt.Errorf("replica: shard %d segment %d: %w", shardIdx, first, err)
		}
		if err := svc.ApplyReplicated(seq, payload); err != nil {
			var gap *stream.ReplicationGapError
			if errors.As(err, &gap) {
				return applied, errRestart
			}
			if errors.Is(err, stream.ErrBadRecord) {
				// A record that passed frame CRCs but won't decode: the
				// stream is poisoned at this seq, and retrying the same
				// fetch would wedge the tail loop forever. Re-bootstrap
				// from the newest checkpoint, whose coverage will move
				// past the bad record.
				return applied, errRestart
			}
			return applied, err
		}
		applied++
	}
}

func (f *Follower) fetchManifest(ctx context.Context) (Manifest, error) {
	resp, err := f.get(ctx, "/v1/repl/segments")
	if err != nil {
		return Manifest{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Manifest{}, fmt.Errorf("replica: manifest: HTTP %d (is the primary running with -repl?)", resp.StatusCode)
	}
	var man Manifest
	if err := json.NewDecoder(resp.Body).Decode(&man); err != nil {
		return Manifest{}, fmt.Errorf("replica: manifest: %w", err)
	}
	return man, nil
}

// fetchCheckpoint opens the shard's checkpoint stream; the caller
// restores from it and closes it.
func (f *Follower) fetchCheckpoint(ctx context.Context, shardIdx int) (io.ReadCloser, error) {
	resp, err := f.get(ctx, fmt.Sprintf("/v1/repl/checkpoint/%d", shardIdx))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			return nil, ErrNoCheckpoint
		}
		return nil, fmt.Errorf("replica: checkpoint %d: HTTP %d", shardIdx, resp.StatusCode)
	}
	return resp.Body, nil
}

func (f *Follower) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(f.cfg.Primary, "/")+path, nil)
	if err != nil {
		return nil, err
	}
	return f.client.Do(req)
}

// noteProgress records the post-poll lag state: per-shard applied and
// target seqs, and — when fully caught up — the staleness anchor.
func (f *Follower) noteProgress(man Manifest, st *shard.Coordinator) {
	applied := make([]uint64, st.Shards())
	for i := range applied {
		applied[i] = st.Shard(i).AppliedSeq()
	}
	target := make([]uint64, len(man.PerShard))
	caught := true
	for i, sm := range man.PerShard {
		target[i] = sm.LastSeq
		if i < len(applied) && applied[i] < sm.LastSeq {
			caught = false
		}
	}
	f.mu.Lock()
	f.applied, f.target = applied, target
	f.caughtUp = caught
	if caught {
		f.caughtUpAt = time.Now()
	}
	f.lastErr = ""
	f.mu.Unlock()
}

func (f *Follower) noteError(err error) {
	f.mu.Lock()
	f.lastErr = err.Error()
	f.caughtUp = false
	f.mu.Unlock()
}

// Lag is the replication-lag snapshot surfaced in /v1/stats and the
// readiness gate.
type Lag struct {
	Bootstrapped bool `json:"bootstrapped"`
	// CaughtUp reports that the last successful poll found every shard
	// at the primary's head.
	CaughtUp bool `json:"caught_up"`
	// BehindRecords is the summed applied-vs-primary seq gap at the
	// last poll.
	BehindRecords uint64 `json:"behind_records"`
	// StalenessMS is the time since the replica was last fully caught
	// up (since startup when it never was).
	StalenessMS int64    `json:"staleness_ms"`
	Bootstraps  int      `json:"bootstraps"`
	AppliedSeq  []uint64 `json:"applied_seq,omitempty"`
	PrimarySeq  []uint64 `json:"primary_seq,omitempty"`
	LastError   string   `json:"last_error,omitempty"`
}

// Lag snapshots the replication state.
func (f *Follower) Lag() Lag {
	f.mu.RLock()
	defer f.mu.RUnlock()
	lag := Lag{
		Bootstrapped: f.state != nil,
		CaughtUp:     f.caughtUp,
		Bootstraps:   f.bootstraps,
		AppliedSeq:   append([]uint64(nil), f.applied...),
		PrimarySeq:   append([]uint64(nil), f.target...),
		LastError:    f.lastErr,
	}
	for i, t := range f.target {
		if i < len(f.applied) && t > f.applied[i] {
			lag.BehindRecords += t - f.applied[i]
		}
	}
	anchor := f.caughtUpAt
	if anchor.IsZero() {
		anchor = f.started
	}
	lag.StalenessMS = time.Since(anchor).Milliseconds()
	return lag
}

// Ready gates /readyz: nil once bootstrapped and — when MaxLag is set
// — fully caught up within it.
func (f *Follower) Ready() error {
	lag := f.Lag()
	if !lag.Bootstrapped {
		return errors.New("replica: bootstrapping")
	}
	if f.cfg.MaxLag > 0 {
		stale := time.Duration(lag.StalenessMS) * time.Millisecond
		if stale > f.cfg.MaxLag {
			return fmt.Errorf("replica: stale by %s (max lag %s)", stale.Round(time.Millisecond), f.cfg.MaxLag)
		}
	}
	return nil
}

// Close stops the tail loop and the replica services.
func (f *Follower) Close() {
	f.closed.Do(func() {
		close(f.stop)
	})
	if f.loopDone != nil {
		<-f.loopDone
	}
	f.mu.Lock()
	st := f.state
	f.state = nil
	f.mu.Unlock()
	if st != nil {
		st.Close()
	}
}

func (f *Follower) backendNow() *shard.Coordinator {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.state
}

// The httpapi.Backend surface. Reads delegate to the current
// generation; writes are refused outright — the follower does not
// proxy to the primary, so a client that wants read-your-writes must
// write to and read from the primary.

// IngestFrom refuses: replicas are read-only.
func (f *Follower) IngestFrom(ctx context.Context, client string, events []dataset.Event) error {
	return stream.ErrReadOnly
}

// Flush refuses: replicas are read-only.
func (f *Follower) Flush(ctx context.Context) error { return stream.ErrReadOnly }

// Checkpoint refuses: replicas are read-only.
func (f *Follower) Checkpoint(ctx context.Context) error { return stream.ErrReadOnly }

// EPMClusters serves the EPM view.
func (f *Follower) EPMClusters(dim string) (stream.EPMView, error) {
	b := f.backendNow()
	if b == nil {
		return stream.EPMView{}, errors.New("replica: not bootstrapped")
	}
	return b.EPMClusters(dim)
}

// BClusters serves the B view.
func (f *Follower) BClusters() stream.BView {
	b := f.backendNow()
	if b == nil {
		return stream.BView{}
	}
	return b.BClusters()
}

// Sample serves one sample's cluster assignments.
func (f *Follower) Sample(id string) (stream.SampleView, bool) {
	b := f.backendNow()
	if b == nil {
		return stream.SampleView{}, false
	}
	return b.Sample(id)
}

// FollowerStats is the replica's /v1/stats payload: the replication
// lag wrapped around the coordinator's stats.
type FollowerStats struct {
	Replication Lag          `json:"replication"`
	Backend     *shard.Stats `json:"backend,omitempty"`
}

// StatsPayload serves FollowerStats.
func (f *Follower) StatsPayload() any {
	out := FollowerStats{Replication: f.Lag()}
	if b := f.backendNow(); b != nil {
		st := b.Stats()
		out.Backend = &st
	}
	return out
}
