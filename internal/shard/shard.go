// Package shard partitions the landscape service horizontally: N
// independent stream.Services — each with its own WAL directory,
// incremental EPM engines, and incremental B-clusterer — fed by a
// deterministic router and queried through merged global views.
//
// The Coordinator is the one back end every binary hosts, at any shard
// count, and the one module that knows what a single shard means: at
// one shard it keeps the flat single-service layout in the durability
// root, leaves the per-client limiter on the shard, and serves the
// shard's own views and counters, so a 1-shard deployment answers
// exactly what a bare stream.Service would.
//
// The router is a pure function of the event's routing key (the sample
// MD5 when the event carries one, the event ID otherwise), so the
// sample→shard mapping is stable across restarts and independent of
// arrival order, and every event of a sample lands on the shard that
// owns the sample's enrichment, deduplication, and B-membership.
//
// Merging is exact: epm.Merge folds the per-shard value sketches into
// global invariants and regroups only where an aggregate-only threshold
// crossing demands it, and bcluster.Merge seeds a union-find with the
// per-shard components and probes each shard's posted samples against
// the prefix indexes of the shards before it. The equivalence tests prove
// the merged E/P/M/B views byte-identical to a 1-shard run at any shard
// count and arrival order.
package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/ckpt"
	"repro/internal/dataset"
	"repro/internal/stream"
)

// MaxShards bounds the shard count; beyond it a deployment wants
// multiple processes, not more partitions of one.
const MaxShards = 256

// RouteKey returns the routing key of an event: the sample MD5 when the
// event references a sample (whatever its download outcome, so every
// event about one sample colocates with it), the event ID otherwise.
func RouteKey(e *dataset.Event) string {
	if e.Sample.MD5 != "" {
		return e.Sample.MD5
	}
	return e.ID
}

// ShardOf maps a routing key to a shard index: 64-bit FNV-1a reduced
// modulo the shard count. A pure function of (key, shards) — no process
// state — which is what makes the mapping stable across restarts and
// arrival orders.
func ShardOf(key string, shards int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h % uint64(shards))
}

// Config parameterizes a sharded deployment.
type Config struct {
	// Shards is the partition count; 0 selects 1.
	Shards int
	// Stream is the per-shard service template. Above one shard two
	// fields are reinterpreted at the coordinator level: Durability.Dir,
	// when set, becomes the deployment root (each shard persists under
	// shard-NNNN/ inside it, and a manifest pins the shard count), and
	// the per-client rate-limit knobs (RatePerSec, Burst, MaxClients)
	// move up into one shared ledger at the coordinator — a client's
	// budget covers the whole deployment instead of multiplying by N.
	// The remaining admission knobs (deadline, shedding, degraded mode)
	// stay per shard, where the queues they protect live. At one shard
	// the template applies unchanged: the service persists in the root
	// itself and keeps its own limiter.
	Stream stream.Config
}

// manifest pins the on-disk layout's shard count. Reopening a sharded
// directory with a different -shards would silently misroute every
// recovered sample, so the mismatch fails closed instead.
type manifest struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

const (
	manifestName    = "shards.json"
	manifestVersion = 1
)

// Coordinator fans ingest out over the shards and serves merged views;
// over a single shard it passes both straight through. Construct with
// New (or NewReplicaSet), stop with Close.
type Coordinator struct {
	shards []*stream.Service

	// limiter is the shared per-client ledger above one shard (nil at
	// one shard, where the shard's own limiter applies, and when rate
	// limiting is off). rejectedBatches and rejectedEvents count its
	// refusals by reason and rejectedByClient by client; everything else
	// the shards count themselves.
	limiter          *admission.Limiter
	admMu            sync.Mutex
	rejectedBatches  map[string]int
	rejectedEvents   map[string]int
	rejectedByClient map[string]int

	// viewMu serializes merged-view construction and guards the cache
	// and the merge-error ledger. Lock order: viewMu first, then the
	// per-shard read locks in shard order.
	viewMu       sync.Mutex
	view         *mergedState
	mergeErrors  int
	lastMergeErr string

	// Replication role surfaced in the aggregate stats; guarded by
	// admMu (SetRole at startup, Stats reads).
	role  string
	start time.Time
}

// New builds the shards and their coordinator. The enricher is shared:
// it must be safe for concurrent use (the pipeline already serves
// parallel executions within one service). With durability configured,
// each shard recovers from its own subdirectory before New returns.
func New(cfg Config, enricher stream.Enricher) (*Coordinator, error) {
	n := cfg.Shards
	if n == 0 {
		n = 1
	}
	if n < 1 || n > MaxShards {
		return nil, fmt.Errorf("shard: shard count %d outside [1, %d]", cfg.Shards, MaxShards)
	}
	scfg := cfg.Stream
	if err := scfg.Validate(); err != nil {
		return nil, err
	}

	c := newCoordinator(stream.RoleStandalone)
	root := scfg.Durability.Dir
	var dirs []string
	if root != "" {
		var err error
		if dirs, err = openLayout(root, n); err != nil {
			return nil, err
		}
	}
	if n > 1 {
		// The shared ledger replaces the per-shard limiters; everything
		// else in the admission config stays per shard, with decorrelated
		// shedder seeds so the shards don't drop the same batches in
		// lockstep.
		c.limiter = admission.NewLimiter(scfg.Admission.RatePerSec, scfg.Admission.Burst, scfg.Admission.MaxClients, nil)
		scfg.Admission.RatePerSec = 0
		scfg.Admission.Burst = 0
		scfg.Admission.MaxClients = 0
	}
	for i := 0; i < n; i++ {
		sc := scfg
		sc.Admission.Seed = scfg.Admission.Seed + uint64(i)
		if root != "" {
			sc.Durability.Dir = dirs[i]
		}
		svc, err := stream.New(sc, enricher)
		if err != nil {
			for _, s := range c.shards {
				s.Close()
			}
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		c.shards = append(c.shards, svc)
	}
	return c, nil
}

// NewReplicaSet wraps pre-built replica services in a read-only
// coordinator serving the same views and stats as New — no manifest
// (the on-disk layout is the primary's concern) and no shared admission
// ledger (the services refuse writes themselves). The follower
// (internal/replica) builds the services by replaying shipped per-shard
// WALs and hands them over; Close closes them.
func NewReplicaSet(svcs []*stream.Service) (*Coordinator, error) {
	if len(svcs) < 1 || len(svcs) > MaxShards {
		return nil, fmt.Errorf("shard: replica set size %d outside [1, %d]", len(svcs), MaxShards)
	}
	c := newCoordinator(stream.RoleReplica)
	c.shards = append([]*stream.Service(nil), svcs...)
	return c, nil
}

func newCoordinator(role string) *Coordinator {
	return &Coordinator{
		rejectedBatches:  make(map[string]int),
		rejectedEvents:   make(map[string]int),
		rejectedByClient: make(map[string]int),
		role:             role,
		start:            time.Now(),
	}
}

// SetRole overrides the role label in the aggregate stats; the daemon
// marks a coordinator "primary" when it publishes its WALs.
func (c *Coordinator) SetRole(role string) {
	c.admMu.Lock()
	c.role = role
	c.admMu.Unlock()
}

// Layout is what a durability root holds.
type Layout struct {
	// Shards is the manifest's shard count; 0 means the root has no
	// manifest (a flat 1-shard layout, or a fresh root).
	Shards int
	// flatState names a single-service state file (the checkpoint or a
	// WAL segment) found directly in a root without a manifest, or "".
	flatState string
}

// ReadLayout reads a durability root's on-disk layout. It is the one
// reader of that layout: New opens every root through it, and the
// daemon's offline verifier (landscaped -wal-verify) walks the
// directories it names. It refuses, fail-closed,
// a manifest whose shard count is outside [1, MaxShards], shard
// directories without a manifest, and single-service state next to a
// manifest: each would otherwise open or verify an empty or misrouted
// deployment without error. A missing root reads as a fresh one.
func ReadLayout(root string) (Layout, error) {
	entries, err := os.ReadDir(root)
	if errors.Is(err, fs.ErrNotExist) {
		return Layout{}, nil
	}
	if err != nil {
		return Layout{}, fmt.Errorf("shard: reading root %s: %w", root, err)
	}
	var l Layout
	var shardDir string
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir() && strings.HasPrefix(name, "shard-"):
			if shardDir == "" {
				shardDir = name
			}
		case name == ckpt.Name || filepath.Ext(name) == ".wal":
			if l.flatState == "" {
				l.flatState = name
			}
		}
	}
	path := filepath.Join(root, manifestName)
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		if shardDir != "" {
			return Layout{}, fmt.Errorf("shard: %s holds shard directories (%s) but no %s; refusing to guess the shard count (restore the manifest)",
				root, shardDir, manifestName)
		}
		return l, nil
	}
	if err != nil {
		return Layout{}, fmt.Errorf("shard: reading manifest %s: %w", path, err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return Layout{}, fmt.Errorf("shard: corrupt manifest %s: %w", path, err)
	}
	if m.Shards < 1 || m.Shards > MaxShards {
		return Layout{}, fmt.Errorf("shard: manifest %s names %d shards, outside [1, %d]", path, m.Shards, MaxShards)
	}
	if l.flatState != "" {
		return Layout{}, fmt.Errorf("shard: %s holds both a shard manifest and single-service state (%s); refusing to choose between them",
			root, l.flatState)
	}
	l.Shards = m.Shards
	return l, nil
}

// Dirs returns the directories holding the service state under root:
// root itself for a flat layout, the shard directories in shard order
// otherwise.
func (l Layout) Dirs(root string) []string {
	if l.Shards == 0 {
		return []string{root}
	}
	dirs := make([]string, l.Shards)
	for i := range dirs {
		dirs[i] = filepath.Join(root, fmt.Sprintf("shard-%04d", i))
	}
	return dirs
}

// openLayout opens the root of an n-shard deployment and returns the
// directories the shards persist in. One shard keeps the flat
// single-service layout in the root itself, with no manifest, unless
// the root already holds a 1-shard manifest; above one shard a manifest
// pins the count, written on first open. A root that already holds
// service state — a manifest with another shard count, or flat state
// under a sharded open — fails closed with an actionable error.
func openLayout(root string, n int) ([]string, error) {
	l, err := ReadLayout(root)
	switch {
	case err != nil:
		return nil, err
	case l.Shards == n || l.Shards == 0 && n == 1:
		return l.Dirs(root), nil
	case l.Shards != 0:
		return nil, fmt.Errorf("shard: layout %s was written with -shards=%d; reopening with -shards=%d would misroute recovered samples (reopen it with -shards %d, or move the data aside)",
			root, l.Shards, n, l.Shards)
	case l.flatState != "":
		return nil, fmt.Errorf("shard: %s holds a pre-sharding service layout (%s) with no shard manifest; refusing to shard over it (move the data aside or replay it through a sharded deployment)",
			root, l.flatState)
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("shard: creating root %s: %w", root, err)
	}
	path := filepath.Join(root, manifestName)
	tmp := path + ".tmp"
	raw, _ := json.Marshal(manifest{Version: manifestVersion, Shards: n})
	if err := os.WriteFile(tmp, append(raw, '\n'), 0o644); err != nil {
		return nil, fmt.Errorf("shard: writing manifest: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, fmt.Errorf("shard: publishing manifest: %w", err)
	}
	return Layout{Shards: n}.Dirs(root), nil
}

// Shards reports the shard count.
func (c *Coordinator) Shards() int { return len(c.shards) }

// Shard exposes one underlying service, for what is per shard: its WAL
// for log shipping, its recovery counters, a replica's apply path.
func (c *Coordinator) Shard(i int) *stream.Service { return c.shards[i] }

// Ingest routes one batch over the shards via the trusted loopback
// path, like stream.Service.Ingest.
func (c *Coordinator) Ingest(ctx context.Context, events []dataset.Event) error {
	return c.IngestFrom(ctx, "", events)
}

// IngestFrom hands the batch to the shards under the client's identity,
// so their provenance ledgers, WAL records and refusals carry it. At
// one shard the shard admits the batch itself. Above one shard the
// batch first passes the shared per-client ledger, then every event is
// routed to its shard and the per-shard sub-batches are enqueued in
// shard order. Shard-level admission (deadline, shed, queue
// backpressure) applies per sub-batch, so a saturated deployment can
// accept part of a batch: the first shard error is returned, the
// remaining sub-batches are still attempted (at-least-once ingestion is
// the service's delivery model — redelivering the whole batch is safe,
// duplicates are screened per shard).
func (c *Coordinator) IngestFrom(ctx context.Context, client string, events []dataset.Event) error {
	if len(c.shards) == 1 {
		return c.shards[0].IngestFrom(ctx, client, events)
	}
	if client != "" {
		if rej := c.limiter.Admit(client, len(events)); rej != nil {
			c.admMu.Lock()
			c.rejectedBatches[string(rej.Reason)]++
			c.rejectedEvents[string(rej.Reason)] += len(events)
			c.rejectedByClient[client]++
			c.admMu.Unlock()
			return rej
		}
	}
	parts := make([][]dataset.Event, len(c.shards))
	for i := range events {
		si := ShardOf(RouteKey(&events[i]), len(c.shards))
		parts[si] = append(parts[si], events[i])
	}
	var firstErr error
	for si, part := range parts {
		if len(part) == 0 {
			continue
		}
		if err := c.shards[si].IngestFrom(ctx, client, part); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d: %w", si, err)
		}
	}
	return firstErr
}

// Flush drains and epochs every shard; it returns once all shards are
// flushed, with the first (by shard order) error.
func (c *Coordinator) Flush(ctx context.Context) error {
	return c.fanout(func(s *stream.Service) error { return s.Flush(ctx) })
}

// Sync waits until every batch queued on any shard before the call has
// been applied (stream.Service.Sync on each shard).
func (c *Coordinator) Sync(ctx context.Context) error {
	return c.fanout(func(s *stream.Service) error { return s.Sync(ctx) })
}

// Checkpoint checkpoints every shard.
func (c *Coordinator) Checkpoint(ctx context.Context) error {
	return c.fanout(func(s *stream.Service) error { return s.Checkpoint(ctx) })
}

// Close stops every shard (each takes a final checkpoint when durable).
func (c *Coordinator) Close() {
	c.fanout(func(s *stream.Service) error { s.Close(); return nil })
}

// StorageFailure reports the first shard's read-only storage failure,
// nil while every shard is writable.
func (c *Coordinator) StorageFailure() error {
	for _, s := range c.shards {
		if err := s.StorageFailure(); err != nil {
			return err
		}
	}
	return nil
}

// ScrubWAL scrubs every shard's sealed WAL segments; the first (by
// shard order) corruption report is returned.
func (c *Coordinator) ScrubWAL() error {
	return c.fanout(func(s *stream.Service) error { return s.ScrubWAL() })
}

// fanout runs op on every shard concurrently and returns the first (by
// shard order) error, wrapped with its shard index above one shard.
func (c *Coordinator) fanout(op func(*stream.Service) error) error {
	if len(c.shards) == 1 {
		return op(c.shards[0])
	}
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i, s := range c.shards {
		wg.Add(1)
		go func(i int, s *stream.Service) {
			defer wg.Done()
			errs[i] = op(s)
		}(i, s)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}
