// Command landscaped serves the streaming landscape service over HTTP:
// a long-running daemon that ingests attack events and answers live
// cluster queries, the serving counterpart of the one-shot `landscape`
// report tool.
//
// The daemon hosts one scenario's enrichment pipeline (sandbox + AV
// oracle, seeded like the batch pipeline), so the events it can enrich
// are the scenario's own — generate them with the same seed, e.g. by
// replaying the simulated deployment into it.
//
// With -wal-dir the daemon is crash-safe: every accepted batch is
// written to a write-ahead log before it is applied and the full state
// is checkpointed periodically, so a SIGKILL loses at most the batches
// that were queued but not yet logged. Recovery runs asynchronously at
// startup — the listener comes up immediately and /readyz reports 503
// until the checkpoint is loaded and the WAL suffix replayed.
//
// Durability self-heals (DESIGN.md §15): checkpoints carry a CRC
// trailer and the previous -checkpoint-gens checkpoints are retained as
// checkpoint.json.<gen> fallbacks, so a corrupt newest checkpoint costs
// a longer WAL replay instead of the state; a failed WAL append is
// retried once on a reopened (tail-repaired) log; persistent
// append/checkpoint failure degrades the daemon to read-only — writes
// answer a typed 503 with reason "storage_failed" while reads, /readyz,
// and /v1/stats keep serving and expose the degradation. -scrub-every
// walks the sealed WAL segments in the background and surfaces latent
// corruption in /v1/stats before recovery needs those segments. For
// chaos testing, -fault-seed injects a deterministic seeded schedule of
// write-side disk faults under the WAL and checkpoint writer (`make
// smoke-chaos` drives this against real SIGKILLs).
//
// Overload protection (all off by default, see DESIGN.md §9): with
// -rate-limit each client (X-Client-ID header, else remote IP) gets a
// token-bucket events/sec budget; -admission-deadline bounds how long
// an ingest may wait for queue space; -shed-target sheds batches when
// the smoothed queue delay overshoots; -degrade-target defers epoch
// work under sustained pressure. Refused work answers 429 (client
// should slow down) or 503 (service saturated) with a Retry-After
// header instead of blocking the connection.
//
// With -shards N (N >= 2) the landscape is partitioned horizontally:
// N independent shard services — each with its own ingest queue, apply
// worker, WAL subdirectory, and incremental engines — behind a
// deterministic router (stable hash of the sample MD5), with queries
// answered from exact merged global views (see DESIGN.md §12). The WAL
// root then holds one shard-NNNN/ subdirectory per shard plus a
// shards.json manifest pinning the shard count; reopening with a
// different -shards fails closed. -shards 1 (the default) keeps the
// single-service layout from earlier releases.
//
// With -repl (requires -wal-dir) the daemon is a replication primary:
// it additionally serves the log-shipping endpoints under /v1/repl/ —
// segment manifests, checkpoint blobs, and CRC-framed record streams.
// With -follow URL it is instead a read replica of that primary: it
// bootstraps every shard from the primary's newest checkpoint, replays
// the shipped WAL suffix through the same apply path (so its views are
// byte-identical), tails new records every -repl-poll, answers all
// read endpoints, and refuses writes with a typed 403. Replication lag
// is reported in /v1/stats and gates /readyz via -max-lag (see
// DESIGN.md §13).
//
// Usage:
//
//	landscaped [-addr :8844] [-seed N] [-small] [-scenario file.json]
//	           [-epoch 256] [-queue 16] [-batch 64] [-shards N]
//	           [-wal-dir DIR] [-checkpoint-every 64] [-wal-nosync]
//	           [-checkpoint-gens 2] [-scrub-every D]
//	           [-fault-seed N] [-fault-rate P] [-fault-max N]
//	           [-rate-limit N] [-burst N] [-admission-deadline D]
//	           [-shed-target D] [-degrade-target D] [-max-waiters N]
//	           [-repl]
//	landscaped -follow URL [flags]      # read replica of a -repl primary
//	           [-repl-poll 500ms] [-max-lag D]
//	landscaped -wal-verify -wal-dir DIR # offline WAL + checkpoint integrity walk
//	landscaped -replay [flags]          # in-process replay + convergence check
//	landscaped -replay-to URL [flags]   # replay the scenario over HTTP
//	           [-replay-offset N] [-replay-limit N] [-replay-verify]
//
// API:
//
//	POST /v1/ingest        body: JSON array of events -> {"queued": n}
//	GET  /v1/clusters/{d}  d in e|epsilon|p|pi|m|mu|b
//	GET  /v1/sample/{id}
//	GET  /v1/stats
//	POST /v1/flush         force an epoch everywhere
//	POST /v1/checkpoint    force a checkpoint (requires -wal-dir)
//	GET  /healthz          liveness: the process is up
//	GET  /readyz           readiness: recovery finished, queries answer
//	                       (on a replica: bootstrapped and within -max-lag)
//	GET  /v1/repl/segments                       -repl only: shipping manifest
//	GET  /v1/repl/checkpoint/{shard}             -repl only: checkpoint blob
//	GET  /v1/repl/segment/{shard}/{first}?from=N -repl only: frame stream
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/enrich"
	"repro/internal/faultfs"
	"repro/internal/httpapi"
	"repro/internal/replica"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/wal"
)

type options struct {
	addr         string
	seed         uint64
	small        bool
	scenarioPath string
	epoch        int
	queue        int
	batch        int
	parallelism  int
	shards       int

	walDir          string
	checkpointEvery int
	walNoSync       bool
	checkpointGens  int
	scrubEvery      time.Duration
	faultSeed       int64
	faultRate       float64
	faultMax        int

	rateLimit         float64
	burst             int
	admissionDeadline time.Duration
	shedTarget        time.Duration
	degradeTarget     time.Duration
	maxWaiters        int

	defendMerge    int
	defendTrust    float64
	defendDisagree int
	statsClients   bool

	repl      bool
	follow    string
	replPoll  time.Duration
	maxLag    time.Duration
	walVerify bool

	replay       bool
	replayTo     string
	replayOffset int
	replayLimit  int
	replayVerify bool
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8844", "listen address")
	flag.Uint64Var(&o.seed, "seed", 2010, "scenario seed")
	flag.BoolVar(&o.small, "small", false, "use the reduced scenario")
	flag.StringVar(&o.scenarioPath, "scenario", "", "scenario JSON file (overrides -small)")
	flag.IntVar(&o.epoch, "epoch", 256, "pending-pool size that triggers a re-clustering epoch (0 = only on flush)")
	flag.IntVar(&o.queue, "queue", 16, "ingest queue depth, in batches")
	flag.IntVar(&o.batch, "batch", 64, "replay batch size, in events")
	flag.IntVar(&o.parallelism, "parallelism", 0, "worker bound for epochs and sandbox runs (0 = GOMAXPROCS)")
	flag.IntVar(&o.shards, "shards", 1, "horizontal shard count: independent services behind a deterministic router with merged views (1 = unsharded)")
	flag.StringVar(&o.walDir, "wal-dir", "", "durability directory for the write-ahead log and checkpoints (empty = memory-only)")
	flag.IntVar(&o.checkpointEvery, "checkpoint-every", 64, "checkpoint automatically after every N applied batches (0 = only on /v1/checkpoint)")
	flag.BoolVar(&o.walNoSync, "wal-nosync", false, "skip fsyncs on the WAL and checkpoints (faster, loses the last writes on power failure)")
	flag.IntVar(&o.checkpointGens, "checkpoint-gens", 2, "previous checkpoints retained as fallback generations; recovery falls back to them when the newest checkpoint is corrupt (-1 = none)")
	flag.DurationVar(&o.scrubEvery, "scrub-every", 0, "background WAL scrub interval: walk sealed segments, verify CRCs, surface corruption in /v1/stats (0 = off)")
	flag.Int64Var(&o.faultSeed, "fault-seed", 0, "chaos testing: inject seeded write-side disk faults (EIO, torn writes, fsync and rename failures) under the WAL and checkpoints (0 = off)")
	flag.Float64Var(&o.faultRate, "fault-rate", 0.05, "chaos testing: per-operation fault probability used with -fault-seed")
	flag.IntVar(&o.faultMax, "fault-max", 8, "chaos testing: total fault budget for -fault-seed, so a run converges (0 = unlimited)")
	flag.Float64Var(&o.rateLimit, "rate-limit", 0, "per-client admission budget in events/sec, keyed by X-Client-ID or remote IP (0 = unlimited)")
	flag.IntVar(&o.burst, "burst", 0, "per-client token-bucket capacity in events (0 = max(rate-limit, 1))")
	flag.DurationVar(&o.admissionDeadline, "admission-deadline", 0, "longest an ingest may wait for queue space before a 429 (0 = block indefinitely)")
	flag.DurationVar(&o.shedTarget, "shed-target", 0, "smoothed queue-delay target; above it incoming batches are shed with 503s (0 = never shed)")
	flag.DurationVar(&o.degradeTarget, "degrade-target", 0, "smoothed queue-delay threshold for degraded mode: epoch work deferred, queries marked degraded (0 = never degrade)")
	flag.IntVar(&o.maxWaiters, "max-waiters", 0, "producers allowed to block on a full queue before fast 503s (0 = unlimited)")
	flag.IntVar(&o.defendMerge, "defend-merge", 0, "merge resistance: quarantine samples whose links would join two B-clusters of at least this size (0 = off)")
	flag.Float64Var(&o.defendTrust, "defend-trust", 0, "trust penalty: raise the B link threshold by this weight times the pair's client distrust (0 = off)")
	flag.IntVar(&o.defendDisagree, "defend-disagree", 0, "disagreement quorum: park samples whose B links contradict their mu-group once this many group members are clustered (0 = off)")
	flag.BoolVar(&o.statsClients, "stats-clients", false, "surface the per-client admission and provenance ledger in /v1/stats")
	flag.BoolVar(&o.repl, "repl", false, "serve the log-shipping endpoints under /v1/repl/ so followers can replicate (requires -wal-dir)")
	flag.StringVar(&o.follow, "follow", "", "run as a read replica of the primary landscaped at this base URL: bootstrap from its checkpoint, tail its WAL, refuse writes")
	flag.DurationVar(&o.replPoll, "repl-poll", 500*time.Millisecond, "with -follow: how often the replica polls the primary for new records")
	flag.DurationVar(&o.maxLag, "max-lag", 0, "with -follow: /readyz flips to 503 when the replica has not been caught up within this duration (0 = always ready once bootstrapped)")
	flag.BoolVar(&o.walVerify, "wal-verify", false, "walk every WAL segment under -wal-dir (all shards), verify CRCs and seq contiguity, and exit non-zero on corruption")
	flag.BoolVar(&o.replay, "replay", false, "replay the scenario in-process, assert convergence with the batch pipeline, and exit")
	flag.StringVar(&o.replayTo, "replay-to", "", "replay the scenario's events over HTTP to a running landscaped at this base URL, then exit")
	flag.IntVar(&o.replayOffset, "replay-offset", 0, "with -replay-to: skip the first N events")
	flag.IntVar(&o.replayLimit, "replay-limit", 0, "with -replay-to: send at most N events (0 = all)")
	flag.BoolVar(&o.replayVerify, "replay-verify", false, "with -replay-to: after replaying, assert the daemon's stats converged with the batch pipeline")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "landscaped:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	scenario := core.DefaultScenario()
	if o.small {
		scenario = core.SmallScenario()
	}
	if o.scenarioPath != "" {
		loaded, err := core.LoadScenarioFile(o.scenarioPath)
		if err != nil {
			return err
		}
		scenario = loaded
	}
	scenario.Seed = o.seed
	if o.parallelism != 0 {
		scenario.Parallelism = o.parallelism
	}
	cfg := stream.Config{
		EpochSize:   o.epoch,
		QueueDepth:  o.queue,
		Parallelism: o.parallelism,
		Thresholds:  scenario.Thresholds,
		BCluster:    scenario.Enrichment.BCluster,
		Admission: admission.Config{
			RatePerSec:    o.rateLimit,
			Burst:         o.burst,
			Deadline:      o.admissionDeadline,
			ShedTarget:    o.shedTarget,
			DegradeTarget: o.degradeTarget,
			MaxWaiters:    o.maxWaiters,
			Seed:          o.seed,
		},
		Defense: stream.Defense{
			MergeResistance: o.defendMerge,
			TrustPenalty:    o.defendTrust,
			DisagreeQuorum:  o.defendDisagree,
		},
		StatsClients: o.statsClients,
	}
	if o.walDir != "" {
		cfg.Durability = stream.Durability{
			Dir:             o.walDir,
			CheckpointEvery: o.checkpointEvery,
			NoSync:          o.walNoSync,
			Generations:     o.checkpointGens,
		}
		if o.faultSeed != 0 {
			// The chaos harness (`make smoke-chaos`): a deterministic
			// write-side fault schedule under the real daemon, so the
			// self-heal and read-only machinery is exercised end to end.
			cfg.Durability.FS = faultfs.New(nil, faultfs.Config{
				Seed:      o.faultSeed,
				WriteErr:  o.faultRate,
				WriteTorn: o.faultRate / 2,
				SyncErr:   o.faultRate,
				RenameErr: o.faultRate,
				MaxFaults: o.faultMax,
			})
		}
	}

	if o.shards < 1 || o.shards > shard.MaxShards {
		return fmt.Errorf("-shards %d outside [1, %d]", o.shards, shard.MaxShards)
	}
	if o.walVerify {
		if o.walDir == "" {
			return fmt.Errorf("-wal-verify needs -wal-dir")
		}
		return verifyWAL(o.walDir)
	}
	if o.repl && o.walDir == "" {
		return fmt.Errorf("-repl needs -wal-dir: followers replicate the WAL")
	}
	if o.follow != "" {
		if o.walDir != "" {
			return fmt.Errorf("-follow is memory-only (replicas re-bootstrap from the primary); drop -wal-dir")
		}
		if o.repl {
			return fmt.Errorf("-follow and -repl are mutually exclusive; chained replication is not supported")
		}
		return serveFollower(scenario, cfg, o)
	}
	if o.replayTo != "" {
		return replayOverHTTP(scenario, o.replayTo, o.batch, o.replayOffset, o.replayLimit, o.replayVerify)
	}
	if o.replay {
		return replayInProcess(scenario, cfg, o.shards, o.batch)
	}
	return serve(scenario, cfg, o.shards, o.addr, o.repl, o.scrubEvery)
}

// verifyWAL is the offline integrity walk: every segment of every
// shard is read end to end, checking CRCs and seq contiguity, and
// every retained checkpoint (the live file plus each generation) must
// pass its CRC trailer and decode as JSON. A torn newest segment is a
// warning (the next open repairs it); anything else names the
// offending file and exits non-zero. Quarantined *.corrupt files are
// skipped — they are the evidence of an already-handled failure.
func verifyWAL(root string) error {
	layout, err := shard.ReadLayout(root)
	if err != nil {
		return err
	}
	for _, dir := range layout.Dirs(root) {
		segments, records, err := wal.VerifyDir(dir)
		var verr *wal.VerifyError
		switch {
		case errors.As(err, &verr) && verr.Repairable:
			fmt.Printf("%s: %d segments, %d records, torn tail in %s (repaired on next open)\n",
				dir, segments, records, verr.Path)
		case err != nil:
			return fmt.Errorf("%s: %w", dir, err)
		default:
			fmt.Printf("%s: %d segments, %d records, all frames verified\n", dir, segments, records)
		}
		n, err := verifyCheckpoints(dir)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %d checkpoint file(s) verified\n", dir, n)
	}
	return nil
}

// verifyCheckpoints validates the live checkpoint and every retained
// generation in dir, streaming each: CRC trailer (when sealed) and JSON
// well-formedness.
func verifyCheckpoints(dir string) (int, error) {
	gens, err := ckpt.Generations(nil, dir)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", dir, err)
	}
	paths := []string{filepath.Join(dir, ckpt.Name)}
	for _, g := range gens {
		paths = append(paths, ckpt.GenName(dir, g))
	}
	n := 0
	for _, p := range paths {
		f, err := os.Open(p)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err == nil {
			err = ckpt.Verify(f)
			f.Close()
		}
		if err != nil {
			return n, fmt.Errorf("%s: %w", p, err)
		}
		n++
	}
	return n, nil
}

// backend is what the daemon hosts: the plain streaming service when
// unsharded (keeping the single-service WAL layout from earlier
// releases), the shard coordinator otherwise.
type backend interface {
	httpapi.Backend
	Ingest(ctx context.Context, events []dataset.Event) error
	Counts() (events, samples, executable, e, p, m, b int)
	ScrubWAL() error
	Close()
}

// newBackend builds the deployment around a shared enrichment pipeline
// and reports how many WAL records recovery replayed.
func newBackend(cfg stream.Config, shards int, pipe *enrich.Pipeline) (backend, int, error) {
	if shards <= 1 {
		if dir := cfg.Durability.Dir; dir != "" {
			layout, err := shard.ReadLayout(dir)
			if err != nil {
				return nil, 0, err
			}
			if layout.Shards != 0 {
				return nil, 0, fmt.Errorf("%s holds a %d-shard layout; reopen it with -shards %d", dir, layout.Shards, layout.Shards)
			}
		}
		svc, err := stream.New(cfg, pipe)
		if err != nil {
			return nil, 0, err
		}
		return svc, svc.Stats().WAL.RecoveredRecords, nil
	}
	c, err := shard.New(shard.Config{Shards: shards, Stream: cfg}, pipe)
	if err != nil {
		return nil, 0, err
	}
	recovered := 0
	for i := 0; i < c.Shards(); i++ {
		recovered += c.Shard(i).Stats().WAL.RecoveredRecords
	}
	return c, recovered, nil
}

// newPublisher wraps the backend's live WALs in the log-shipping
// publisher and flips the advertised role to primary.
func newPublisher(b backend) (*replica.Publisher, error) {
	var sources []replica.Source
	switch v := b.(type) {
	case *stream.Service:
		dir, log := v.ReplicationSource()
		sources = []replica.Source{{Dir: dir, Log: log}}
		v.SetRole(stream.RolePrimary)
	case *shard.Coordinator:
		for i := 0; i < v.Shards(); i++ {
			dir, log := v.Shard(i).ReplicationSource()
			sources = append(sources, replica.Source{Dir: dir, Log: log})
		}
		v.SetRole(stream.RolePrimary)
	default:
		return nil, fmt.Errorf("unsupported backend %T for replication", b)
	}
	return replica.NewPublisher(sources)
}

// serveFollower runs the daemon as a read replica: bootstrap the full
// state from the primary's checkpoint plus WAL suffix, tail new
// records on a polling loop, and serve the read endpoints. Writes
// answer a typed 403; /readyz reports 503 until the bootstrap lands
// and again whenever the replica falls past -max-lag. Local
// durability is off — a restarted replica re-bootstraps, the primary
// owns the log.
func serveFollower(scenario core.Scenario, cfg stream.Config, o options) error {
	var fp atomic.Value
	load := func() *replica.Follower {
		if v := fp.Load(); v != nil {
			return v.(*replica.Follower)
		}
		return nil
	}
	server := &http.Server{
		Handler: httpapi.New(func() httpapi.Backend {
			if f := load(); f != nil {
				return f
			}
			return nil
		}, httpapi.Options{
			Readiness: func() error {
				if f := load(); f != nil {
					return f.Ready()
				}
				return nil // the nil-backend gate already answered
			},
		}),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(ln) }()

	initErr := make(chan error, 1)
	go func() {
		start := time.Now()
		_, pipe, err := core.NewPipeline(scenario)
		if err != nil {
			initErr <- err
			return
		}
		f, err := replica.NewFollower(replica.FollowerConfig{
			Primary:  o.follow,
			Stream:   cfg,
			Enricher: pipe,
			Poll:     o.replPoll,
			MaxLag:   o.maxLag,
		})
		if err != nil {
			initErr <- err
			return
		}
		if err := f.Bootstrap(ctx); err != nil {
			f.Close()
			initErr <- fmt.Errorf("bootstrap from %s: %w", o.follow, err)
			return
		}
		f.Start()
		fp.Store(f)
		lag := f.Lag()
		fmt.Printf("landscaped: replica ready in %v (applied %v from %s)\n",
			time.Since(start).Round(time.Millisecond), lag.AppliedSeq, o.follow)
		initErr <- nil
	}()
	fmt.Printf("landscaped: replica serving on %s (following %s, poll %v, max lag %v)\n",
		o.addr, o.follow, o.replPoll, o.maxLag)

	shutdown := func() error {
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := server.Shutdown(shutdownCtx)
		if f := load(); f != nil {
			f.Close()
		}
		return err
	}

	select {
	case err := <-serveErr:
		if f := load(); f != nil {
			f.Close()
		}
		return err
	case err := <-initErr:
		if err != nil {
			shutdown()
			return fmt.Errorf("startup: %w", err)
		}
		select {
		case err := <-serveErr:
			if f := load(); f != nil {
				f.Close()
			}
			return err
		case <-ctx.Done():
		}
	case <-ctx.Done():
	}
	fmt.Println("landscaped: replica shutting down")
	return shutdown()
}

// aggregateStats reduces either backend's stats to the shared
// stream.Stats shape (the coordinator's aggregate).
func aggregateStats(b backend) stream.Stats {
	switch v := b.(type) {
	case *stream.Service:
		return v.Stats()
	case *shard.Coordinator:
		return v.Stats().Aggregate
	}
	return stream.Stats{}
}

// serve hosts the service until SIGINT/SIGTERM, then shuts down
// gracefully: the listener closes first, in-flight requests get a
// bounded drain, the service applies every queued batch, and — when
// durable — a final checkpoint lands before the process exits.
//
// The listener binds before the service exists so /healthz and /readyz
// answer during a long recovery; every other endpoint returns 503
// until the service is ready.
func serve(scenario core.Scenario, cfg stream.Config, shards int, addr string, repl bool, scrubEvery time.Duration) error {
	// atomic.Value over the concrete backend: the getter returns a nil
	// interface until recovery finishes, never a typed-nil pointer.
	var bp atomic.Value
	load := func() backend {
		if v := bp.Load(); v != nil {
			return v.(backend)
		}
		return nil
	}
	opts := httpapi.Options{}
	// The shipping publisher exists only after recovery builds the
	// backend (it wraps the live WALs), but the mux is built now — so
	// mount a gate that 503s until the publisher lands.
	var pub atomic.Value
	if repl {
		opts.Repl = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if v := pub.Load(); v != nil {
				v.(http.Handler).ServeHTTP(w, r)
				return
			}
			http.Error(w, `{"error":"primary is recovering"}`, http.StatusServiceUnavailable)
		})
	}
	server := &http.Server{
		Handler: httpapi.New(func() httpapi.Backend {
			if b := load(); b != nil {
				return b
			}
			return nil
		}, opts),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(ln) }()

	if scrubEvery > 0 && cfg.Durability.Dir != "" {
		// Background WAL scrubber: read-only, so it only ever runs
		// against the live backend (nil until recovery finishes).
		// Findings land in /v1/stats; the daemon log gets a line so
		// operators notice without polling.
		go func() {
			t := time.NewTicker(scrubEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if b := load(); b != nil {
						if err := b.ScrubWAL(); err != nil {
							fmt.Fprintln(os.Stderr, "landscaped: wal scrub:", err)
						}
					}
				}
			}
		}()
	}

	initErr := make(chan error, 1)
	go func() {
		start := time.Now()
		_, pipe, err := core.NewPipeline(scenario)
		if err != nil {
			initErr <- err
			return
		}
		b, recovered, err := newBackend(cfg, shards, pipe)
		if err != nil {
			initErr <- err
			return
		}
		if repl {
			p, err := newPublisher(b)
			if err != nil {
				b.Close()
				initErr <- err
				return
			}
			pub.Store(p.Handler())
		}
		bp.Store(b)
		fmt.Printf("landscaped: ready in %v (recovered %d WAL records)\n",
			time.Since(start).Round(time.Millisecond), recovered)
		initErr <- nil
	}()
	fmt.Printf("landscaped: serving on %s (seed %d, epoch size %d, shards %d, wal %q)\n",
		addr, scenario.Seed, cfg.EpochSize, shards, cfg.Durability.Dir)

	shutdown := func() error {
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := server.Shutdown(shutdownCtx)
		if b := load(); b != nil {
			if cfg.Durability.Dir != "" {
				if cerr := b.Checkpoint(shutdownCtx); cerr != nil && err == nil {
					err = fmt.Errorf("final checkpoint: %w", cerr)
				}
			}
			b.Close()
		}
		return err
	}

	select {
	case err := <-serveErr:
		if b := load(); b != nil {
			b.Close()
		}
		return err
	case err := <-initErr:
		if err != nil {
			shutdown()
			return fmt.Errorf("startup: %w", err)
		}
		// Ready; keep serving until a signal or server failure.
		select {
		case err := <-serveErr:
			if b := load(); b != nil {
				b.Close()
			}
			return err
		case <-ctx.Done():
		}
	case <-ctx.Done():
	}
	fmt.Println("landscaped: shutting down")
	return shutdown()
}

// replayInProcess is the convergence gate: it runs the batch pipeline,
// replays the same events through a fresh streaming service, and fails
// unless the final clusters and accounting coincide.
func replayInProcess(scenario core.Scenario, cfg stream.Config, shards, batch int) error {
	res, err := core.Run(scenario)
	if err != nil {
		return err
	}
	b, _, err := newBackend(cfg, shards, res.Pipeline)
	if err != nil {
		return err
	}
	defer b.Close()
	return convergeStream(b, res, batch)
}

// convergeStream replays the batch run's events into the backend and
// asserts convergence. A mid-stream failure is reported as such — the
// caller exits non-zero rather than printing a partial comparison.
func convergeStream(b backend, res *core.Results, batch int) error {
	events := res.Dataset.Events()
	if batch <= 0 {
		batch = 64
	}
	ctx := context.Background()
	start := time.Now()
	for at := 0; at < len(events); at += batch {
		end := at + batch
		if end > len(events) {
			end = len(events)
		}
		if err := b.Ingest(ctx, events[at:end]); err != nil {
			return fmt.Errorf("replay failed mid-stream at event %d of %d: %w", at, len(events), err)
		}
	}
	if err := b.Flush(ctx); err != nil {
		return fmt.Errorf("replay failed mid-stream after a prefix of %d events: %w", len(events), err)
	}
	elapsed := time.Since(start)

	bEvents, bSamples, bExec, bE, bP, bM, bB := res.Counts()
	gEvents, gSamples, gExec, gE, gP, gM, gB := b.Counts()
	fmt.Printf("batch : %6d events %5d samples %5d executable | E=%d P=%d M=%d B=%d\n",
		bEvents, bSamples, bExec, bE, bP, bM, bB)
	fmt.Printf("stream: %6d events %5d samples %5d executable | E=%d P=%d M=%d B=%d\n",
		gEvents, gSamples, gExec, gE, gP, gM, gB)
	st := aggregateStats(b)
	fmt.Printf("replay: %d batches of <=%d events in %v (%.0f events/s), %d epochs (e/p/m) + %d (b), max queue depth %d\n",
		(bEvents+batch-1)/batch, batch, elapsed.Round(time.Millisecond),
		float64(gEvents)/elapsed.Seconds(), st.Epsilon.Epoch+st.Pi.Epoch+st.Mu.Epoch, st.B.Epochs, st.MaxQueueDepth)
	if st.Rejected != 0 || st.Duplicates != 0 || st.Retry.Quarantined != 0 {
		return fmt.Errorf("unclean replay: %d rejected, %d duplicates, %d quarantined",
			st.Rejected, st.Duplicates, st.Retry.Quarantined)
	}
	if gEvents != bEvents || gSamples != bSamples || gExec != bExec ||
		gE != bE || gP != bP || gM != bM || gB != bB {
		return fmt.Errorf("streaming replay diverged from the batch pipeline")
	}
	fmt.Println("converged: streaming replay matches the batch pipeline")
	return nil
}

// replayOverHTTP generates the scenario's events and posts a window of
// them to a running landscaped in batches, then flushes and prints the
// daemon's stats. The daemon must host the same scenario (same seed),
// or its enrichment pipeline will reject the samples. With verify set
// (and the full event sequence delivered across however many feeder
// runs), the daemon's stats must converge with the batch pipeline.
func replayOverHTTP(scenario core.Scenario, baseURL string, batch, offset, limit int, verify bool) error {
	_, sim, _, err := core.Prepare(scenario)
	if err != nil {
		return err
	}
	events := sim.Dataset.Events()
	if offset < 0 || offset > len(events) {
		return fmt.Errorf("-replay-offset %d out of range [0,%d]", offset, len(events))
	}
	window := events[offset:]
	if limit > 0 && limit < len(window) {
		window = window[:limit]
	}
	client := &http.Client{Timeout: 60 * time.Second}
	if batch <= 0 {
		batch = 64
	}
	if err := waitReady(client, baseURL, 60*time.Second); err != nil {
		return err
	}
	for start := 0; start < len(window); start += batch {
		end := start + batch
		if end > len(window) {
			end = len(window)
		}
		body, err := json.Marshal(window[start:end])
		if err != nil {
			return err
		}
		if err := post(client, baseURL+"/v1/ingest", body); err != nil {
			return fmt.Errorf("ingest batch at event %d: %w", offset+start, err)
		}
	}
	if err := post(client, baseURL+"/v1/flush", nil); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	resp, err := client.Get(baseURL + "/v1/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d events (offset %d) to %s\n%s\n", len(window), offset, baseURL, raw)
	if !verify {
		return nil
	}
	// A sharded daemon serves shard.Stats (per-shard telemetry around the
	// aggregate); an unsharded one serves stream.Stats directly. Decode
	// the sharded shape first and fall back on the Shards marker.
	var st stream.Stats
	var sst shard.Stats
	if err := json.Unmarshal(raw, &sst); err == nil && sst.Shards > 0 {
		st = sst.Aggregate
	} else if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("decoding daemon stats: %w", err)
	}
	res, err := core.Run(scenario)
	if err != nil {
		return err
	}
	bEvents, _, _, bE, bP, bM, bB := res.Counts()
	if st.Events != bEvents || st.Epsilon.Clusters != bE || st.Pi.Clusters != bP ||
		st.Mu.Clusters != bM || st.B.Clusters != bB {
		return fmt.Errorf("daemon diverged from the batch pipeline: daemon %d events E=%d P=%d M=%d B=%d, batch %d events E=%d P=%d M=%d B=%d",
			st.Events, st.Epsilon.Clusters, st.Pi.Clusters, st.Mu.Clusters, st.B.Clusters,
			bEvents, bE, bP, bM, bB)
	}
	fmt.Println("converged: daemon matches the batch pipeline")
	return nil
}

// waitReady polls /readyz until the daemon finished recovering.
func waitReady(client *http.Client, baseURL string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(baseURL + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/readyz not ready after %v", baseURL, timeout)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

func post(client *http.Client, url string, body []byte) error {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: %s: %s", url, resp.Status, bytes.TrimSpace(msg))
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}
