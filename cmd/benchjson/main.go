// Command benchjson measures the B-clustering scalability trajectory
// (bcluster.Run vs bcluster.RunExact over the internal/benchdata corpora)
// and serializes it to a JSON file, one entry per (label, bench, n). It
// also measures the streaming service's ingest throughput over the same
// corpus family and writes it to a second file (BENCH_stream.json).
//
// Both files accumulate across runs: entries with the same key are
// replaced, others are kept, so a committed baseline (label "pre-pr2")
// survives re-measurement of the current tree.
//
// The stream bench carries a shards dimension (-stream-shards): each
// point replays the corpus through a shard.Coordinator at that shard
// count and records the aggregate events/sec, keyed (label, n, shards,
// replicas). Entries written before the dimensions existed load as
// shards=1, replicas=0.
//
// It also carries a replicas dimension (-stream-replicas): each point
// boots a durable primary with the n=10k corpus, brings that many
// read replicas to the primary's WAL head over the log-shipping
// endpoints, and records the aggregate reads/sec across all serving
// processes — the evidence that WAL-shipping followers multiply read
// capacity. replicas=0 annotates the primary's write row with its own
// read rate for the baseline.
//
// A third file (BENCH_poison.json, -poison-o) records the adversarial
// poisoning sweep: B-clustering validity against ground truth at each
// poison rate, undefended batch vs defended streaming, keyed
// (label, n, poison_rate, defended) — see internal/poison.
//
// Usage:
//
//	benchjson [-o BENCH_bcluster.json] [-stream-o BENCH_stream.json] [-label current]
//	          [-stream-shards 1,4] [-stream-replicas 0,2] [-poison-o BENCH_poison.json]
//	benchjson -guard
//
// -guard is the CI superlinearity canary: it replays the n=1k and n=10k
// stream corpora only, writes nothing, and exits non-zero when ns/event
// at 10k exceeds ns/event at 1k by more than guardMaxRatio — the
// regression shape that incremental epochs are supposed to make
// impossible — when the 10k deployment's live heap per event passes
// guardMaxHeapPerEvent, or when one checkpoint of the 10k corpus takes
// more disk per event than guardMaxCheckpointPerEvent.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/bcluster"
	"repro/internal/behavior"
	"repro/internal/benchdata"
	"repro/internal/ckpt"
	"repro/internal/dataset"
	"repro/internal/httpapi"
	"repro/internal/loadgen"
	"repro/internal/replica"
	"repro/internal/shard"
	"repro/internal/stream"
)

// Entry is one measured benchmark point.
type Entry struct {
	// Label distinguishes measurement campaigns (e.g. "pre-pr2", "post-pr2").
	Label string `json:"label"`
	// Bench is "run" (bcluster.Run) or "exact" (bcluster.RunExact).
	// Older campaigns also carry "lsh": the MinHash/LSH clusterer that
	// Run's exact join replaced.
	Bench string `json:"bench"`
	// N is the corpus size.
	N int `json:"n"`
	// NsPerOp, BytesPerOp, AllocsPerOp are the standard Go benchmark
	// figures for one full clustering run.
	NsPerOp     int64 `json:"ns_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	// CandidatePairs and Links come from bcluster.Stats; Clusters is the
	// resulting partition size. All three are deterministic in (bench, n).
	CandidatePairs int `json:"candidate_pairs"`
	Links          int `json:"links"`
	Clusters       int `json:"clusters"`
	// Gomaxprocs records the parallelism available to the measurement.
	Gomaxprocs int `json:"gomaxprocs"`
}

// StreamEntry is one measured ingest-throughput point of the streaming
// service (internal/stream) over the benchdata corpus.
type StreamEntry struct {
	Label string `json:"label"`
	// N is the sample count; Events is the replayed event count (~1.3 N).
	N      int `json:"n"`
	Events int `json:"events"`
	// EpochSize is the re-clustering trigger the service ran with.
	EpochSize int `json:"epoch_size"`
	// Shards is the horizontal partition count the replay ran at (1 =
	// the plain unsharded service); EventsPerSec is the aggregate rate
	// across all shards. Pre-sharding entries load as Shards=1.
	Shards int `json:"shards"`
	// Replicas is the read-replica count of the read-fan-out
	// measurement: ReadsPerSec is the aggregate successful query rate
	// across the primary plus Replicas caught-up followers. Replicas=0
	// annotates the plain write row with the primary's own read rate;
	// rows with Replicas>0 measure reads only (the ingest figures stay
	// zero — the corpus is replicated, not re-ingested).
	Replicas    int     `json:"replicas"`
	ReadsPerSec float64 `json:"reads_per_sec,omitempty"`
	// NsPerEvent and EventsPerSec measure one full replay (ingest through
	// final flush, enrichment stubbed to a profile lookup).
	NsPerEvent   int64   `json:"ns_per_event"`
	EventsPerSec float64 `json:"events_per_sec"`
	// HeapAllocBytes is the live heap the deployment holds after the
	// replay's final flush: HeapAlloc after a forced GC with the service
	// still open, minus the same reading taken before the first stream
	// corpus was replayed, so the interned behavior sets count whichever
	// replay interned them first. Older rows subtracted a reading taken
	// just before their own replay; the two agree while nothing outlives
	// a deployment. Campaigns older than the "run" bench key read it
	// after Close, so their rows measure a closed service (0.17–0.25 MB
	// at every n).
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	// CheckpointBytes is the size on disk of one checkpoint of the
	// replayed corpus, written after the final flush by a durable
	// (NoSync) one-shard deployment in an untimed replay of its own.
	// Rows at n=1k and 10k, one shard, carry it from the "post-pr33"
	// campaign on.
	CheckpointBytes int64 `json:"checkpoint_bytes,omitempty"`
	// MaxQueueDepth is the deepest the bounded ingest queue ever got.
	MaxQueueDepth int `json:"max_queue_depth"`
	// EPMEpochs sums the ε/π/μ re-clustering epochs; EPMFullRegroups
	// counts how many of them fell back to a full regroup (the rest ran
	// the delta path); BEpochs counts the B verification epochs;
	// BClusters is the final partition size.
	EPMEpochs       int `json:"epm_epochs"`
	EPMFullRegroups int `json:"epm_full_regroups"`
	BEpochs         int `json:"b_epochs"`
	BClusters       int `json:"b_clusters"`
	Gomaxprocs      int `json:"gomaxprocs"`
}

// guardMaxRatio is the -guard failure threshold: ns/event at n=10k may
// exceed ns/event at n=1k by at most this factor.
const guardMaxRatio = 1.5

// guardMaxHeapPerEvent is -guard's live-heap canary: the n=10k
// deployment may hold at most this many bytes per event, 1.25 times the
// 3,462–3,472 bytes measured when behavioral profiles were first
// interned. A count of live bytes does not drift with the host's speed.
const guardMaxHeapPerEvent = 4340

// guardMaxCheckpointPerEvent is -guard's disk canary: one checkpoint of
// the n=10k corpus may take at most this many bytes per event on disk,
// 1.25 times the 63.6 (826,434 bytes for 13,000 events) measured when
// checkpoints were first compressed and wrote each behavior set once,
// rounded down. A byte count does not drift with the host's speed.
const guardMaxCheckpointPerEvent = 79

func main() {
	out := flag.String("o", "BENCH_bcluster.json", "output JSON path (merged in place; empty disables)")
	streamOut := flag.String("stream-o", "BENCH_stream.json", "streaming-service throughput JSON path (merged in place; empty disables)")
	poisonOut := flag.String("poison-o", "BENCH_poison.json", "poisoning validity sweep JSON path (merged in place; empty disables)")
	label := flag.String("label", "current", "label for this measurement campaign")
	streamShards := flag.String("stream-shards", "1,4", "comma-separated shard counts to measure the stream bench at")
	streamReplicas := flag.String("stream-replicas", "0,2", "comma-separated read-replica counts for the read-fan-out bench (0 = the primary's own read rate; empty disables)")
	guard := flag.Bool("guard", false, "superlinearity canary: bench the stream at n=1k and n=10k, write nothing, fail if the ns/event ratio exceeds the threshold")
	flag.Parse()

	if *guard {
		if err := runGuard(); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if *label == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -label must not be empty (it keys the merged entries; an empty label would silently shadow a real campaign)")
		os.Exit(1)
	}
	// The stream bench runs first: its heap column counts the process's
	// intern table (see measureStream), which must hold nothing but the
	// stream corpora's own sets.
	if *streamOut != "" {
		shardCounts, err := parseShards(*streamShards)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		replicaCounts, err := parseReplicas(*streamReplicas)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if err := runStream(*streamOut, *label, shardCounts, replicaCounts); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
	if *out != "" {
		if err := run(*out, *label); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
	if *poisonOut != "" {
		if err := runPoison(*poisonOut, *label); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
}

// parseReplicas parses the -stream-replicas list; unlike shards, 0 is
// meaningful (the primary alone) and an empty list disables the bench.
func parseReplicas(s string) ([]int, error) {
	var counts []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 0 || n > 16 {
			return nil, fmt.Errorf("-stream-replicas: bad replica count %q (want 0..16)", f)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

// parseShards parses the -stream-shards list.
func parseShards(s string) ([]int, error) {
	var counts []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 || n > shard.MaxShards {
			return nil, fmt.Errorf("-stream-shards: bad shard count %q (want 1..%d)", f, shard.MaxShards)
		}
		counts = append(counts, n)
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("-stream-shards: empty list")
	}
	return counts, nil
}

// streamEnricher stubs the enrichment pipeline with the benchdata
// profile corpus, so the bench isolates the service's own costs:
// queueing, classification, epochs, and incremental clustering. Profiles
// are synthesized on demand from the per-sample noise counts (the
// corpus's only random input) rather than precomputed: a materialized
// 100k-profile map is millions of live pointers the collector would
// rescan every cycle, billed to the service under measurement.
type streamEnricher struct {
	noise []uint8
}

func (e *streamEnricher) LabelSample(s *dataset.Sample) error {
	s.AVLabel = "Bench." + s.MD5
	return nil
}

func (e *streamEnricher) ExecuteSample(s *dataset.Sample) (*behavior.Profile, bool, error) {
	i, err := strconv.Atoi(strings.TrimPrefix(s.MD5, "s"))
	if err != nil || i < 0 || i >= len(e.noise) {
		return nil, false, fmt.Errorf("benchjson: no profile for sample %s", s.MD5)
	}
	return benchdata.ProfileOf(i, int(e.noise[i])), false, nil
}

// measureStream replays the n-sample benchdata corpus through a fresh
// shard.Coordinator at the given shard count and returns the measured
// point. The replay runs twice (a fresh deployment each time) and the
// faster run is recorded: the first replay at the larger corpus sizes
// pays the OS page-fault cost of growing the heap for the first time,
// which measures the machine, not the service.
//
// The heap column is the live heap with the deployment open above base,
// a reading taken before the process replayed any corpus. Behavioral
// sets are interned in one table for the whole process, which outlives
// a closed deployment, so a reading taken before each replay would leave
// out every set an earlier replay interned. Counting the whole table is
// exact as long as the table holds only sets the deployment references:
// StreamEvents(n) draws its profiles from a prefix-stable corpus, so it
// references every set of a smaller one, and the stream corpora run
// first, in increasing n. What earlier corpora left in the table is
// printed with each point.
func measureStream(label string, n, shards int, base uint64) (StreamEntry, error) {
	enricher := &streamEnricher{noise: benchdata.NoiseCounts(n)}
	events := benchdata.StreamEvents(n)
	cfg := stream.DefaultConfig()
	sets, features := behavior.Interned()
	var elapsed time.Duration
	var st stream.Stats
	var heap uint64
	for rep := 0; rep < 2; rep++ {
		c, err := shard.New(shard.Config{Shards: shards, Stream: cfg}, enricher)
		if err != nil {
			return StreamEntry{}, err
		}
		start := time.Now()
		err = replay(c, events)
		d := time.Since(start)
		st = c.Stats().Aggregate
		live := liveHeap()
		c.Close()
		if err != nil {
			return StreamEntry{}, err
		}
		if st.Rejected != 0 || st.EnrichErrors != 0 || st.Events != len(events) {
			return StreamEntry{}, fmt.Errorf("benchjson: unclean stream replay at n=%d shards=%d: %+v", n, shards, st)
		}
		if rep == 0 || d < elapsed {
			elapsed = d
			heap = live - min(live, base)
		}
	}
	e := StreamEntry{
		Label:           label,
		N:               n,
		Events:          len(events),
		EpochSize:       cfg.EpochSize,
		Shards:          shards,
		NsPerEvent:      elapsed.Nanoseconds() / int64(len(events)),
		EventsPerSec:    float64(len(events)) / elapsed.Seconds(),
		HeapAllocBytes:  heap,
		MaxQueueDepth:   st.MaxQueueDepth,
		EPMEpochs:       st.Epsilon.Epoch + st.Pi.Epoch + st.Mu.Epoch,
		EPMFullRegroups: st.Epsilon.FullRegroups + st.Pi.FullRegroups + st.Mu.FullRegroups,
		BEpochs:         st.B.Epochs,
		BClusters:       st.B.Clusters,
		Gomaxprocs:      runtime.GOMAXPROCS(0),
	}
	fmt.Printf("%s/stream-%d/shards-%d\t%d events\t%d ns/event\t%.0f events/s\theap=%dMB (%d B/event; %d sets, %d features interned before) epochs=%d(full=%d)+%d clusters=%d\n",
		label, n, shards, e.Events, e.NsPerEvent, e.EventsPerSec, e.HeapAllocBytes>>20, e.HeapAllocBytes/uint64(e.Events),
		sets, features, e.EPMEpochs, e.EPMFullRegroups, e.BEpochs, e.BClusters)
	return e, nil
}

// replay feeds the corpus through the coordinator in 256-event batches
// and flushes.
func replay(c *shard.Coordinator, events []dataset.Event) error {
	ctx := context.Background()
	for at := 0; at < len(events); at += 256 {
		if err := c.Ingest(ctx, events[at:min(at+256, len(events))]); err != nil {
			return err
		}
	}
	return c.Flush(ctx)
}

// liveHeap returns HeapAlloc after a forced collection: the bytes
// reachable at the call.
func liveHeap() uint64 {
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return mem.HeapAlloc
}

// measureCheckpoint replays the n-sample corpus, untimed, into a
// durable one-shard deployment without fsyncs in a temporary directory,
// checkpoints it once after the final flush, and returns the
// checkpoint file's size.
func measureCheckpoint(n int) (int64, error) {
	dir, err := os.MkdirTemp("", "benchjson-ckpt-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	cfg := stream.DefaultConfig()
	cfg.Durability = stream.Durability{Dir: dir, NoSync: true}
	c, err := shard.New(shard.Config{Stream: cfg}, &streamEnricher{noise: benchdata.NoiseCounts(n)})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	if err := replay(c, benchdata.StreamEvents(n)); err != nil {
		return 0, err
	}
	if err := c.Checkpoint(context.Background()); err != nil {
		return 0, err
	}
	shardDir, _ := c.Shard(0).ReplicationSource()
	fi, err := os.Stat(filepath.Join(shardDir, ckpt.Name))
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// readFanN is the corpus size of the read-fan-out measurement: large
// enough that the served views have real weight, small enough that
// bootstrapping the followers stays cheap.
const readFanN = 10000

// measureReadFanout boots a durable primary holding the n-sample
// corpus plus the log-shipping endpoints, brings the requested number
// of read replicas to the primary's WAL head over HTTP, and measures
// the aggregate successful query rate across every serving process.
func measureReadFanout(label string, n, replicas int) (StreamEntry, error) {
	enricher := &streamEnricher{noise: benchdata.NoiseCounts(n)}
	events := benchdata.StreamEvents(n)
	cfg := stream.DefaultConfig()
	dir, err := os.MkdirTemp("", "benchjson-repl-")
	if err != nil {
		return StreamEntry{}, err
	}
	defer os.RemoveAll(dir)
	cfg.Durability = stream.Durability{Dir: dir, NoSync: true}
	c, err := shard.New(shard.Config{Stream: cfg}, enricher)
	if err != nil {
		return StreamEntry{}, err
	}
	defer c.Close()
	if err := replay(c, events); err != nil {
		return StreamEntry{}, err
	}
	srcDir, log := c.Shard(0).ReplicationSource()
	pub, err := replica.NewPublisher([]replica.Source{{Dir: srcDir, Log: log}})
	if err != nil {
		return StreamEntry{}, err
	}
	primarySrv := httptest.NewServer(httpapi.New(
		func() httpapi.Backend { return c },
		httpapi.Options{Repl: pub.Handler()}))
	defer primarySrv.Close()

	targets := []string{primarySrv.URL}
	for r := 0; r < replicas; r++ {
		f, err := replica.NewFollower(replica.FollowerConfig{
			Primary:  primarySrv.URL,
			Stream:   cfg,
			Enricher: enricher,
		})
		if err != nil {
			return StreamEntry{}, err
		}
		defer f.Close()
		if err := f.Bootstrap(context.Background()); err != nil {
			return StreamEntry{}, fmt.Errorf("bootstrapping replica %d: %w", r, err)
		}
		srv := httptest.NewServer(httpapi.New(
			func() httpapi.Backend { return f },
			httpapi.Options{Readiness: f.Ready}))
		defer srv.Close()
		targets = append(targets, srv.URL)
	}
	report := loadgen.RunReads(loadgen.ReadPlan{
		Targets:          targets,
		ClientsPerTarget: 2,
		Duration:         time.Second,
	})
	if report.Errors > 0 {
		return StreamEntry{}, fmt.Errorf("read fan-out at replicas=%d hit %d errors", replicas, report.Errors)
	}
	e := StreamEntry{
		Label:       label,
		N:           n,
		Events:      len(events),
		EpochSize:   cfg.EpochSize,
		Shards:      1,
		Replicas:    replicas,
		ReadsPerSec: report.QPS(),
		Gomaxprocs:  runtime.GOMAXPROCS(0),
	}
	fmt.Printf("%s/readfan-%d/replicas-%d\t%s\n", label, n, replicas, report)
	return e, nil
}

// runStream measures the deployment's sustained aggregate ingest rate
// at every requested shard count, then the read-fan-out trajectory at
// every requested replica count.
func runStream(path, label string, shardCounts, replicaCounts []int) error {
	entries, err := loadStream(path)
	if err != nil {
		return err
	}
	base := liveHeap()
	for _, n := range benchdata.StreamSizes {
		for _, shards := range shardCounts {
			e, err := measureStream(label, n, shards, base)
			if err != nil {
				return err
			}
			if shards == 1 && n <= readFanN {
				if e.CheckpointBytes, err = measureCheckpoint(n); err != nil {
					return err
				}
				fmt.Printf("%s/stream-%d/shards-%d\tcheckpoint %d bytes (%d B/event)\n",
					label, n, shards, e.CheckpointBytes, e.CheckpointBytes/int64(e.Events))
			}
			entries = upsertStream(entries, e)
		}
	}
	for _, replicas := range replicaCounts {
		e, err := measureReadFanout(label, readFanN, replicas)
		if err != nil {
			return err
		}
		if replicas == 0 {
			// The primary's own read rate annotates its write row (same
			// key) instead of shadowing it with a reads-only entry.
			merged := false
			for i := range entries {
				if entries[i].Label == label && entries[i].N == e.N &&
					entries[i].Shards == 1 && entries[i].Replicas == 0 {
					entries[i].ReadsPerSec = e.ReadsPerSec
					merged = true
				}
			}
			if merged {
				continue
			}
		}
		entries = upsertStream(entries, e)
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].N != entries[b].N {
			return entries[a].N < entries[b].N
		}
		if entries[a].Shards != entries[b].Shards {
			return entries[a].Shards < entries[b].Shards
		}
		if entries[a].Replicas != entries[b].Replicas {
			return entries[a].Replicas < entries[b].Replicas
		}
		return entries[a].Label < entries[b].Label
	})
	raw, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// upsertStream merges one point in place: an existing entry with the
// same (label, n, shards, replicas) is replaced, never duplicated.
func upsertStream(entries []StreamEntry, e StreamEntry) []StreamEntry {
	for i, old := range entries {
		if old.Label == e.Label && old.N == e.N && old.Shards == e.Shards && old.Replicas == e.Replicas {
			entries[i] = e
			return entries
		}
	}
	return append(entries, e)
}

// runGuard is the CI canary: flat per-event cost means the 10k point
// stays within guardMaxRatio of the 1k point, the 10k deployment's live
// heap stays within guardMaxHeapPerEvent, and its checkpoint within
// guardMaxCheckpointPerEvent.
func runGuard() error {
	base := liveHeap()
	small, err := measureStream("guard", 1000, 1, base)
	if err != nil {
		return err
	}
	big, err := measureStream("guard", 10000, 1, base)
	if err != nil {
		return err
	}
	ratio := float64(big.NsPerEvent) / float64(small.NsPerEvent)
	fmt.Printf("guard: ns/event %d -> %d across a decade (ratio %.2f, limit %.2f)\n",
		small.NsPerEvent, big.NsPerEvent, ratio, guardMaxRatio)
	if ratio > guardMaxRatio {
		return fmt.Errorf("superlinear ingest: ns/event grew %.2fx from n=1k to n=10k (limit %.2fx)",
			ratio, guardMaxRatio)
	}
	perEvent := big.HeapAllocBytes / uint64(big.Events)
	fmt.Printf("guard: live heap %d bytes/event at n=10k (limit %d)\n", perEvent, guardMaxHeapPerEvent)
	if perEvent > guardMaxHeapPerEvent {
		return fmt.Errorf("live heap %d bytes/event at n=10k exceeds %d", perEvent, guardMaxHeapPerEvent)
	}
	ckptBytes, err := measureCheckpoint(10000)
	if err != nil {
		return err
	}
	ckptPerEvent := float64(ckptBytes) / float64(big.Events)
	fmt.Printf("guard: checkpoint %.1f bytes/event at n=10k (limit %d)\n", ckptPerEvent, guardMaxCheckpointPerEvent)
	if ckptPerEvent > guardMaxCheckpointPerEvent {
		return fmt.Errorf("checkpoint %.1f bytes/event at n=10k exceeds %d", ckptPerEvent, guardMaxCheckpointPerEvent)
	}
	return nil
}

func loadStream(path string) ([]StreamEntry, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var entries []StreamEntry
	if err := json.Unmarshal(raw, &entries); err != nil {
		return nil, fmt.Errorf("parsing existing %s: %w", path, err)
	}
	// Entries written before the shards dimension existed measured the
	// unsharded service; normalize so the upsert key never aliases.
	for i := range entries {
		if entries[i].Shards == 0 {
			entries[i].Shards = 1
		}
	}
	return entries, nil
}

func run(path, label string) error {
	entries, err := load(path)
	if err != nil {
		return err
	}
	cfg := bcluster.DefaultConfig()

	measure := func(bench string, n int, cluster func([]bcluster.Input, bcluster.Config) (*bcluster.Result, error)) error {
		// Fresh profiles per point: the first clustering run interns each
		// profile's FeatureSet, subsequent iterations measure the hot path
		// — the same steady state the enrichment pipeline runs in.
		inputs := benchdata.Profiles(n)
		res, err := cluster(inputs, cfg)
		if err != nil {
			return err
		}
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cluster(inputs, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		e := Entry{
			Label:          label,
			Bench:          bench,
			N:              n,
			NsPerOp:        br.NsPerOp(),
			BytesPerOp:     br.AllocedBytesPerOp(),
			AllocsPerOp:    br.AllocsPerOp(),
			CandidatePairs: res.Stats.CandidatePairs,
			Links:          res.Stats.Links,
			Clusters:       len(res.Clusters),
			Gomaxprocs:     runtime.GOMAXPROCS(0),
		}
		entries = upsert(entries, e)
		fmt.Printf("%s/%s-%d\t%d ns/op\t%d B/op\t%d allocs/op\tpairs=%d links=%d clusters=%d\n",
			e.Label, e.Bench, e.N, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp,
			e.CandidatePairs, e.Links, e.Clusters)
		return nil
	}

	for _, n := range benchdata.RunSizes {
		if err := measure("run", n, bcluster.Run); err != nil {
			return err
		}
	}
	for _, n := range benchdata.ExactSizes {
		if err := measure("exact", n, bcluster.RunExact); err != nil {
			return err
		}
	}
	return save(path, entries)
}

func load(path string) ([]Entry, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var entries []Entry
	if err := json.Unmarshal(raw, &entries); err != nil {
		return nil, fmt.Errorf("parsing existing %s: %w", path, err)
	}
	return entries, nil
}

func upsert(entries []Entry, e Entry) []Entry {
	for i, old := range entries {
		if old.Label == e.Label && old.Bench == e.Bench && old.N == e.N {
			entries[i] = e
			return entries
		}
	}
	return append(entries, e)
}

func save(path string, entries []Entry) error {
	sort.Slice(entries, func(a, b int) bool {
		x, y := entries[a], entries[b]
		if x.Bench != y.Bench {
			return x.Bench < y.Bench // "exact", then "lsh", then "run"
		}
		if x.N != y.N {
			return x.N < y.N
		}
		return x.Label < y.Label
	})
	raw, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
