package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/bench/synth"
	"repro/internal/bcluster"
	"repro/internal/dataset"
	"repro/internal/epm"
	"repro/internal/httpapi"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/wal"
)

// The traced run's in-process legs. They time calls into each module's
// public functions from outside the modules, on the workload's own
// events and batch sizes:
//
//   - the service leg runs the workload's daemon configuration
//     in-process, with a timing filesystem under the WAL and checkpoints
//     and a timing enricher, and drives ingest, flush, queries through
//     the HTTP handler, checkpoint, close and recovery;
//   - the untraced repeat runs the service leg again without the
//     wrappers, which prices the tracing;
//   - the engine leg feeds the same events straight into dataset, EPM,
//     B, WAL framing and the merges, on the service's epoch schedule
//     and shard routing;
//   - the HTTP leg prices request decoding and view encoding alone.

const (
	// legQueries is how many analyst queries the service leg sends
	// through the HTTP handler, and how many direct view and sample
	// calls it makes.
	legQueries = 250
	// probeBatches are held back from the service leg's ingest to time a
	// view right after a write and again with no write in between; on
	// four shards each dirty view is a full merge, seconds at full size.
	probeBatches = 4
	// fsyncProbes bounds the standalone WAL appends with fsync on.
	fsyncProbes = 300
	// epochSize is the service's epoch trigger (stream.DefaultConfig).
	epochSize = 256
	// legClient is the client key the daemon derives for loopback
	// requests, so in-process ingest takes the same admission path.
	legClient = "127.0.0.1"
)

// runTraced runs the in-process legs, writes their spans to
// <dir>/<workload>.trace.json and returns the per-layer metrics, with
// the load generator's view of the end-to-end run e2e.
func runTraced(ctx context.Context, e env, w workload, seed uint64, seconds float64, dir string, e2e *result) ([]metric, error) {
	in, err := w.makeInputs(seed, seconds)
	if err != nil {
		return nil, err
	}
	batches := in.open
	freeMemory()
	plain, err := serviceLeg(ctx, w, in, seed, batches, filepath.Join(e.workDir, "leg-plain"), nil)
	if err != nil {
		return nil, fmt.Errorf("untraced service leg: %w", err)
	}
	freeMemory()
	st := newTracer(1)
	svc, err := serviceLeg(ctx, w, in, seed, batches, filepath.Join(e.workDir, "leg-traced"), st)
	st.end("service")
	if err != nil {
		return nil, fmt.Errorf("traced service leg: %w", err)
	}
	freeMemory()
	et := newTracer(2)
	eng, err := engineLeg(w, in, batches, filepath.Join(e.workDir, "leg-engine"), et, svc.ckptBytes)
	et.end("engine")
	if err != nil {
		return nil, fmt.Errorf("engine leg: %w", err)
	}
	ht := newTracer(3)
	viewBytes, err := httpLeg(in, &svc.views, ht)
	ht.end("httpapi")
	if err != nil {
		return nil, fmt.Errorf("http leg: %w", err)
	}
	if err := writeTrace(dir, w.name, seed, st, et, ht); err != nil {
		return nil, err
	}

	var out []metric
	add := func(name, unit string, v float64, n int) {
		out = append(out, metric{name: name, unit: unit, value: v, n: n})
	}
	pct := func(t *tracer, name string, q float64, unit time.Duration) {
		xs := inUnit(t.named(name), unit)
		add(metricName(name, q, unit), unitName(unit), layerPercentile(xs, q), len(xs))
	}
	// med reports the median call of spans too few for a percentile name.
	med := func(t *tracer, name string, unit time.Duration) {
		xs := inUnit(t.named(name), unit)
		add(name+"_"+unitName(unit), unitName(unit), layerPercentile(xs, 0.5), len(xs))
	}
	total := func(t *tracer, name string, unit time.Duration) float64 {
		var sum time.Duration
		for _, s := range t.named(name) {
			sum += s.dur()
		}
		return float64(sum) / float64(unit)
	}
	mean := func(t *tracer, name string, unit time.Duration) {
		d, n := t.mean(name)
		add(name+"_"+unitName(unit), unitName(unit), float64(d)/float64(unit), n)
	}

	pct(ht, "httpapi.ingest_decode", 0.5, time.Microsecond)
	pct(ht, "httpapi.view_encode", 0.5, time.Microsecond)
	add("httpapi.view_bytes", "bytes", float64(viewBytes), 0)

	pct(st, "stream.ingest_call", 0.5, time.Microsecond)
	pct(st, "stream.ingest_call", 0.99, time.Microsecond)
	maxQueue, applied := 0, 0
	var perShard []float64
	rejected := 0
	for _, s := range svc.stats {
		maxQueue = max(maxQueue, s.MaxQueueDepth)
		applied += s.Events
		perShard = append(perShard, float64(s.Events))
		for _, n := range s.Admission.RejectedBatches {
			rejected += n
		}
	}
	add("stream.max_queue_depth", "count", float64(maxQueue), 0)
	add("stream.ns_per_event", "ns", float64(plain.ingestFlush.Nanoseconds())/float64(plain.events), plain.events)
	add("stream.flush_ms", "ms", total(st, "stream.flush", time.Millisecond), 0)
	add("stream.recover_ms", "ms", total(st, "stream.recover", time.Millisecond), 0)
	pct(st, "stream.sample_query", 0.5, time.Microsecond)
	pct(st, "stream.view_query", 0.5, time.Microsecond)

	pct(et, "wal.encode", 0.5, time.Microsecond)
	pct(st, "wal.write", 0.5, time.Microsecond)
	walWrites := st.named("wal.write")
	add("wal.record_bytes", "bytes", medianBytes(walWrites), len(walWrites))
	add("wal.appends", "count", float64(len(walWrites)), 0)
	pct(et, "wal.fsync", 0.5, time.Microsecond)
	pct(et, "wal.fsync", 0.99, time.Microsecond)

	pct(st, "ckpt.write", 0.5, time.Millisecond)
	ckptWrites := st.named("ckpt.write")
	add("ckpt.write_max_ms", "ms", maxOf(inUnit(ckptWrites, time.Millisecond)), len(ckptWrites))
	pct(et, "ckpt.fsync", 0.5, time.Millisecond)
	add("ckpt.bytes", "bytes", medianBytes(ckptWrites), len(ckptWrites))
	add("ckpt.count", "count", float64(len(ckptWrites)), 0)
	add("ckpt.load_ms", "ms", total(st, "ckpt.load", time.Millisecond), 0)

	pct(st, "enrich.label", 0.5, time.Microsecond)
	pct(st, "enrich.exec", 0.5, time.Microsecond)
	pct(st, "enrich.exec", 0.99, time.Microsecond)
	add("enrich.exec_count", "count", float64(len(st.named("enrich.exec"))), 0)

	mean(et, "epm.add", time.Nanosecond)
	pct(et, "epm.epoch", 0.5, time.Millisecond)
	pct(et, "epm.epoch", 0.99, time.Millisecond)
	add("epm.delta_epochs", "count", float64(eng.deltaEpochs), 0)
	add("epm.full_regroups", "count", float64(eng.fullRegroups), 0)
	med(et, "epm.merge", time.Millisecond)

	mean(et, "bcluster.add", time.Microsecond)
	pct(et, "bcluster.verify", 0.5, time.Millisecond)
	pct(et, "bcluster.verify", 0.99, time.Millisecond)
	add("bcluster.candidate_pairs", "count", float64(eng.b.CandidatePairs), 0)
	add("bcluster.links", "count", float64(eng.b.Links), 0)
	add("bcluster.link_yield", "ratio", float64(eng.b.Links)/float64(max(eng.b.CandidatePairs, 1)), eng.b.CandidatePairs)
	med(et, "bcluster.merge", time.Millisecond)
	med(et, "bcluster.result", time.Microsecond)

	mean(et, "dataset.add", time.Nanosecond)

	med(st, "shard.view_dirty", time.Millisecond)
	med(st, "shard.view_clean", time.Microsecond)
	add("shard.event_skew", "ratio", maxOf(perShard)/(float64(applied)/float64(len(perShard))), len(perShard))
	add("admission.rejected", "count", float64(rejected), 0)
	add("loadgen.ack_p50_ms", "ms", layerPercentile(e2e.acks, 0.5), len(e2e.acks))
	add("loadgen.ack_p90_ms", "ms", layerPercentile(e2e.acks, 0.9), len(e2e.acks))
	add("loadgen.apply_lag_p90_ms", "ms", layerPercentile(e2e.lags, 0.9), len(e2e.lags))
	add("loadgen.late_p99_ms", "ms", layerPercentile(e2e.late, 0.99), len(e2e.late))

	var self time.Duration
	st.mu.Lock()
	selfs := selfTimes(st.spans)
	st.mu.Unlock()
	for id, d := range selfs {
		if id != rootID {
			self += d
		}
	}
	add("trace.overhead_frac", "ratio", svc.wall.Seconds()/plain.wall.Seconds()-1, 0)
	add("trace.coverage", "ratio", self.Seconds()/plain.wall.Seconds(), 0)
	return out, nil
}

// shardStats returns every shard's own counters, which unlike the
// coordinator's aggregate never trigger a merge.
func shardStats(b synth.Backend) []stream.Stats {
	switch v := b.(type) {
	case *stream.Service:
		return []stream.Stats{v.Stats()}
	case *shard.Coordinator:
		out := make([]stream.Stats, v.Shards())
		for i := range out {
			out[i] = v.Shard(i).Stats()
		}
		return out
	}
	return nil
}

func appliedEvents(b synth.Backend) int {
	n := 0
	for _, s := range shardStats(b) {
		n += s.Events
	}
	return n
}

// serviceRun is what the service leg measured.
type serviceRun struct {
	wall, ingestFlush time.Duration
	events            int
	stats             []stream.Stats
	views             stubBackend // the final views, for the HTTP leg
	ckptBytes         int
}

// serviceLeg runs the workload's service configuration in-process. With
// t nil it runs untraced.
func serviceLeg(ctx context.Context, w workload, in *inputs, seed uint64, batches []synth.Batch, dir string, t *tracer) (*serviceRun, error) {
	cfg := stream.DefaultConfig()
	cfg.Thresholds, cfg.BCluster = in.th, in.bcfg
	cfg.Durability = stream.Durability{Dir: dir, CheckpointEvery: w.ckptEvery, NoSync: !w.sync}
	enr := stream.Enricher(in.enricher)
	call := func(name string, fn func() error) error { return fn() }
	if t != nil {
		cfg.Durability.FS = newTimingFS(t)
		enr = timedEnricher{inner: enr, t: t}
		call = func(name string, fn func() error) error { return t.timed(name, 0, fn) }
	}
	run := &serviceRun{}
	start := time.Now()
	var b synth.Backend
	if err := call("stream.open", func() (err error) {
		b, err = synth.OpenBackend(cfg, w.shards, enr)
		return err
	}); err != nil {
		return nil, err
	}
	defer func() {
		if b != nil {
			b.Close()
		}
	}()
	body, probes := batches[:len(batches)-probeBatches], batches[len(batches)-probeBatches:]
	ingested := time.Now()
	for _, bt := range body {
		if err := call("stream.ingest_call", func() error { return b.IngestFrom(ctx, legClient, bt.Events) }); err != nil {
			return nil, err
		}
		run.events += len(bt.Events)
	}
	if err := call("stream.flush", func() error { return b.Flush(ctx) }); err != nil {
		return nil, err
	}
	run.ingestFlush = time.Since(ingested)

	h := httpapi.New(func() httpapi.Backend { return b }, httpapi.Options{})
	pick := in.picker(seed)
	for i := 0; i < legQueries; i++ {
		path := "/v1/sample/" + pick()
		if i%5 < 4 {
			path = "/v1/clusters/" + viewDims[i%5]
		}
		if err := call("httpapi.query", func() error { return serve(h, http.MethodGet, path, nil, nil) }); err != nil {
			return nil, err
		}
	}
	for i := 0; i < legQueries; i++ {
		if err := call("stream.sample_query", func() error {
			if _, ok := b.Sample(pick()); !ok {
				return fmt.Errorf("sample query found nothing")
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if err := call("stream.view_query", func() error { return queryView(b, viewDims[i%4]) }); err != nil {
			return nil, err
		}
	}
	// A view right after a write pays whatever the write invalidated; the
	// same view again pays only what is cached.
	for _, bt := range probes {
		if err := call("stream.ingest_call", func() error { return b.IngestFrom(ctx, legClient, bt.Events) }); err != nil {
			return nil, err
		}
		run.events += len(bt.Events)
		for deadline := time.Now().Add(drainTimeout); appliedEvents(b) < run.events; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("probe batch not applied after %v", drainTimeout)
			}
		}
		for _, name := range []string{"shard.view_dirty", "shard.view_clean"} {
			if err := call(name, func() error { return allViews(b) }); err != nil {
				return nil, err
			}
		}
	}
	if err := b.Flush(ctx); err != nil {
		return nil, err
	}
	for d, name := range viewDims[:3] {
		v, err := b.EPMClusters(name)
		if err != nil {
			return nil, err
		}
		run.views.epm[d] = v
	}
	run.views.b = b.BClusters()
	run.stats = shardStats(b)
	if err := call("stream.checkpoint", func() error { return b.Checkpoint(ctx) }); err != nil {
		return nil, err
	}
	call("stream.close", func() error { b.Close(); return nil })
	b = nil
	if err := call("stream.recover", func() (err error) {
		b, err = synth.OpenBackend(cfg, w.shards, enr)
		return err
	}); err != nil {
		return nil, err
	}
	if got := appliedEvents(b); got != run.events {
		return nil, fmt.Errorf("recovered %d events, ingested %d", got, run.events)
	}
	if t != nil {
		run.ckptBytes = int(medianBytes(t.named("ckpt.write")))
	}
	run.wall = time.Since(start)
	return run, nil
}

// queryView reads one view through the backend.
func queryView(b synth.Backend, dim string) error {
	if dim == "b" {
		b.BClusters()
		return nil
	}
	_, err := b.EPMClusters(dim)
	return err
}

func allViews(b synth.Backend) error {
	for _, d := range viewDims {
		if err := queryView(b, d); err != nil {
			return err
		}
	}
	return nil
}

// serve runs one request through h and fails on a non-2xx answer;
// bytes, when not nil, receives the answer's size.
func serve(h http.Handler, method, path string, body []byte, bytesOut *int) error {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code/100 != 2 {
		return fmt.Errorf("%s %s: %d %s", method, path, rec.Code, rec.Body.String())
	}
	if bytesOut != nil {
		*bytesOut = rec.Body.Len()
	}
	return nil
}

// engineRun is what the engine leg counted.
type engineRun struct {
	deltaEpochs, fullRegroups int
	b                         bcluster.Stats
}

// engineDim mirrors the service's per-dimension epoch schedule: an
// instance the current patterns classify is placed at once, any other
// waits, and epochSize waiting instances trigger an epoch.
type engineDim struct {
	eng     *epm.Incremental
	cur     *epm.Clustering
	pending int
}

type enginePart struct {
	ds   *dataset.Dataset
	dims [3]*engineDim
	b    *bcluster.Incremental
}

// frameSink keeps the encoded WAL frame live so the compiler cannot
// drop the encoding the engine leg times.
var frameSink []byte

// walRecord is the service's WAL payload shape (stream's walRecord).
type walRecord struct {
	Kind   string          `json:"kind"`
	Events []dataset.Event `json:"events,omitempty"`
	Client string          `json:"client,omitempty"`
}

// engineLeg feeds the leg's events straight into the engines, routed as
// the coordinator routes them, then merges the parts. It also appends
// the WAL records to a standalone log with fsync on and fsyncs
// checkpoint-sized files, so the fsync costs are measured on every
// workload whether or not its daemon syncs.
func engineLeg(w workload, in *inputs, batches []synth.Batch, dir string, t *tracer, ckptBytes int) (*engineRun, error) {
	parts := make([]*enginePart, w.shards)
	for i := range parts {
		p := &enginePart{ds: dataset.New()}
		for d, schema := range []epm.Schema{dataset.EpsilonSchema, dataset.PiSchema, dataset.MuSchema} {
			eng, err := epm.NewIncremental(schema, in.th)
			if err != nil {
				return nil, err
			}
			p.dims[d] = &engineDim{eng: eng}
		}
		var err error
		if p.b, err = bcluster.NewIncremental(in.bcfg); err != nil {
			return nil, err
		}
		parts[i] = p
	}
	epoch := func(d *engineDim) error {
		return t.timed("epm.epoch", 0, func() error {
			d.cur, _ = d.eng.Epoch()
			d.pending = 0
			return nil
		})
	}
	verify := func(p *enginePart) error {
		return t.timed("bcluster.verify", 0, func() error { p.b.Verify(); return nil })
	}
	var payloads [][]byte
	for _, bt := range batches {
		var payload []byte
		if err := t.timed("wal.encode", 0, func() (err error) {
			payload, err = json.Marshal(walRecord{Kind: "batch", Events: bt.Events, Client: legClient})
			frameSink = wal.EncodeFrame(uint64(len(payloads)+1), payload)
			return err
		}); err != nil {
			return nil, err
		}
		if len(payloads) < fsyncProbes {
			payloads = append(payloads, payload)
		}

		fresh := make([][]*dataset.Sample, len(parts))
		for _, e := range bt.Events {
			pi := 0
			if len(parts) > 1 {
				pi = shard.ShardOf(shard.RouteKey(&e), len(parts))
			}
			p := parts[pi]
			isNew := e.HasSample() && p.ds.Sample(e.Sample.MD5) == nil
			start := time.Now()
			if err := p.ds.AddEvent(e); err != nil {
				return nil, err
			}
			t.observe("dataset.add", time.Since(start))
			ins := [3]epm.Instance{e.EpsilonInstance(), e.PiInstance()}
			mu, hasMu := e.MuInstance()
			ins[2] = mu
			for d, dim := range p.dims {
				if d == 2 && !hasMu {
					continue
				}
				start := time.Now()
				if err := dim.eng.AddTrusted(ins[d]); err != nil {
					return nil, err
				}
				classified := false
				if dim.cur != nil {
					_, _, classified = dim.cur.Classify(ins[d].Values)
				}
				t.observe("epm.add", time.Since(start))
				if !classified {
					dim.pending++
				}
			}
			for _, dim := range p.dims {
				if dim.pending >= epochSize {
					if err := epoch(dim); err != nil {
						return nil, err
					}
				}
			}
			if isNew {
				fresh[pi] = append(fresh[pi], p.ds.Sample(e.Sample.MD5))
			}
		}
		for pi, samples := range fresh {
			p := parts[pi]
			for _, smp := range samples {
				if err := in.enricher.LabelSample(smp); err != nil || !smp.Executable {
					continue
				}
				prof, _, err := in.enricher.ExecuteSample(smp)
				if err != nil {
					continue
				}
				start := time.Now()
				if err := p.b.Add(bcluster.Input{ID: smp.MD5, Profile: prof}); err != nil {
					return nil, err
				}
				t.observe("bcluster.add", time.Since(start))
				if p.b.Pending() >= epochSize {
					if err := verify(p); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	// The flush: every dimension that grew since its last epoch, and
	// every parked sample.
	run := &engineRun{}
	for _, p := range parts {
		for _, dim := range p.dims {
			if dim.eng.Pending() > 0 {
				if err := epoch(dim); err != nil {
					return nil, err
				}
			}
			run.deltaEpochs += dim.eng.DeltaEpochs()
			run.fullRegroups += dim.eng.FullRegroups()
		}
		if err := verify(p); err != nil {
			return nil, err
		}
		st := p.b.Stats()
		run.b.CandidatePairs += st.CandidatePairs
		run.b.Links += st.Links
	}
	for r := 0; r < 2; r++ {
		if err := t.timed("epm.merge", 0, func() error {
			for d := 0; d < 3; d++ {
				engines := make([]*epm.Incremental, len(parts))
				for i, p := range parts {
					engines[i] = p.dims[d].eng
				}
				if _, err := epm.Merge(engines); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		bs := make([]*bcluster.Incremental, len(parts))
		for i, p := range parts {
			bs[i] = p.b
		}
		if err := t.timed("bcluster.merge", 0, func() error { _, err := bcluster.Merge(bs); return err }); err != nil {
			return nil, err
		}
		for _, p := range parts {
			t.timed("bcluster.result", 0, func() error { p.b.Result(); return nil })
		}
	}
	return run, standaloneFsyncs(dir, payloads, ckptBytes, t)
}

// standaloneFsyncs appends WAL payloads to a fresh log with fsync on,
// and writes and fsyncs five checkpoint-sized files, through the timing
// filesystem.
func standaloneFsyncs(dir string, payloads [][]byte, ckptBytes int, t *tracer) error {
	fs := newTimingFS(t)
	log, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), FS: fs})
	if err != nil {
		return err
	}
	for _, p := range payloads {
		if _, err := log.Append(p); err != nil {
			log.Close()
			return err
		}
	}
	if err := log.Close(); err != nil {
		return err
	}
	blob := make([]byte, max(ckptBytes, 1))
	for i := 0; i < 5; i++ {
		f, err := fs.CreateTemp(dir, "checkpoint.json.tmp-")
		if err != nil {
			return err
		}
		_, werr := f.Write(blob)
		serr := f.Sync()
		cerr := f.Close()
		os.Remove(f.Name())
		for _, err := range []error{werr, serr, cerr} {
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// stubBackend accepts every batch and serves fixed, already decoded
// views, so a request through the handler prices the HTTP layer alone.
type stubBackend struct {
	epm [3]stream.EPMView
	b   stream.BView
}

func (*stubBackend) IngestFrom(context.Context, string, []dataset.Event) error { return nil }
func (*stubBackend) Flush(context.Context) error                               { return nil }
func (*stubBackend) Checkpoint(context.Context) error                          { return nil }
func (s *stubBackend) EPMClusters(dim string) (stream.EPMView, error) {
	for d, name := range viewDims[:3] {
		if name == dim {
			return s.epm[d], nil
		}
	}
	return stream.EPMView{}, fmt.Errorf("unknown dimension %q", dim)
}
func (s *stubBackend) BClusters() stream.BView               { return s.b }
func (*stubBackend) Sample(string) (stream.SampleView, bool) { return stream.SampleView{}, false }
func (*stubBackend) StatsPayload() any                       { return nil }

// httpLeg times request decoding on the workload's ingest bodies and
// view encoding on the service leg's final views, and returns the size
// of the four views.
func httpLeg(in *inputs, stub *stubBackend, t *tracer) (int, error) {
	h := httpapi.New(func() httpapi.Backend { return stub }, httpapi.Options{})
	for i, bt := range in.open {
		if i == 500 {
			break
		}
		if err := t.timed("httpapi.ingest_decode", int64(len(bt.Body)), func() error {
			return serve(h, http.MethodPost, "/v1/ingest", bt.Body, nil)
		}); err != nil {
			return 0, err
		}
	}
	total := 0
	for r := 0; r < 25; r++ {
		for _, name := range viewDims {
			n := 0
			if err := t.timed("httpapi.view_encode", 0, func() error {
				return serve(h, http.MethodGet, "/v1/clusters/"+name, nil, &n)
			}); err != nil {
				return 0, err
			}
			if r == 0 {
				total += n
			}
		}
	}
	return total, nil
}

// freeMemory returns the previous leg's heap to the OS so legs do not
// stack their peaks.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// inUnit returns the spans' durations in unit.
func inUnit(spans []span, unit time.Duration) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / float64(unit)
	}
	return out
}

// layerPercentile is percentile for per-layer metrics. Where too few
// calls happened for a tail percentile to have ten beyond it, it reports
// the slowest call, and a median the plain median (0 for no calls); the
// printed count says which.
func layerPercentile(xs []float64, q float64) float64 {
	if q <= 0.5 {
		return median(xs)
	}
	if q < 1 {
		if v, err := percentile(xs, q); err == nil {
			return v
		}
	}
	return maxOf(xs)
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func medianBytes(spans []span) float64 {
	xs := make([]float64, len(spans))
	for i, s := range spans {
		xs[i] = float64(s.Bytes)
	}
	return median(xs)
}

func unitName(unit time.Duration) string {
	switch unit {
	case time.Nanosecond:
		return "ns"
	case time.Microsecond:
		return "us"
	case time.Millisecond:
		return "ms"
	}
	return "s"
}

// metricName names a percentile metric: stream.ingest_call at 0.99 in
// microseconds is stream.ingest_call_p99_us.
func metricName(span string, q float64, unit time.Duration) string {
	return fmt.Sprintf("%s_p%.0f_%s", span, q*100, unitName(unit))
}
