package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/behavior"
	"repro/internal/ckpt"
	"repro/internal/dataset"
	"repro/internal/faultfs"
	"repro/internal/stream"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started; Bytes is the payload size of I/O spans.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps one leg's spans in memory. Its root span covers the leg;
// spans fired inside the service's own goroutines (filesystem calls,
// enrichment) are parented to the root, since their cause — which
// request's apply — is not visible from outside the service.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	trace uint64
	next  uint64
	spans []span
	// ops counts and times, by name, calls too small and too many to
	// keep as spans (a dataset insert, an EPM add).
	ops map[string]opStat
}

// rootID is the ID of every tracer's root span.
const rootID = 1

func newTracer(trace uint64) *tracer {
	return &tracer{t0: time.Now(), trace: trace, next: rootID + 1, ops: map[string]opStat{}}
}

// end closes the root span; call it once the leg is done.
func (t *tracer) end(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Trace: t.trace, ID: rootID, Name: name, End: int64(time.Since(t.t0))})
}

// timed runs fn inside a span named name.
func (t *tracer) timed(name string, bytes int64, fn func() error) error {
	start := time.Since(t.t0)
	err := fn()
	end := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Trace: t.trace, ID: t.next, Parent: rootID, Name: name, Start: int64(start), End: int64(end), Bytes: bytes})
	t.next++
	return err
}

// observe records one call's duration without a span.
func (t *tracer) observe(name string, d time.Duration) {
	t.mu.Lock()
	st := t.ops[name]
	st.Count++
	st.TotalNS += int64(d)
	t.ops[name] = st
	t.mu.Unlock()
}

// mean returns the mean duration of the calls observed under name.
func (t *tracer) mean(name string) (time.Duration, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.ops[name]
	if st.Count == 0 {
		return 0, 0
	}
	return time.Duration(st.TotalNS / int64(st.Count)), st.Count
}

// named returns the spans called name, in completion order.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children's spans cover (overlapping children
// count once).
func selfTimes(spans []span) map[uint64]time.Duration {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		var covered, reach int64 = 0, s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// traceFile is what a traced run writes to <dir>/<workload>.trace.json.
type traceFile struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Spans    []span            `json:"spans"`
	Ops      map[string]opStat `json:"ops"`
}

type opStat struct {
	Count   int   `json:"count"`
	TotalNS int64 `json:"total_ns"`
}

func writeTrace(dir, workload string, seed uint64, legs ...*tracer) error {
	f := traceFile{Workload: workload, Seed: seed, Ops: map[string]opStat{}}
	for _, t := range legs {
		t.mu.Lock()
		f.Spans = append(f.Spans, t.spans...)
		for name, st := range t.ops {
			f.Ops[name] = st
		}
		t.mu.Unlock()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), raw, 0o644)
}

// timingFS wraps the os passthrough and times the durability chain's
// writes, fsyncs and checkpoint reads, naming each span after the file
// it touches: WAL segments, checkpoint temp files, the live checkpoint.
type timingFS struct {
	faultfs.FS
	t *tracer
}

func newTimingFS(t *tracer) timingFS { return timingFS{FS: faultfs.OS, t: t} }

// layerOf names the file's layer: "wal", "ckpt", or "" for files and
// directories the benchmark does not time.
func layerOf(name string) string {
	base := filepath.Base(name)
	switch {
	case strings.HasSuffix(base, ".wal"):
		return "wal"
	case strings.HasPrefix(base, ckpt.Name):
		return "ckpt"
	}
	return ""
}

func (fs timingFS) wrap(f faultfs.File, err error) (faultfs.File, error) {
	if err != nil {
		return nil, err
	}
	return timedFile{File: f, t: fs.t, layer: layerOf(f.Name())}, nil
}

func (fs timingFS) Open(name string) (faultfs.File, error) { return fs.wrap(fs.FS.Open(name)) }
func (fs timingFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	return fs.wrap(fs.FS.OpenFile(name, flag, perm))
}
func (fs timingFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	return fs.wrap(fs.FS.CreateTemp(dir, pattern))
}

// ReadFile times whole-file reads of checkpoints: recovery's load.
func (fs timingFS) ReadFile(name string) ([]byte, error) {
	if layerOf(name) != "ckpt" {
		return fs.FS.ReadFile(name)
	}
	var raw []byte
	err := fs.t.timed("ckpt.load", 0, func() (err error) {
		raw, err = fs.FS.ReadFile(name)
		return err
	})
	return raw, err
}

type timedFile struct {
	faultfs.File
	t     *tracer
	layer string
}

func (f timedFile) Write(p []byte) (int, error) {
	if f.layer == "" {
		return f.File.Write(p)
	}
	var n int
	err := f.t.timed(f.layer+".write", int64(len(p)), func() (err error) {
		n, err = f.File.Write(p)
		return err
	})
	return n, err
}

func (f timedFile) Sync() error {
	if f.layer == "" {
		return f.File.Sync()
	}
	return f.t.timed(f.layer+".fsync", 0, f.File.Sync)
}

// timedEnricher times the service's enrichment callbacks.
type timedEnricher struct {
	inner stream.Enricher
	t     *tracer
}

func (e timedEnricher) LabelSample(s *dataset.Sample) error {
	return e.t.timed("enrich.label", 0, func() error { return e.inner.LabelSample(s) })
}

func (e timedEnricher) ExecuteSample(s *dataset.Sample) (*behavior.Profile, bool, error) {
	var p *behavior.Profile
	var degraded bool
	err := e.t.timed("enrich.exec", 0, func() (err error) {
		p, degraded, err = e.inner.ExecuteSample(s)
		return err
	})
	return p, degraded, err
}
