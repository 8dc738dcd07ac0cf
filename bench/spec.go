package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
)

// e2eMetrics are the end-to-end metrics every untraced run reports, in
// the order it reports them.
var e2eMetrics = []string{
	"setup_s",
	"apply_lag_p50_ms",
	"rss_peak_mb", "disk_mb",
}

// layerMetrics are the per-layer metrics every traced run reports.
var layerMetrics = []string{
	"httpapi.ingest_decode_p50_us", "httpapi.view_encode_p50_us", "httpapi.view_bytes",
	"stream.ingest_call_p50_us", "stream.ingest_call_p99_us", "stream.max_queue_depth",
	"stream.ns_per_event", "stream.flush_ms", "stream.recover_ms",
	"stream.sample_query_p50_us", "stream.view_query_p50_us",
	"wal.encode_p50_us", "wal.write_p50_us", "wal.record_bytes", "wal.appends",
	"wal.fsync_p50_us", "wal.fsync_p99_us",
	"ckpt.write_p50_ms", "ckpt.write_max_ms", "ckpt.fsync_p50_ms", "ckpt.bytes", "ckpt.count", "ckpt.load_ms",
	"enrich.label_p50_us", "enrich.exec_p50_us", "enrich.exec_p99_us", "enrich.exec_count",
	"epm.add_ns", "epm.epoch_p50_ms", "epm.epoch_p99_ms", "epm.delta_epochs", "epm.full_regroups", "epm.merge_ms",
	"bcluster.add_us", "bcluster.verify_p50_ms", "bcluster.verify_p99_ms",
	"bcluster.candidate_pairs", "bcluster.links", "bcluster.link_yield",
	"bcluster.merge_ms", "bcluster.result_us",
	"dataset.add_ns",
	"shard.view_dirty_ms", "shard.view_clean_us", "shard.event_skew",
	"admission.rejected",
	"loadgen.ack_p50_ms", "loadgen.ack_p90_ms", "loadgen.apply_lag_p90_ms", "loadgen.late_p99_ms",
	"trace.overhead_frac", "trace.coverage",
}

// spec is BENCHMARK.json.
type spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specLoad   `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) > 64<<10 {
		return nil, fmt.Errorf("%s is %d bytes, over 64 KiB", path, len(raw))
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var s spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// validate checks the declaration's own limits and that it declares
// exactly the workloads and metrics this driver runs and reports.
func (s *spec) validate() error {
	if n := len(s.Command); n < 1 || n > 32 {
		return fmt.Errorf("command has %d entries, want 1..32", n)
	}
	for _, c := range s.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			return fmt.Errorf("command entry %q", c)
		}
	}
	if n := len(s.Paths); n < 1 || n > 16 {
		return fmt.Errorf("paths has %d entries, want 1..16", n)
	}
	for _, p := range s.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			return fmt.Errorf("path %q", p)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1..60", s.RunSeconds)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1..128", n)
	}
	names := map[string]bool{}
	unique := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("name %q does not match %s", name, nameRE)
		}
		if names[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		names[name] = true
		return nil
	}
	var loads []string
	for _, w := range s.Workloads {
		if err := unique(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			return fmt.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
		loads = append(loads, w.Name)
	}
	var driverLoads []string
	for _, w := range workloads {
		driverLoads = append(driverLoads, w.name)
	}
	if err := sameNames("workloads", loads, driverLoads); err != nil {
		return err
	}
	check := func(kind string, ms []specMetric, bounded bool, want []string) error {
		var got []string
		for _, m := range ms {
			if err := unique(m.Name); err != nil {
				return err
			}
			if !unitRE.MatchString(m.Unit) {
				return fmt.Errorf("metric %s: unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				return fmt.Errorf("metric %s: better %q", m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) {
				return fmt.Errorf("metric %s: %s metrics %s a bound", m.Name, kind, map[bool]string{true: "need", false: "take no"}[bounded])
			}
			if bounded && (*m.Bound <= 0 || *m.Bound > 0.25) {
				return fmt.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
			}
			got = append(got, m.Name)
		}
		return sameNames(kind+" metrics", got, want)
	}
	if err := check("end_to_end", s.EndToEnd, true, e2eMetrics); err != nil {
		return err
	}
	if err := check("per_layer", s.PerLayer, false, layerMetrics); err != nil {
		return err
	}
	setup, ok := s.bound("setup_s")
	if !ok {
		return fmt.Errorf("no setup_s metric")
	}
	for _, m := range s.EndToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			return fmt.Errorf("setup_s must be in s, lower better")
		}
		if *m.Bound > setup {
			return fmt.Errorf("metric %s has a larger bound than setup_s", m.Name)
		}
	}
	return nil
}

// bound returns the regression bound of an end-to-end metric.
func (s *spec) bound(name string) (float64, bool) {
	for _, m := range s.EndToEnd {
		if m.Name == name && m.Bound != nil {
			return *m.Bound, true
		}
	}
	return 0, false
}

func sameNames(what string, got, want []string) error {
	if strings.Join(got, ",") != strings.Join(want, ",") {
		return fmt.Errorf("%s declared as %v, the driver runs %v", what, got, want)
	}
	return nil
}
