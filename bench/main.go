// Command bench is the repository's benchmark: it loads a landscape
// daemon, spawned as a child process, over loopback HTTP and reports
// the end-to-end metrics BENCHMARK.json declares, after checking the
// daemon's answers against the batch pipeline.
//
// Run it from the repository root through the wrapper, which builds the
// daemons and the driver under .bench_build first:
//
//	bash bench/run.sh --workload ingest-durable --seed 1 --seconds 12 --trace 0
//
// --trace 1 instead reports the per-layer metrics: after the same
// end-to-end run, it replays the workload in-process with spans around
// the calls into each module and writes them to
// <trace-dir>/<workload>.trace.json. --runs k repeats the end-to-end
// run on k consecutive seeds and prints each metric's spread against
// its bound. The last line of standard output is the result as JSON.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	name := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 12, "length of the measured open loop, in seconds (run_seconds in BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "traces"), "where the traced run writes <workload>.trace.json")
	runs := flag.Int("runs", 1, "repeat the end-to-end run on this many consecutive seeds and report each metric's spread")
	binDir := flag.String("bin", filepath.Join(".bench_build", "bin"), "directory holding the built synthd and landscaped")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark declaration, read for the metric bounds in -runs mode")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *trace, *traceDir, *runs, *binDir, *specPath); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, trace int, traceDir string, runs int, binDir, specPath string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds <= 0 || trace < 0 || trace > 1 || runs < 1 {
		return errors.New("want --seconds > 0, --trace 0 or 1, --runs >= 1")
	}
	for _, b := range []string{"synthd", "landscaped"} {
		if _, err := os.Stat(filepath.Join(binDir, b)); err != nil {
			return fmt.Errorf("missing daemon binary (build with bench/run.sh): %w", err)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	workDir := filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	e := env{binDir: binDir, workDir: workDir}

	if runs > 1 {
		s, err := loadSpec(specPath)
		if err != nil {
			return err
		}
		return repeatRuns(ctx, e, w, seed, seconds, runs, s)
	}
	res, err := runE2E(ctx, e, w, seed, seconds)
	if err != nil {
		return err
	}
	if err := checkEmitted(res.metrics, e2eMetrics); err != nil {
		return err
	}
	if trace == 1 {
		if res.metrics, err = runTraced(ctx, e, w, seed, seconds, traceDir, res); err != nil {
			return err
		}
		if err := checkEmitted(res.metrics, layerMetrics); err != nil {
			return err
		}
	}
	return printResult(res)
}

// printResult prints every metric with its unit and sample count, then
// the machine-readable result as the last line.
func printResult(res *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	for _, m := range res.metrics {
		count := ""
		if m.n > 0 {
			count = fmt.Sprintf("(n=%d)", m.n)
		}
		fmt.Printf("%-28s %14.4f %-9s %s\n", m.name, m.value, m.unit, count)
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}

// checkEmitted verifies a run reported exactly the declared metrics.
func checkEmitted(got []metric, want []string) error {
	seen := map[string]bool{}
	for _, m := range got {
		if seen[m.name] {
			return fmt.Errorf("metric %s reported twice", m.name)
		}
		seen[m.name] = true
	}
	for _, name := range want {
		if !seen[name] {
			return fmt.Errorf("metric %s not reported", name)
		}
		delete(seen, name)
	}
	for name := range seen {
		return fmt.Errorf("metric %s reported but not declared", name)
	}
	return nil
}
