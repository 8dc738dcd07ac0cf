package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// repeatRuns runs the end-to-end workload on seeds seed..seed+k-1 and
// prints each run's values, then for every metric the median, the
// quartiles, the quartile spread (q3-q1)/median and the range spread
// (max-min)/median. It fails when a quartile spread exceeds the
// metric's bound: a metric that moves that much between runs of one
// commit cannot catch a regression of that size.
func repeatRuns(ctx context.Context, e env, w workload, seed uint64, seconds float64, k int, s *spec) error {
	values := map[string][]float64{}
	units := map[string]string{}
	fmt.Printf("%-4s %-6s %-7s", "run", "seed", "steal")
	for _, name := range e2eMetrics {
		fmt.Printf(" %12s", strings.TrimSuffix(name, "_ms"))
	}
	fmt.Println()
	for i := 0; i < k; i++ {
		before, _ := cpuTicks()
		res, err := runE2E(ctx, e, w, seed+uint64(i), seconds)
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, seed+uint64(i), err)
		}
		after, _ := cpuTicks()
		fmt.Printf("%-4d %-6d %6.1f%%", i+1, seed+uint64(i), 100*after.stealShare(before))
		for _, m := range res.metrics {
			values[m.name] = append(values[m.name], m.value)
			units[m.name] = m.unit
		}
		for _, name := range e2eMetrics {
			fmt.Printf(" %12.4g", values[name][i])
		}
		fmt.Println()
	}
	fmt.Printf("\n%-18s %-9s %12s %12s %12s %8s %8s %6s\n", "metric", "unit", "median", "q1", "q3", "iqr/med", "rng/med", "bound")
	var over []string
	for _, name := range e2eMetrics {
		xs := values[name]
		med := median(xs)
		q1, q3 := quartiles(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = min(lo, x), max(hi, x)
		}
		bound, _ := s.bound(name)
		iqr, rng := (q3-q1)/med, (hi-lo)/med
		fmt.Printf("%-18s %-9s %12.4f %12.4f %12.4f %8.4f %8.4f %6.2f\n", name, units[name], med, q1, q3, iqr, rng, bound)
		if iqr > bound {
			over = append(over, name)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("spread over the bound for %v", over)
	}
	return nil
}

// ticks is the machine's cumulative CPU time from /proc/stat.
type ticks struct{ total, steal uint64 }

// stealShare is the share of CPU time since before that the hypervisor
// gave to other guests: interference no setting of the benchmark can
// remove, printed so a noisy run can be told from a slow one.
func (t ticks) stealShare(before ticks) float64 {
	if t.total <= before.total {
		return 0
	}
	return float64(t.steal-before.steal) / float64(t.total-before.total)
}

func cpuTicks() (ticks, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return ticks{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return ticks{}, fmt.Errorf("empty /proc/stat")
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return ticks{}, fmt.Errorf("unexpected /proc/stat line %q", sc.Text())
	}
	// user nice system idle iowait irq softirq steal; the guest columns
	// that follow are already counted in user and nice.
	var t ticks
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return ticks{}, err
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, nil
}
