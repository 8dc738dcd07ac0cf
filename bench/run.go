package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/simrng"
)

// env locates the built binaries and the run's scratch directory, both
// inside the checkout.
type env struct {
	binDir, workDir string
}

// metric is one reported number. n is the sample count behind a
// percentile or median, 0 when the value is not a sample statistic.
type metric struct {
	name, unit string
	value      float64
	n          int
}

// result is one run's outcome.
type result struct {
	attempted, failed int64
	metrics           []metric
	// acks, lags and late hold each open-loop batch's ack latency,
	// apply lag and how far behind schedule its send ran, in ms. The
	// traced run reports what of them does not repeat well enough to be
	// an end-to-end metric.
	acks, lags, late []float64
}

// errIncorrect marks a run whose outputs failed the correctness gate.
var errIncorrect = errors.New("correctness gate failed")

const (
	// pollPeriod is the mean pause between the /v1/stats polls that
	// timestamp when a batch became visible (about 50 Hz).
	pollPeriod = 20 * time.Millisecond
	// drainTimeout bounds every wait for the daemon to apply what it acked.
	drainTimeout = 2 * time.Minute
	// driverHeadroom is how far the driver's heap may grow during the
	// timed phases before its collector runs (see quietGC).
	driverHeadroom = 768 << 20
)

// runE2E runs one workload against a freshly spawned daemon over
// loopback HTTP, in phases:
//
//  1. setup: w.setups cold starts on empty directories, spawn to the
//     first /readyz 200; the last one stays up;
//  2. the open loop: connection A posts the workload's batches on a
//     fixed schedule for the run's seconds while connection B polls
//     /v1/stats at 50 Hz;
//  3. once everything acked is applied, w.recoveries rounds of SIGKILL
//     and restart on the same directory; then flush, and read the views
//     and stats;
//  4. with the daemon stopped, the correctness gate.
func runE2E(ctx context.Context, e env, w workload, seed uint64, seconds float64) (*result, error) {
	in, err := w.makeInputs(seed, seconds)
	if err != nil {
		return nil, err
	}
	bin := filepath.Join(e.binDir, "synthd")
	if w.landscaped {
		bin = filepath.Join(e.binDir, "landscaped")
	}
	walDir := filepath.Join(e.workDir, "wal")
	logPath := filepath.Join(e.workDir, "sut.log")
	t := &tally{}
	a, b := newConn(t), newConn(t)
	var p *proc
	defer func() {
		if p != nil {
			p.kill()
		}
	}()
	start := func() (time.Duration, error) {
		addr, err := freeAddr()
		if err != nil {
			return 0, err
		}
		base := "http://" + addr
		a.retarget(base)
		b.retarget(base)
		t0 := time.Now()
		if p, err = spawn(bin, w.sutArgs(addr, walDir), logPath); err != nil {
			return 0, err
		}
		return p.waitReady(ctx, a.c, base, t0)
	}
	res := &result{}
	add := func(name, unit string, v float64, n int) {
		res.metrics = append(res.metrics, metric{name: name, unit: unit, value: v, n: n})
	}

	restoreGC := quietGC()
	defer restoreGC()

	// 1. Setup.
	var setups []float64
	for i := 0; i < w.setups; i++ {
		if p != nil {
			p.kill()
		}
		if err := os.RemoveAll(walDir); err != nil {
			return nil, err
		}
		d, err := start()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	add("setup_s", "s", median(setups), len(setups))

	// 2. The open loop.
	applied := 0
	cum := make([]int, len(in.open))
	for i, bt := range in.open {
		applied += len(bt.Events)
		cum[i] = applied
	}
	type polled struct {
		polls []poll
		err   error
	}
	pc := make(chan polled, 1)
	go func() {
		polls, err := pollUntil(ctx, b, pollPeriod, simrng.New(seed).Stream("bench-polls"), applied, drainTimeout)
		pc <- polled{polls, err}
	}()
	ops := openIngest(ctx, a, in.open, time.Now(), w.openRate/float64(w.openBatch))
	pr := <-pc
	if pr.err != nil {
		return nil, fmt.Errorf("open loop: %w", pr.err)
	}
	for _, o := range ops {
		if o.err != nil {
			return nil, fmt.Errorf("open loop: %w", o.err)
		}
		res.acks = append(res.acks, ms(o.latency()))
		res.late = append(res.late, ms(o.late()))
	}
	var missing int
	if res.lags, missing = applyLags(ops, cum, pr.polls); missing > 0 {
		return nil, fmt.Errorf("open loop: %d batches never showed in /v1/stats", missing)
	}
	// Only the lag's median repeats. Its tail is checkpoint stalls,
	// shard merges and B verification epochs, and the sub-millisecond
	// acks move with hypervisor steal; both come and go with the host's
	// load (see README). The median lag holds because half a poll
	// period of it does not.
	lag, err := percentile(res.lags, 0.5)
	if err != nil {
		return nil, fmt.Errorf("apply_lag_p50_ms: %w", err)
	}
	add("apply_lag_p50_ms", "ms", lag, len(res.lags))

	// 3. Crash once everything acked is applied (the poller saw it all),
	// then recover.
	var rss float64
	for i := 0; i < w.recoveries; i++ {
		r, err := p.peakRSS()
		if err != nil {
			return nil, err
		}
		rss = max(rss, r)
		p.kill()
		if _, err := start(); err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
	}
	if err := a.flush(ctx); err != nil {
		return nil, fmt.Errorf("final flush: %w", err)
	}
	st, err := a.stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("final stats: %w", err)
	}
	got, err := fetchViews(ctx, a)
	if err != nil {
		return nil, fmt.Errorf("final views: %w", err)
	}
	r, err := p.peakRSS()
	if err != nil {
		return nil, err
	}
	add("rss_peak_mb", "MiB", max(rss, r), 0)
	p.kill()
	disk, err := dirBytes(walDir)
	if err != nil {
		return nil, err
	}
	add("disk_mb", "MiB", float64(disk)/(1<<20), 0)
	res.attempted, res.failed = t.attempted.Load(), t.failed.Load()

	// 4. The gate, with the daemon stopped so the reference run has the
	// memory to itself.
	restoreGC()
	admitted := in.admitted()
	if st.Events != len(admitted) {
		return nil, fmt.Errorf("%w: %d events admitted, /v1/stats reports %d", errIncorrect, len(admitted), st.Events)
	}
	want, err := referenceViews(admitted, in.enricher, in.th, in.bcfg)
	if err != nil {
		return nil, err
	}
	if err := got.diff(want); err != nil {
		return nil, fmt.Errorf("%w: %v", errIncorrect, err)
	}
	return res, nil
}

// quietGC collects the driver's heap and holds its collector off until
// the heap grows by driverHeadroom, so the load generator does not take
// CPU from the daemon at moments that differ from run to run. The
// returned function restores the collector; calling it again is a no-op.
func quietGC() func() {
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	limit := debug.SetMemoryLimit(int64(mem.HeapAlloc) + driverHeadroom)
	percent := debug.SetGCPercent(-1)
	var once sync.Once
	return func() {
		once.Do(func() {
			debug.SetGCPercent(percent)
			debug.SetMemoryLimit(limit)
		})
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
