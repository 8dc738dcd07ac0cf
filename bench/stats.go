package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark reports it: a p99 over 300 samples is three samples' worth
// of noise, not a tail.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. It
// refuses when fewer than minTail samples lie beyond the rank.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	// The epsilon keeps 0.9*100 from rounding up to rank 91.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, fmt.Errorf("p%g over %d samples has %d beyond it, need %d", q*100, n, max(n-rank, 0), minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the exclusive
// method, extrapolating for tiny samples), so the spreads printed here
// match the ones computed from a results table. A single value is its
// own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// clock is the time source of the open-loop sender; tests substitute a
// fake one.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// spinMargin is the tail of a wait that realClock spins out instead of
// sleeping: more than a nanosleep syscall overshoots by.
const spinMargin = 250 * time.Microsecond

// Sleep waits d to within microseconds: a nap, then a spin over the
// last spinMargin. An open-loop sender that woke late would charge its
// own lateness to the system's latency.
func (realClock) Sleep(d time.Duration) {
	end := time.Now().Add(d)
	nap(d - spinMargin)
	for time.Now().Before(end) {
		runtime.Gosched()
	}
}

// nap sleeps at least d in nanosleep syscalls, which wake within about
// 0.1 ms. time.Sleep overshoots by up to a millisecond on Linux, because
// the Go scheduler parks an idle thread in epoll with millisecond
// timeouts.
func nap(d time.Duration) {
	end := time.Now().Add(d)
	for left := d; left > 0; left = time.Until(end) {
		ts := syscall.NsecToTimespec(int64(left))
		syscall.Nanosleep(&ts, nil) // an interrupted sleep goes round again
	}
}

// op is one timed request of the open loop.
type op struct {
	// sched is when the request was due: its schedule slot.
	sched, sent, done time.Time
	err               error
}

// latency is the time from when the request was due to its answer, so a
// stall also charges the requests queued behind it.
func (o op) latency() time.Duration { return o.done.Sub(o.sched) }

// late is how far behind schedule the sender ran.
func (o op) late() time.Duration { return o.sent.Sub(o.sched) }

// openLoop sends n requests on a fixed schedule — request i is due at
// start + i*interval whatever happened to the ones before it — and
// records each one's schedule slot, send and answer instants.
func openLoop(clk clock, start time.Time, interval time.Duration, n int, send func(i int) error) []op {
	ops := make([]op, n)
	for i := range ops {
		sched := start.Add(time.Duration(i) * interval)
		if wait := sched.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		sent := clk.Now()
		err := send(i)
		ops[i] = op{sched: sched, sent: sent, done: clk.Now(), err: err}
	}
	return ops
}

// poll is one /v1/stats observation: the applied-event count the
// service reported and when the answer arrived.
type poll struct {
	at     time.Time
	events int
}

// applyLags returns, for each request whose cumulative event count
// cum[i] the polls eventually cover, the time from its schedule slot to
// the first poll answer that covers it. Requests no poll covers are
// counted in missing. polls must be in arrival order.
func applyLags(ops []op, cum []int, polls []poll) (lags []float64, missing int) {
	j := 0
	for i, o := range ops {
		for j < len(polls) && polls[j].events < cum[i] {
			j++
		}
		if j == len(polls) {
			missing += len(ops) - i
			break
		}
		lags = append(lags, ms(polls[j].at.Sub(o.sched)))
	}
	return lags, missing
}
