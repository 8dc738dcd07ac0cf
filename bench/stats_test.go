package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting matters
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	if _, err := percentile(seq(100), 0.90); err != nil {
		t.Fatalf("p90 of 100 samples has 10 beyond it: %v", err)
	}
	if _, err := percentile(seq(99), 0.90); err == nil {
		t.Fatal("p90 of 99 samples has only 9 beyond it, want an error")
	}
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples has only 9 beyond it, want an error")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("median of nothing, want an error")
	}
	v, err := percentile(seq(1000), 0.99)
	if err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) on these inputs.
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 20, 30, 40, 50}, 15, 45},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// fakeClock advances only when slept on or when a send takes time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopChargesStallsFromTheSchedule(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	start := clk.now
	// Every request takes 1ms except the third, which stalls for 35ms.
	ops := openLoop(clk, start, 10*time.Millisecond, 7, func(i int) error {
		d := time.Millisecond
		if i == 2 {
			d = 35 * time.Millisecond
		}
		clk.now = clk.now.Add(d)
		return nil
	})
	want := []struct{ lat, late time.Duration }{
		{1, 0}, {1, 0}, {35, 0},
		// Due at 30 and 40ms but sent at 55 and 56ms: the stall is charged
		// to them too, counted from when they were due.
		{26, 25}, {17, 16}, {8, 7},
		// Back on schedule.
		{1, 0},
	}
	for i, o := range ops {
		if o.latency() != want[i].lat*time.Millisecond || o.late() != want[i].late*time.Millisecond {
			t.Errorf("request %d: latency %v late %v; want %vms, %vms", i, o.latency(), o.late(), int64(want[i].lat), int64(want[i].late))
		}
	}
}

func TestSleepsNeverWakeEarly(t *testing.T) {
	// Below, at and above the spin margin, and across a nanosleep an
	// early wake-up would cut short.
	for name, sleep := range map[string]func(time.Duration){"Sleep": realClock{}.Sleep, "nap": nap} {
		for _, d := range []time.Duration{0, 50 * time.Microsecond, spinMargin, 3 * time.Millisecond} {
			for i := 0; i < 20; i++ {
				start := time.Now()
				sleep(d)
				if got := time.Since(start); got < d {
					t.Fatalf("%s(%v) returned after %v", name, d, got)
				}
			}
		}
	}
}

func TestApplyLags(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ops := []op{{sched: at(0)}, {sched: at(10)}, {sched: at(20)}}
	cum := []int{64, 128, 192}
	polls := []poll{{at(5), 0}, {at(25), 128}, {at(45), 150}, {at(65), 192}}
	lags, missing := applyLags(ops, cum, polls)
	want := []float64{25, 15, 45}
	if missing != 0 || len(lags) != 3 {
		t.Fatalf("lags %v, missing %d", lags, missing)
	}
	for i := range want {
		if lags[i] != want[i] {
			t.Errorf("batch %d lag %vms, want %vms", i, lags[i], want[i])
		}
	}
	if _, missing := applyLags(ops, []int{64, 128, 500}, polls); missing != 1 {
		t.Errorf("a batch no poll covers must count as missing, got %d", missing)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two overlapping children cover 10..50 once, not twice.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},
		// A child running past its parent's end counts only inside it.
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "a1", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]time.Duration{1: 50, 2: 25, 3: 20, 4: 30, 5: 5} {
		if self[id] != want {
			t.Errorf("span %d self time %v, want %v", id, self[id], want)
		}
	}
}
