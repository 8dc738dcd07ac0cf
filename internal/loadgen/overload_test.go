package loadgen_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/bcluster"
	"repro/internal/behavior"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/httpapi"
	"repro/internal/loadgen"
	"repro/internal/stream"
)

// synEnricher is the overload harness's deterministic sandbox stand-in:
// the behavioral profile is a pure function of the sample MD5 (the
// trailing index of loadgen.ClientEvents names, fam = index mod 25),
// and every execution burns a fixed delay, which sets the service's
// known apply capacity. The same enricher drives the streaming run and
// its batch reference, so the two must converge.
type synEnricher struct{ delay time.Duration }

func famOf(md5 string) int {
	if i := strings.LastIndex(md5, "smp"); i >= 0 {
		if n, err := strconv.Atoi(md5[i+3:]); err == nil {
			return n % 25
		}
	}
	return 0
}

func (e synEnricher) LabelSample(s *dataset.Sample) error {
	s.AVLabel = fmt.Sprintf("Syn.fam%d", famOf(s.MD5))
	return nil
}

func (e synEnricher) ExecuteSample(s *dataset.Sample) (*behavior.Profile, bool, error) {
	if e.delay > 0 {
		time.Sleep(e.delay)
	}
	p := behavior.NewProfile()
	fam := famOf(s.MD5)
	for k := 0; k < 10; k++ {
		p.Add(fmt.Sprintf("fam%d-b%d", fam, k))
	}
	return p, false, nil
}

func newOverloadServer(t *testing.T, cfg stream.Config, enr stream.Enricher) (*stream.Service, *httptest.Server) {
	t.Helper()
	svc, err := stream.New(cfg, enr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(httpapi.New(func() httpapi.Backend { return svc }, httpapi.Options{}))
	t.Cleanup(srv.Close)
	return svc, srv
}

// flushHTTP posts /v1/flush, honoring admission rejections (a pressured
// service answers 429/503 with Retry-After) by retrying until the drain
// succeeds.
func flushHTTP(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Post(base+"/v1/flush", "application/json", nil)
		if err != nil {
			t.Fatalf("flush: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return
		}
		if resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("flush: unexpected status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			t.Fatal("flush: service never drained")
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func httpStats(t *testing.T, base string) stream.Stats {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	defer resp.Body.Close()
	var st stream.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("stats: decoding: %v", err)
	}
	return st
}

// bPartition canonicalizes a behavioral clustering to its membership
// partition: sorted member lists, sorted by first member. Stable IDs and
// epoch counters legitimately differ between a pressured streaming run
// and its batch reference; the partition must not.
func bPartition(res *bcluster.Result) [][]string {
	out := make([][]string, 0, len(res.Clusters))
	for _, c := range res.Clusters {
		members := append([]string(nil), c.Members...)
		sort.Strings(members)
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// assertConverged compares the service's post-flush state against the
// batch pipeline (core.RunEvents) over exactly the events the service
// admitted.
func assertConverged(t *testing.T, svc *stream.Service, cfg stream.Config, enr core.Enricher) {
	t.Helper()
	events := svc.Dataset().Events()
	batch, err := core.RunEvents(events, enr, cfg.Thresholds, cfg.BCluster, 0)
	if err != nil {
		t.Fatalf("batch reference: %v", err)
	}
	want := map[string]interface{}{
		"epsilon": batch.E.Clusters, "pi": batch.P.Clusters, "mu": batch.M.Clusters,
	}
	for dim, wc := range want {
		got, err := svc.EPMClustering(dim)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Clusters, wc) {
			t.Fatalf("%s clustering diverged from the batch reference", dim)
		}
	}
	if got, wantB := bPartition(svc.BResult()), bPartition(batch.B); !reflect.DeepEqual(got, wantB) {
		t.Fatalf("B partition diverged: got %d clusters, want %d", len(got), len(wantB))
	}
	st := svc.Stats()
	if st.Events != len(events) {
		t.Fatalf("stats events %d != dataset events %d", st.Events, len(events))
	}
	if st.Executed != batch.Executed {
		t.Fatalf("executed %d != batch %d", st.Executed, batch.Executed)
	}
}

func batches(events []dataset.Event, size int) [][]dataset.Event {
	var out [][]dataset.Event
	for len(events) > 0 {
		n := size
		if n > len(events) {
			n = len(events)
		}
		out = append(out, events[:n])
		events = events[n:]
	}
	return out
}

// TestOverloadSmoke is the deterministic overload harness behind
// `make smoke-overload`: a slow enricher pins the service's apply
// capacity, a seeded multi-client load generator drives it far past
// that capacity over HTTP, and the service must (1) keep accepting work
// instead of collapsing, (2) answer every rejection quickly with a
// structured reason, (3) keep its admission ledger consistent and
// monotonic, (4) favor in-budget clients when the rate limiter is on,
// and (5) converge byte-identically with the batch pipeline over the
// events it admitted once the pressure ends.
func TestOverloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second overload harness")
	}

	t.Run("sustained-overload", func(t *testing.T) {
		enr := synEnricher{delay: 5 * time.Millisecond}
		cfg := stream.DefaultConfig()
		cfg.EpochSize = 0 // epochs on flush; apply cost stays linear under flood
		cfg.QueueDepth = 4
		cfg.Parallelism = 2
		cfg.Admission = admission.Config{
			Deadline:   50 * time.Millisecond,
			ShedTarget: 5 * time.Millisecond,
			Seed:       42,
		}
		svc, srv := newOverloadServer(t, cfg, enr)

		// Monotonicity watcher: the admission ledger seen over HTTP must
		// never run backwards while the flood is on.
		stop := make(chan struct{})
		watcher := make(chan error, 1)
		go func() {
			defer close(watcher)
			var last stream.AdmissionStats
			for {
				select {
				case <-stop:
					return
				case <-time.After(20 * time.Millisecond):
				}
				st := httpStats(t, srv.URL)
				a := st.Admission
				if a.AdmittedBatches < last.AdmittedBatches || a.AdmittedEvents < last.AdmittedEvents {
					watcher <- fmt.Errorf("admitted counters ran backwards: %+v -> %+v", last, a)
					return
				}
				for reason, n := range last.RejectedBatches {
					if a.RejectedBatches[reason] < n {
						watcher <- fmt.Errorf("rejected[%s] ran backwards: %d -> %d", reason, n, a.RejectedBatches[reason])
						return
					}
				}
				last = a
			}
		}()

		// Six clients posting back-to-back: the service applies ~10
		// batches/sec (20 fresh samples x 5ms at parallelism 2), while
		// each client re-posts within the 50ms admission deadline —
		// a sustained >=10x overload.
		const perClient = 30
		var plans []loadgen.ClientPlan
		for c := 0; c < 6; c++ {
			name := fmt.Sprintf("c%d", c)
			plans = append(plans, loadgen.ClientPlan{
				Name:    name,
				Batches: batches(loadgen.ClientEvents(name, perClient*20), 20),
			})
		}
		rep, err := loadgen.Run(context.Background(), loadgen.Config{BaseURL: srv.URL, Clients: plans})
		if err != nil {
			t.Fatal(err)
		}
		close(stop)
		if err := <-watcher; err != nil {
			t.Fatal(err)
		}

		// Accounting: every submitted batch was either accepted or
		// rejected with a reason — nothing lost, no transport errors.
		rejected := 0
		for reason, n := range rep.RejectedByReason() {
			switch reason {
			case string(admission.ReasonDeadline), string(admission.ReasonQueueFull), string(admission.ReasonShed), string(admission.ReasonRateLimit):
				rejected += n
			default:
				t.Fatalf("unknown rejection reason %q (%d)", reason, n)
			}
		}
		if got := rep.Accepted() + rejected; got != rep.Submitted() {
			t.Fatalf("accepted %d + rejected %d != submitted %d", rep.Accepted(), rejected, rep.Submitted())
		}
		for _, c := range rep.Clients {
			if c.Errors != 0 {
				t.Fatalf("client %s: %d transport errors", c.Name, c.Errors)
			}
		}

		// No-collapse band: the flood was real (most batches bounced)
		// yet the service kept absorbing work at its capacity.
		if rejected == 0 {
			t.Fatal("overload produced no rejections; load did not exceed capacity")
		}
		if rep.Accepted() < 8 {
			t.Fatalf("throughput collapapsed: only %d batches accepted", rep.Accepted())
		}
		// Bounded admission latency: rejections answer within the
		// deadline, not after queueing behind the backlog.
		if p99 := rep.LatencyQuantile(0.99); p99 > 2*time.Second {
			t.Fatalf("p99 admission latency %v; overload must fail fast", p99)
		}

		// Post-pressure: drain, then the admitted events must replay to
		// exactly the batch pipeline's state.
		flushHTTP(t, srv.URL)
		st := httpStats(t, srv.URL)
		if st.Admission.AdmittedBatches != rep.Accepted() {
			t.Fatalf("service admitted %d batches, generator saw %d accepted", st.Admission.AdmittedBatches, rep.Accepted())
		}
		assertConverged(t, svc, cfg, enr)
	})

	t.Run("per-client-fairness", func(t *testing.T) {
		cfg := stream.DefaultConfig()
		cfg.EpochSize = 0
		cfg.QueueDepth = 16
		cfg.Admission = admission.Config{
			RatePerSec: 20,
			Burst:      4,
			Deadline:   100 * time.Millisecond,
			Seed:       7,
		}
		svc, srv := newOverloadServer(t, cfg, synEnricher{})
		_ = svc

		flood := loadgen.ClientPlan{
			Name:    "flood",
			Batches: batches(loadgen.ClientEvents("flood", 150), 1),
		}
		calm := loadgen.ClientPlan{
			Name:     "calm",
			Batches:  batches(loadgen.ClientEvents("calm", 12), 1),
			Interval: 100 * time.Millisecond, // 10 posts/sec, inside the 20/sec budget
		}
		rep, err := loadgen.Run(context.Background(), loadgen.Config{
			BaseURL: srv.URL, Clients: []loadgen.ClientPlan{flood, calm},
		})
		if err != nil {
			t.Fatal(err)
		}

		fl, ca := rep.Client("flood"), rep.Client("calm")
		if ca.Accepted != ca.Submitted {
			t.Fatalf("calm client lost %d of %d batches to the flood: %+v",
				ca.Submitted-ca.Accepted, ca.Submitted, ca.Rejected)
		}
		if fl.Rejected[string(admission.ReasonRateLimit)] < fl.Submitted/2 {
			t.Fatalf("flood client: only %d/%d rate-limited", fl.Rejected[string(admission.ReasonRateLimit)], fl.Submitted)
		}
		// Rate-limit rejections carry a retry hint.
		for _, o := range fl.Outcomes {
			if o.Reason == string(admission.ReasonRateLimit) && o.RetryAfterMS <= 0 {
				t.Fatal("rate-limit rejection without a retry_after_ms hint")
			}
		}
	})

	t.Run("degraded-mode-over-http", func(t *testing.T) {
		enr := synEnricher{}
		cfg := stream.DefaultConfig()
		cfg.EpochSize = 4
		cfg.Admission = admission.Config{DegradeTarget: time.Nanosecond}
		svc, srv := newOverloadServer(t, cfg, enr)

		for _, b := range batches(loadgen.ClientEvents("deg", 40), 8) {
			body, _ := json.Marshal(b)
			resp, err := http.Post(srv.URL+"/v1/ingest", "application/json", strings.NewReader(string(body)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("ingest: status %d", resp.StatusCode)
			}
		}
		// The pinned degrade target keeps the service degraded from the
		// first observed batch: epochs defer, and the cluster views say so.
		waitFor := time.Now().Add(10 * time.Second)
		for {
			st := httpStats(t, srv.URL)
			if st.Admission.Degraded && st.Admission.EpochsDeferred > 0 {
				break
			}
			if time.Now().After(waitFor) {
				t.Fatalf("service never entered degraded mode: %+v", st.Admission)
			}
			time.Sleep(10 * time.Millisecond)
		}
		resp, err := http.Get(srv.URL + "/v1/clusters/epsilon")
		if err != nil {
			t.Fatal(err)
		}
		var view stream.EPMView
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !view.Degraded {
			t.Fatal("cluster view of a degraded service must be marked degraded")
		}
		// Flush forces the deferred epochs; the degraded run must land on
		// the batch pipeline's state anyway.
		flushHTTP(t, srv.URL)
		assertConverged(t, svc, cfg, enr)
	})
}
