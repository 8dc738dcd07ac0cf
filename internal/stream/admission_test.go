package stream_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/behavior"
	"repro/internal/dataset"
	"repro/internal/stream"
)

// stallEnricher blocks the apply worker inside the first sandbox
// execution until gate is closed, letting tests build queue pressure
// deterministically. entered (buffered) signals the worker is parked.
type stallEnricher struct {
	entered chan struct{}
	gate    chan struct{}
}

func newStallEnricher() stallEnricher {
	return stallEnricher{entered: make(chan struct{}, 1), gate: make(chan struct{})}
}

func (e stallEnricher) LabelSample(s *dataset.Sample) error {
	return fakeEnricher{}.LabelSample(s)
}

func (e stallEnricher) ExecuteSample(s *dataset.Sample) (*behavior.Profile, bool, error) {
	select {
	case e.entered <- struct{}{}:
	default:
	}
	<-e.gate
	return fakeEnricher{}.ExecuteSample(s)
}

// sampleBatch is a one-event batch carrying an executable sample, so the
// worker enters the (stallable) enrichment path when it applies it.
func sampleBatch(i int) []dataset.Event {
	return []dataset.Event{testEvent(i, fmt.Sprintf("stall%d", i))}
}

// plainBatch is a sample-free batch the worker applies in microseconds.
func plainBatch(i, n int) []dataset.Event {
	out := make([]dataset.Event, n)
	for k := range out {
		out[k] = testEvent(i*1000+k, "")
	}
	return out
}

// stallService starts a service on a stalling enricher and parks its
// worker inside the first batch's enrichment.
func stallService(t *testing.T, cfg stream.Config) (*stream.Service, stallEnricher) {
	t.Helper()
	enr := newStallEnricher()
	svc, err := stream.New(cfg, enr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	if err := svc.Ingest(context.Background(), sampleBatch(0)); err != nil {
		t.Fatal(err)
	}
	<-enr.entered
	return svc, enr
}

// waitStats polls Stats until cond holds or the deadline lapses.
func waitStats(t *testing.T, svc *stream.Service, what string, cond func(stream.Stats) bool) stream.Stats {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := svc.Stats()
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; stats %+v", what, st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionDeadline is the no-hang regression for satellite (a): a
// full queue over a stalled worker must answer within the admission
// deadline with a typed deadline rejection, not block until the caller
// gives up.
func TestAdmissionDeadline(t *testing.T) {
	cfg := testConfig(0) // QueueDepth 2
	cfg.Admission.Deadline = 30 * time.Millisecond
	svc, enr := stallService(t, cfg)
	ctx := context.Background()

	// Fill the queue behind the parked worker.
	for i := 1; i <= 2; i++ {
		if err := svc.Ingest(ctx, plainBatch(i, 3)); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	err := svc.IngestFrom(ctx, "client-a", plainBatch(3, 3))
	rej, ok := admission.AsRejection(err)
	if !ok || rej.Reason != admission.ReasonDeadline {
		t.Fatalf("full-queue ingest returned %v, want deadline rejection", err)
	}
	if rej.RetryAfter < time.Second {
		t.Fatalf("RetryAfter %v below the hint floor", rej.RetryAfter)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("rejection took %v, deadline did not bound the wait", waited)
	}

	close(enr.gate)
	if err := svc.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	adm := st.Admission
	if adm.AdmittedBatches != 3 || adm.RejectedBatches["deadline"] != 1 || adm.RejectedEvents["deadline"] != 3 {
		t.Fatalf("admission ledger %+v, want 3 admitted and 1 deadline rejection of 3 events", adm)
	}
	if st.Events != 7 { // 1 stall sample + 2x3 plain
		t.Fatalf("events %d, want 7 (the rejected batch must not be applied)", st.Events)
	}
}

// TestAdmissionRateLimitPerClient checks client buckets are independent
// and that the in-process loopback (client "") bypasses the limiter.
func TestAdmissionRateLimitPerClient(t *testing.T) {
	cfg := testConfig(0)
	cfg.Admission.RatePerSec = 10
	cfg.Admission.Burst = 5
	svc := newTestService(t, cfg)
	ctx := context.Background()

	if err := svc.IngestFrom(ctx, "flood", plainBatch(1, 5)); err != nil {
		t.Fatalf("burst-sized batch rejected: %v", err)
	}
	err := svc.IngestFrom(ctx, "flood", plainBatch(2, 5))
	if rej, ok := admission.AsRejection(err); !ok || rej.Reason != admission.ReasonRateLimit {
		t.Fatalf("drained bucket admitted: %v", err)
	}
	// A compliant client is unaffected by the flooder's empty bucket.
	if err := svc.IngestFrom(ctx, "calm", plainBatch(3, 5)); err != nil {
		t.Fatalf("independent client rejected: %v", err)
	}
	// The trusted loopback (replay, recovery) is never rate limited.
	if err := svc.Ingest(ctx, plainBatch(4, 20)); err != nil {
		t.Fatalf("loopback ingest rejected: %v", err)
	}
	if err := svc.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	adm := svc.Stats().Admission
	if !adm.Enabled {
		t.Fatal("admission must report enabled")
	}
	if adm.AdmittedBatches != 3 || adm.AdmittedEvents != 30 {
		t.Fatalf("admitted %d/%d, want 3 batches / 30 events", adm.AdmittedBatches, adm.AdmittedEvents)
	}
	if adm.RejectedBatches["rate-limit"] != 1 || adm.RejectedEvents["rate-limit"] != 5 {
		t.Fatalf("rejections %+v, want one rate-limit batch of 5", adm.RejectedBatches)
	}
	if adm.RateLimitClients != 2 {
		t.Fatalf("limiter tracks %d clients, want 2", adm.RateLimitClients)
	}
}

// TestAdmissionWaiterBudget: with MaxWaiters 1 a second parked producer
// is refused fast with queue-full instead of piling up.
func TestAdmissionWaiterBudget(t *testing.T) {
	cfg := testConfig(0)
	cfg.Admission.MaxWaiters = 1
	svc, enr := stallService(t, cfg)
	ctx := context.Background()

	for i := 1; i <= 2; i++ {
		if err := svc.Ingest(ctx, plainBatch(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	parked := make(chan error, 1)
	go func() { parked <- svc.IngestFrom(ctx, "patient", plainBatch(3, 2)) }()
	waitStats(t, svc, "one parked waiter", func(st stream.Stats) bool {
		return st.Admission.Waiters == 1
	})
	err := svc.IngestFrom(ctx, "late", plainBatch(4, 2))
	if rej, ok := admission.AsRejection(err); !ok || rej.Reason != admission.ReasonQueueFull {
		t.Fatalf("over-budget producer got %v, want queue-full rejection", err)
	}

	close(enr.gate)
	if err := <-parked; err != nil {
		t.Fatalf("parked producer within budget must eventually be admitted: %v", err)
	}
	if err := svc.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	adm := svc.Stats().Admission
	if adm.RejectedBatches["queue-full"] != 1 || adm.AdmittedBatches != 4 {
		t.Fatalf("ledger %+v, want 4 admitted and 1 queue-full rejection", adm)
	}
}

// TestAdmissionShedUnderPressure drives the shedder with a parked
// worker: once the smoothed delay exceeds the (tiny) target and the
// queue is at least half full, most arrivals are shed as typed 503s,
// and the ledger stays exact: admitted + rejected == attempted.
func TestAdmissionShedUnderPressure(t *testing.T) {
	cfg := testConfig(0)
	cfg.QueueDepth = 4
	cfg.Admission.ShedTarget = time.Nanosecond // any observed delay overshoots
	cfg.Admission.Deadline = 20 * time.Millisecond
	cfg.Admission.Seed = 42
	svc, enr := stallService(t, cfg)
	ctx := context.Background()

	attempts, admitted := 1, 1 // the stall batch
	for i := 1; i <= 2; i++ {  // below half-full: the occupancy gate must not shed
		if err := svc.Ingest(ctx, plainBatch(i, 2)); err != nil {
			t.Fatalf("batch %d under the occupancy gate was refused: %v", i, err)
		}
		attempts++
		admitted++
	}
	sheds := 0
	for i := 3; i < 40; i++ {
		attempts++
		err := svc.IngestFrom(ctx, "flood", plainBatch(i, 2))
		rej, ok := admission.AsRejection(err)
		switch {
		case err == nil:
			admitted++
		case ok && rej.Reason == admission.ReasonShed:
			sheds++
		case ok && rej.Reason == admission.ReasonDeadline:
		default:
			t.Fatalf("unexpected ingest result: %v", err)
		}
	}
	if sheds == 0 {
		t.Fatal("no batch was shed at 37 arrivals over a saturated queue")
	}

	close(enr.gate)
	if err := svc.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	adm := svc.Stats().Admission
	total := adm.AdmittedBatches
	for _, n := range adm.RejectedBatches {
		total += n
	}
	if total != attempts {
		t.Fatalf("admitted %d + rejected %v != %d attempts", adm.AdmittedBatches, adm.RejectedBatches, attempts)
	}
	if adm.AdmittedBatches != admitted || adm.RejectedBatches["shed"] != sheds {
		t.Fatalf("ledger %+v disagrees with caller accounting (admitted %d, shed %d)", adm, admitted, sheds)
	}
	if adm.ShedProbability <= 0 {
		t.Fatalf("shed probability %v after shedding", adm.ShedProbability)
	}
}

// TestDegradedModeDefersEpochs pins the degrade threshold below any real
// queue wait so the service runs degraded from the first dequeue: every
// epoch trigger must be deferred (fast-path classification only), the
// query views must carry the degraded marker, and Flush must still force
// the deferred work out.
func TestDegradedModeDefersEpochs(t *testing.T) {
	cfg := testConfig(8)
	cfg.Admission.DegradeTarget = time.Nanosecond
	svc := newTestService(t, cfg)
	ctx := context.Background()
	var events []dataset.Event
	for i := 0; i < 60; i++ {
		events = append(events, testEvent(i, fmt.Sprintf("v%d", i%3)))
	}
	for i := 0; i < len(events); i += 10 {
		if err := svc.Ingest(ctx, events[i:i+10]); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Events != 60 {
		t.Fatalf("%d events applied after Sync, want 60", st.Events)
	}
	adm := st.Admission
	if !adm.Degraded || adm.DegradedEntered != 1 {
		t.Fatalf("service not degraded after sustained pressure: %+v", adm)
	}
	if adm.EpochsDeferred == 0 {
		t.Fatalf("no epochs deferred at 60 events with epoch size 8: %+v", adm)
	}
	if st.Epsilon.Epoch != 0 || st.B.Epochs != 0 {
		t.Fatalf("epochs ran while degraded: epsilon %d, B %d", st.Epsilon.Epoch, st.B.Epochs)
	}
	view, err := svc.EPMClusters("epsilon")
	if err != nil {
		t.Fatal(err)
	}
	if !view.Degraded {
		t.Fatal("EPM view must carry the degraded marker")
	}
	if !svc.BClusters().Degraded {
		t.Fatal("B view must carry the degraded marker")
	}

	// Flush forces the deferred epochs even while degraded.
	if err := svc.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st = svc.Stats()
	if st.Epsilon.Epoch == 0 || st.Epsilon.Pending != 0 || st.B.Pending != 0 {
		t.Fatalf("flush did not drain deferred work: %+v", st)
	}
}

// TestDegradedFlushMatchesUnpressuredRun is the convergence half of the
// degraded-mode contract: a run that deferred every epoch under pressure
// must, after Flush, be byte-identical (modulo the degraded marker and
// the runtime admission ledger) to a run that never felt pressure.
func TestDegradedFlushMatchesUnpressuredRun(t *testing.T) {
	var events []dataset.Event
	for i := 0; i < 120; i++ {
		events = append(events, testEvent(i, fmt.Sprintf("v%d", i%4)))
	}
	run := func(cfg stream.Config) *stream.Service {
		svc := newTestService(t, cfg)
		ctx := context.Background()
		for i := 0; i < len(events); i += 10 {
			if err := svc.Ingest(ctx, events[i:i+10]); err != nil {
				t.Fatal(err)
			}
		}
		if err := svc.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		return svc
	}

	want := run(testConfig(8))
	cfg := testConfig(8)
	cfg.Admission.DegradeTarget = time.Nanosecond
	got := run(cfg)

	if n := got.Stats().Admission.EpochsDeferred; n == 0 {
		t.Fatalf("pressured run deferred no epochs (deferred=%d); the comparison is vacuous", n)
	}
	compareConverged(t, "degraded-then-flushed", got, want)
}

// TestDegradedModeExitDrainsDeferredWork pushes the service into
// degraded mode with real queue pressure, releases it, and checks the
// hysteresis exit fires and epochs resume.
func TestDegradedModeExitDrainsDeferredWork(t *testing.T) {
	cfg := testConfig(8)
	cfg.QueueDepth = 4
	cfg.Admission.DegradeTarget = 30 * time.Millisecond
	svc, enr := stallService(t, cfg)
	ctx := context.Background()

	for i := 1; i <= 3; i++ {
		if err := svc.Ingest(ctx, plainBatch(i, 10)); err != nil {
			t.Fatal(err)
		}
	}
	// Let the queued batches age well past the degrade target, then
	// release the worker: their observed waits push the smoothed delay
	// over the threshold.
	time.Sleep(120 * time.Millisecond)
	close(enr.gate)
	waitStats(t, svc, "degraded entry", func(st stream.Stats) bool {
		return st.Admission.DegradedEntered >= 1
	})

	// Pressure released: quick dequeues decay the average below half the
	// target and the service must come back to full service.
	deadline := time.Now().Add(10 * time.Second)
	for i := 100; ; i++ {
		if err := svc.Ingest(ctx, plainBatch(i, 1)); err != nil {
			t.Fatal(err)
		}
		if st := svc.Stats(); st.Events > 0 && !st.Admission.Degraded && st.Admission.DegradedExited >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("service never exited degraded mode: %+v", svc.Stats().Admission)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := svc.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Epsilon.Epoch == 0 || st.Epsilon.Pending != 0 {
		t.Fatalf("deferred epochs never drained after exit: %+v", st.Epsilon)
	}
	if v, err := svc.EPMClusters("epsilon"); err != nil || v.Degraded {
		t.Fatalf("view still degraded after exit (err %v)", err)
	}
}

// TestAdmissionZeroConfigIsInert: the zero Admission config must change
// nothing — no limiter, no shedder, no deadline, no degraded mode — so
// the overload layer is strictly additive.
func TestAdmissionZeroConfigIsInert(t *testing.T) {
	svc := newTestService(t, testConfig(8))
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		if err := svc.IngestFrom(ctx, "anyone", plainBatch(i, 5)); err != nil {
			t.Fatalf("zero-config ingest rejected: %v", err)
		}
	}
	if err := svc.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	adm := st.Admission
	if adm.Enabled {
		t.Fatal("zero config must report disabled")
	}
	if len(adm.RejectedBatches) != 0 || adm.Degraded || adm.RateLimitClients != 0 {
		t.Fatalf("zero config produced admission activity: %+v", adm)
	}
	if adm.AdmittedBatches != 6 || adm.AdmittedEvents != 30 {
		t.Fatalf("ledger %+v, want 6 batches / 30 events accounted", adm)
	}
	if st.Fatal != "" {
		t.Fatalf("healthy service reports fatal %q", st.Fatal)
	}
}

// compareConverged asserts two flushed services converged on the same
// landscape: identical E/P/M clusterings, identical B membership
// partition, identical event/sample accounting. Epoch counters are
// deliberately not compared — a run that deferred epochs under pressure
// runs fewer intermediate rebuilds, and the PR 3/4 equivalence gates
// prove the final clusters are independent of the epoch schedule.
func compareConverged(t *testing.T, label string, got, want *stream.Service) {
	t.Helper()
	for _, dim := range []string{"epsilon", "pi", "mu"} {
		gc, err := got.EPMClustering(dim)
		if err != nil {
			t.Fatal(err)
		}
		wc, err := want.EPMClustering(dim)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gc.Clusters, wc.Clusters) {
			t.Fatalf("%s: %s clusters diverge:\ngot  %+v\nwant %+v", label, dim, gc.Clusters, wc.Clusters)
		}
	}
	if !reflect.DeepEqual(bMembers(got.BResult()), bMembers(want.BResult())) {
		t.Fatalf("%s: B partition diverges", label)
	}
	gs, ws := got.Stats(), want.Stats()
	if gs.Events != ws.Events || gs.Rejected != ws.Rejected || gs.Duplicates != ws.Duplicates ||
		gs.Samples != ws.Samples || gs.Executed != ws.Executed {
		t.Fatalf("%s: accounting diverges:\ngot  %+v\nwant %+v", label, gs, ws)
	}
}

// TestDegradedProvisionalNoDoubleCount is the regression gate for the
// provisional path under degraded mode: while epochs are deferred,
// instances keep classifying provisionally against the last epoch's
// pattern set, and the next (forced) epoch folds them into epoch
// membership. At no point may a cluster view count an instance both as
// an epoch member and as a provisional member — for every dimension the
// view sizes plus the pending pool must partition the instances exactly.
func TestDegradedProvisionalNoDoubleCount(t *testing.T) {
	checkPartition := func(svc *stream.Service, label string) {
		t.Helper()
		for _, dim := range []string{"epsilon", "pi", "mu"} {
			view, err := svc.EPMClusters(dim)
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for _, c := range view.Clusters {
				total += c.Size
			}
			if total+view.Pending != view.Instances {
				t.Fatalf("%s: %s cluster sizes %d + pending %d != instances %d (an instance is double- or un-counted)",
					label, dim, total, view.Pending, view.Instances)
			}
		}
	}

	cfg := testConfig(8)
	cfg.Admission.DegradeTarget = time.Nanosecond
	svc := newTestService(t, cfg)
	ctx := context.Background()
	feed := func(lo, hi int) {
		t.Helper()
		var events []dataset.Event
		for i := lo; i < hi; i++ {
			events = append(events, testEvent(i, fmt.Sprintf("v%d", i%3)))
		}
		for i := 0; i < len(events); i += 10 {
			if err := svc.Ingest(ctx, events[i:i+10]); err != nil {
				t.Fatal(err)
			}
		}
		if err := svc.Sync(ctx); err != nil {
			t.Fatal(err)
		}
		if n := svc.Stats().Events; n != hi {
			t.Fatalf("%d events applied after Sync, want %d", n, hi)
		}
	}

	// Phase 1: everything pools as pending (no clustering yet, epochs
	// deferred under pressure); Flush forces the first epoch.
	feed(0, 40)
	checkPartition(svc, "degraded, pre-epoch")
	if err := svc.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	epoch1 := svc.Stats().Epsilon.Epoch
	if epoch1 == 0 {
		t.Fatal("flush did not force the first epoch")
	}
	checkPartition(svc, "post-flush 1")

	// Phase 2: the pattern set now matches the stream, so new instances
	// classify provisionally while the deferred-epoch counter climbs.
	feed(40, 80)
	st := svc.Stats()
	if st.Epsilon.Epoch != epoch1 {
		t.Fatalf("epochs ran under pressure: %d -> %d", epoch1, st.Epsilon.Epoch)
	}
	if st.Epsilon.Pending != 0 {
		t.Fatalf("phase 2 epsilon instances pooled (%d pending) instead of classifying provisionally", st.Epsilon.Pending)
	}
	checkPartition(svc, "degraded, provisional members")

	// The forced epoch must absorb every provisional member exactly once.
	if err := svc.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st = svc.Stats()
	if st.Epsilon.Epoch == epoch1 || st.Epsilon.Pending != 0 {
		t.Fatalf("final flush did not run the epoch: %+v", st.Epsilon)
	}
	if st.Epsilon.Instances != 80 {
		t.Fatalf("epsilon instances = %d, want 80", st.Epsilon.Instances)
	}
	checkPartition(svc, "post-flush 2")
}
