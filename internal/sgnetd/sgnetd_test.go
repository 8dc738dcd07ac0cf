package sgnetd

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/exploit"
	"repro/internal/pe"
	"repro/internal/simrng"
	"repro/internal/simtime"
)

// startGateway spins up a gateway on an ephemeral port and tears it down
// with the test.
func startGateway(t *testing.T) (*Gateway, string) {
	t.Helper()
	g := NewGateway(3)
	addr, err := g.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = g.Close()
		g.Wait()
	})
	return g, addr.String()
}

func testImpl(t *testing.T, vulnName string, port int, vulnSeed, implSeed uint64, name string) *exploit.Implementation {
	t.Helper()
	v, err := exploit.NewVulnerability(vulnName, port, 3, vulnSeed)
	if err != nil {
		t.Fatal(err)
	}
	impl, err := exploit.NewImplementation(v, name, implSeed)
	if err != nil {
		t.Fatal(err)
	}
	return impl
}

func TestSensorHelloProvisioning(t *testing.T) {
	_, addr := startGateway(t)
	s, err := Dial(addr, "sensor-0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.id != "sensor-0" {
		t.Errorf("id = %q", s.id)
	}
	if s.Version() != 0 {
		t.Errorf("fresh gateway version = %d", s.Version())
	}
	if got := s.Stats().SnapshotsApplied; got != 1 {
		t.Errorf("snapshots applied = %d, want 1 (welcome)", got)
	}
}

func TestDialValidation(t *testing.T) {
	_, addr := startGateway(t)
	if _, err := Dial(addr, ""); err == nil {
		t.Error("empty sensor id must error")
	}
	if _, err := Dial("127.0.0.1:1", "s"); err == nil {
		t.Error("unreachable gateway must error")
	}
}

func TestLearningFlowsThroughGateway(t *testing.T) {
	g, addr := startGateway(t)
	s, err := Dial(addr, "sensor-0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	impl := testImpl(t, "asn1", 445, 1, 2, "impl-a")
	r := simrng.New(1).Stream("traffic")

	// The first conversations are unknown: proxied to the gateway until
	// the model matures, after which the sensor handles traffic locally.
	for i := 0; i < 3; i++ {
		payload := make([]byte, 40+i)
		r.Read(payload)
		if _, _, err := s.Handle(445, impl.Dialog(r, payload).ClientMessages()); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Proxied != 3 {
		t.Fatalf("proxied = %d, want 3 (learning phase)", s.Stats().Proxied)
	}

	payload := make([]byte, 99)
	r.Read(payload)
	path, ok, err := s.Handle(445, impl.Dialog(r, payload).ClientMessages())
	if err != nil {
		t.Fatal(err)
	}
	if !ok || path == "" {
		t.Fatalf("post-maturity classification failed: %q %v", path, ok)
	}
	if s.Stats().Local != 1 {
		t.Errorf("local = %d, want 1 (autonomous handling)", s.Stats().Local)
	}
	if g.Version() == 0 {
		t.Error("gateway version must advance after maturing edges")
	}
}

func TestFSMSyncAcrossSensors(t *testing.T) {
	_, addr := startGateway(t)
	impl := testImpl(t, "asn1", 445, 1, 2, "impl-a")
	r := simrng.New(2).Stream("traffic")

	// Sensor A sees the activity and matures the gateway model.
	a, err := Dial(addr, "sensor-a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var pathA string
	for i := 0; i < 4; i++ {
		payload := make([]byte, 50+i)
		r.Read(payload)
		p, ok, err := a.Handle(445, impl.Dialog(r, payload).ClientMessages())
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			pathA = p
		}
	}
	if pathA == "" {
		t.Fatal("sensor A never classified")
	}

	// Sensor B connects afterwards: the welcome snapshot alone must let it
	// handle the same activity locally, with the same path identifier.
	b, err := Dial(addr, "sensor-b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	payload := make([]byte, 77)
	r.Read(payload)
	pathB, ok, err := b.Handle(445, impl.Dialog(r, payload).ClientMessages())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("sensor B could not classify after provisioning")
	}
	if b.Stats().Proxied != 0 {
		t.Errorf("sensor B proxied %d conversations, want 0", b.Stats().Proxied)
	}
	if pathA != pathB {
		t.Errorf("sensors disagree on path: %q vs %q", pathA, pathB)
	}
}

func TestEventCollection(t *testing.T) {
	g, addr := startGateway(t)
	s, err := Dial(addr, "sensor-0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ev := dataset.Event{
		ID:              "ev-000001",
		Time:            simtime.WeekStart(3),
		Attacker:        "198.51.100.7",
		Sensor:          "192.0.2.1",
		FSMPath:         "445:s3",
		DestPort:        445,
		Protocol:        "csend",
		Interaction:     "PUSH",
		PayloadPort:     9988,
		DownloadOutcome: "ok",
		Sample:          pe.Features{MD5: "abc", Size: 100},
	}
	if err := s.Report(ev); err != nil {
		t.Fatal(err)
	}
	// Duplicate IDs must be rejected by the gateway but keep the session
	// alive.
	if err := s.Report(ev); err == nil {
		t.Error("duplicate event must be rejected")
	}
	ev.ID = "ev-000002"
	if err := s.Report(ev); err != nil {
		t.Fatalf("session must survive a rejected event: %v", err)
	}

	if got := g.Dataset().EventCount(); got != 2 {
		t.Errorf("gateway collected %d events, want 2", got)
	}
	if got := g.Stats().Events; got != 2 {
		t.Errorf("stats events = %d", got)
	}
}

func TestConcurrentSensors(t *testing.T) {
	g, addr := startGateway(t)
	const sensors = 8
	const perSensor = 25

	impls := []*exploit.Implementation{
		testImpl(t, "asn1", 445, 1, 2, "impl-a"),
		testImpl(t, "asn1", 445, 1, 3, "impl-b"),
		testImpl(t, "dcom", 135, 4, 5, "impl-c"),
	}
	ports := []int{445, 445, 135}

	var wg sync.WaitGroup
	errs := make(chan error, sensors)
	for si := 0; si < sensors; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			s, err := Dial(addr, fmt.Sprintf("sensor-%02d", si))
			if err != nil {
				errs <- err
				return
			}
			defer s.Close()
			r := simrng.New(uint64(100 + si)).Stream("traffic")
			for i := 0; i < perSensor; i++ {
				k := (si + i) % len(impls)
				payload := make([]byte, 30+r.Intn(60))
				r.Read(payload)
				if _, _, err := s.Handle(ports[k], impls[k].Dialog(r, payload).ClientMessages()); err != nil {
					errs <- fmt.Errorf("sensor %d: %w", si, err)
					return
				}
				ev := dataset.Event{
					ID:              fmt.Sprintf("ev-%02d-%03d", si, i),
					Time:            simtime.WeekStart(1).Add(time.Duration(i) * time.Minute),
					Attacker:        "198.51.100.7",
					Sensor:          fmt.Sprintf("192.0.2.%d", si+1),
					DestPort:        ports[k],
					Protocol:        "ftp",
					Interaction:     "PULL",
					PayloadPort:     21,
					DownloadOutcome: "failed",
				}
				if err := s.Report(ev); err != nil {
					errs <- fmt.Errorf("sensor %d report: %w", si, err)
					return
				}
			}
		}(si)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := g.Dataset().EventCount(); got != sensors*perSensor {
		t.Errorf("collected %d events, want %d", got, sensors*perSensor)
	}
	stats := g.Stats()
	if stats.Connections != sensors {
		t.Errorf("connections = %d, want %d", stats.Connections, sensors)
	}
	// After warmup most traffic must be handled without proxying: with 8
	// sensors x 25 conversations over 3 implementations, the proxied share
	// is bounded by the learning phase.
	if stats.Observes > sensors*perSensor/2 {
		t.Errorf("observes = %d of %d conversations; FSM sync is not reducing gateway load",
			stats.Observes, sensors*perSensor)
	}
}

func TestGatewayRejectsMalformedHello(t *testing.T) {
	_, addr := startGateway(t)
	// A raw client that skips the hello and sends an unknown type.
	s := &Sensor{}
	_ = s
	conn, err := netDial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeMsg(conn.w, &Envelope{Type: MsgType("bogus")}); err != nil {
		t.Fatal(err)
	}
	env, err := readMsg(conn.r)
	if err != nil {
		t.Fatal(err)
	}
	if env.Type != MsgError {
		t.Errorf("expected error envelope, got %q", env.Type)
	}
}

func TestGatewayCloseIdempotence(t *testing.T) {
	g := NewGateway(0)
	if _, err := g.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err == nil {
		t.Error("second close must error")
	}
	g.Wait()
}

// TestGatewayCloseDrains exercises the deterministic shutdown contract:
// the listener refuses new sensors first, idle connections drain within
// the bounded grace period, every acknowledged event survives into the
// dataset, and Close itself returns only after all handlers exited.
func TestGatewayCloseDrains(t *testing.T) {
	g := NewGateway(0)
	g.DrainTimeout = 300 * time.Millisecond
	addr, err := g.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	const sensors = 4
	conns := make([]*Sensor, sensors)
	for i := range conns {
		s, err := Dial(addr.String(), fmt.Sprintf("drain-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		conns[i] = s
		ev := dataset.Event{
			ID:              fmt.Sprintf("drain-ev-%d", i),
			Time:            simtime.WeekStart(1),
			Attacker:        "198.51.100.9",
			Sensor:          fmt.Sprintf("192.0.2.%d", i+1),
			FSMPath:         "445:s1",
			DestPort:        445,
			Protocol:        "csend",
			DownloadOutcome: "failed",
		}
		if err := s.Report(ev); err != nil {
			t.Fatal(err)
		}
	}

	start := time.Now()
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// Idle connections are parked in reads; the deadline unblocks them at
	// the grace boundary, well before the force-close backstop.
	if elapsed > 2*time.Second {
		t.Fatalf("Close took %v, drain is not bounded", elapsed)
	}

	// Every acknowledged event must be in the collected dataset.
	if got := g.Dataset().EventCount(); got != sensors {
		t.Errorf("dataset has %d events after drain, want %d", got, sensors)
	}
	// New sensors are refused once Close ran.
	if _, err := Dial(addr.String(), "late"); err == nil {
		t.Error("dial after Close must fail")
	}
	// Drained sensors observe the disconnect on their next exchange.
	if err := conns[0].Report(dataset.Event{ID: "post-close", Time: simtime.WeekStart(1),
		Attacker: "a", Sensor: "s", DownloadOutcome: "failed"}); err == nil {
		t.Error("report after Close must fail")
	}
	g.Wait() // must not block after Close
}

// TestGatewayCloseMidExchange verifies a handler mid-dispatch completes
// the in-flight exchange: replies queued before the drain signal are
// delivered, not cut off.
func TestGatewayCloseMidExchange(t *testing.T) {
	g := NewGateway(0)
	g.DrainTimeout = 500 * time.Millisecond
	addr, err := g.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Dial(addr.String(), "mid")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Race reports against Close: each Report either fully succeeds
	// (ack received) or fails cleanly; acknowledged events are never
	// lost from the dataset.
	acked := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			ev := dataset.Event{
				ID:              fmt.Sprintf("mid-ev-%d", i),
				Time:            simtime.WeekStart(1),
				Attacker:        "198.51.100.10",
				Sensor:          "192.0.2.9",
				DownloadOutcome: "failed",
			}
			if err := s.Report(ev); err != nil {
				return
			}
			acked++
		}
	}()
	time.Sleep(20 * time.Millisecond)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	if got := g.Dataset().EventCount(); got < acked {
		t.Errorf("dataset has %d events, sensor got %d acks: acknowledged events were lost", got, acked)
	}
}
