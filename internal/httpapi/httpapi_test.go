package httpapi_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/behavior"
	"repro/internal/benchdata"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faultfs"
	"repro/internal/httpapi"
	"repro/internal/stream"
)

// nopEnricher satisfies stream.Enricher for handler-level tests that
// never reach enrichment.
type nopEnricher struct{}

func (nopEnricher) LabelSample(s *dataset.Sample) error { return nil }
func (nopEnricher) ExecuteSample(s *dataset.Sample) (*behavior.Profile, bool, error) {
	return behavior.NewProfile(), false, nil
}

// blockEnricher parks the apply worker inside the first sandbox run
// until gate closes, so tests can hold the ingest queue full.
type blockEnricher struct {
	entered chan struct{}
	gate    chan struct{}
}

func (e blockEnricher) LabelSample(s *dataset.Sample) error { return nil }
func (e blockEnricher) ExecuteSample(s *dataset.Sample) (*behavior.Profile, bool, error) {
	select {
	case e.entered <- struct{}{}:
	default:
	}
	<-e.gate
	return behavior.NewProfile(), false, nil
}

func newServer(t *testing.T, svc *stream.Service, maxBody int64) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(httpapi.New(func() httpapi.Backend { return svc }, httpapi.Options{MaxBody: maxBody}))
	t.Cleanup(ts.Close)
	return ts
}

func newService(t *testing.T, cfg stream.Config, enr stream.Enricher) *stream.Service {
	t.Helper()
	svc, err := stream.New(cfg, enr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// TestHandlerEndToEnd drives the HTTP API against a real service hosting
// the small scenario: ingest the simulated events, flush, and query every
// endpoint.
func TestHandlerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the SmallScenario over HTTP")
	}
	scenario := core.SmallScenario()
	_, sim, pipe, err := core.Prepare(scenario)
	if err != nil {
		t.Fatal(err)
	}
	cfg := stream.DefaultConfig()
	cfg.Thresholds = scenario.Thresholds
	cfg.BCluster = scenario.Enrichment.BCluster
	svc := newService(t, cfg, pipe)
	ts := newServer(t, svc, 0)

	events := sim.Dataset.Events()
	body, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %s", resp.Status)
	}
	if resp, err = http.Post(ts.URL+"/v1/flush", "application/json", nil); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush: %s", resp.Status)
	}

	getJSON := func(path string, into any) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
		}
		return resp.StatusCode
	}

	var health map[string]string
	if code := getJSON("/healthz", &health); code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz: code=%d body=%v", code, health)
	}

	var stats stream.Stats
	if code := getJSON("/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if stats.Events != len(events) || stats.Rejected != 0 || stats.EnrichErrors != 0 {
		t.Fatalf("stats after replay: %+v", stats)
	}

	for _, dim := range []string{"e", "epsilon", "p", "m"} {
		var view stream.EPMView
		if code := getJSON("/v1/clusters/"+dim, &view); code != http.StatusOK {
			t.Fatalf("clusters/%s: %d", dim, code)
		}
		if len(view.Clusters) == 0 {
			t.Fatalf("clusters/%s: empty", dim)
		}
	}
	var bview stream.BView
	if code := getJSON("/v1/clusters/b", &bview); code != http.StatusOK || len(bview.Clusters) == 0 {
		t.Fatalf("clusters/b: code=%d clusters=%d", code, len(bview.Clusters))
	}
	var junk map[string]string
	if code := getJSON("/v1/clusters/nope", &junk); code != http.StatusNotFound {
		t.Fatalf("clusters/nope: %d, want 404", code)
	}

	var sample stream.SampleView
	md5 := bview.Clusters[0].Representative
	if code := getJSON("/v1/sample/"+md5, &sample); code != http.StatusOK || sample.MD5 != md5 {
		t.Fatalf("sample/%s: code=%d view=%+v", md5, code, sample)
	}
	if code := getJSON("/v1/sample/absent", &junk); code != http.StatusNotFound {
		t.Fatalf("sample/absent: %d, want 404", code)
	}
}

// TestHandlerRecoveryGate checks the readiness split: while the service
// is still recovering (get returns nil), /healthz stays alive, /readyz
// and every service endpoint answer 503; once ready, /readyz flips.
func TestHandlerRecoveryGate(t *testing.T) {
	var svc *stream.Service
	ts := httptest.NewServer(httpapi.New(func() httpapi.Backend {
		if svc == nil {
			return nil // a typed-nil *stream.Service would pass the gate
		}
		return svc
	}, httpapi.Options{}))
	defer ts.Close()

	status := func(method, path string) int {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader("[]"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := status("GET", "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz while recovering: %d, want 200", code)
	}
	for path, method := range map[string]string{
		"/readyz": "GET", "/v1/stats": "GET", "/v1/ingest": "POST", "/v1/flush": "POST",
	} {
		if code := status(method, path); code != http.StatusServiceUnavailable {
			t.Fatalf("%s while recovering: %d, want 503", path, code)
		}
	}

	real, err := stream.New(stream.DefaultConfig(), nopEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	defer real.Close()
	svc = real
	if code := status("GET", "/readyz"); code != http.StatusOK {
		t.Fatalf("readyz when ready: %d, want 200", code)
	}
}

// TestIngestBodyCap checks oversized /v1/ingest bodies are refused with
// 413 before they reach the service.
func TestIngestBodyCap(t *testing.T) {
	svc := newService(t, stream.DefaultConfig(), nopEnricher{})
	ts := newServer(t, svc, 256)

	big := "[" + strings.Repeat(" ", 1024) + "]"
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest: %s, want 413", resp.Status)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body["error"] == "" {
		t.Fatalf("413 body = %v, %v; want an error message", body, err)
	}
	// A small body still lands.
	resp, err = http.Post(ts.URL+"/v1/ingest", "application/json", strings.NewReader("[]"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small ingest after cap test: %s, want 200", resp.Status)
	}
}

// TestIngestMalformedInput is the satellite (b) table: wrong or missing
// Content-Type, non-JSON bodies, and trailing garbage after the event
// array must all come back as structured 400s, and near-miss variants
// (charset parameter, trailing whitespace) must still land.
func TestIngestMalformedInput(t *testing.T) {
	svc := newService(t, stream.DefaultConfig(), nopEnricher{})
	ts := newServer(t, svc, 0)

	cases := []struct {
		name        string
		contentType string
		body        string
		wantCode    int
		wantErr     string
	}{
		{"missing content type", "", "[]", http.StatusBadRequest, "missing Content-Type"},
		{"wrong content type", "text/plain", "[]", http.StatusBadRequest, "unsupported Content-Type"},
		{"unparsable content type", "application/;;", "[]", http.StatusBadRequest, "unsupported Content-Type"},
		{"not json", "application/json", "{not json", http.StatusBadRequest, "decoding events"},
		{"wrong json shape", "application/json", `{"id":"ev1"}`, http.StatusBadRequest, "decoding events"},
		{"trailing garbage", "application/json", `[]]`, http.StatusBadRequest, "trailing data"},
		{"second value", "application/json", `[] []`, http.StatusBadRequest, "trailing data"},
		{"trailing junk bytes", "application/json", "[]garbage", http.StatusBadRequest, "trailing data"},
		{"charset parameter ok", "application/json; charset=utf-8", "[]", http.StatusOK, ""},
		{"trailing whitespace ok", "application/json", "[]\n\t ", http.StatusOK, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest("POST", ts.URL+"/v1/ingest", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.contentType != "" {
				req.Header.Set("Content-Type", tc.contentType)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("code %d, want %d", resp.StatusCode, tc.wantCode)
			}
			if tc.wantErr == "" {
				return
			}
			var body map[string]string
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("error response is not structured JSON: %v", err)
			}
			if !strings.Contains(body["error"], tc.wantErr) {
				t.Fatalf("error %q does not mention %q", body["error"], tc.wantErr)
			}
		})
	}
	if st := svc.Stats(); st.Events != 0 {
		t.Fatalf("malformed requests leaked %d events into the service", st.Events)
	}
}

// TestIngestOverloadDeadline is the satellite (a) regression at the HTTP
// layer: with the apply worker stalled and the queue full, POST
// /v1/ingest and /v1/flush must answer 429 with a Retry-After header
// within the admission deadline instead of hanging until the client's
// timeout.
func TestIngestOverloadDeadline(t *testing.T) {
	cfg := stream.DefaultConfig()
	cfg.QueueDepth = 2
	cfg.Admission.Deadline = 50 * time.Millisecond
	enr := blockEnricher{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	svc := newService(t, cfg, enr)
	defer close(enr.gate)
	ts := newServer(t, svc, 0)

	// Park the worker in an enrichment, then fill the queue behind it.
	stall := []dataset.Event{benchdata.StreamEvents(40)[0]}
	body, _ := json.Marshal(stall)
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stall batch: %s", resp.Status)
	}
	<-enr.entered
	filler := benchdata.StreamEvents(40)[1:3]
	for i := range filler {
		b, _ := json.Marshal(filler[i : i+1])
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", strings.NewReader(string(b)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("filler batch %d: %s", i, resp.Status)
		}
	}

	check := func(path, payload string) {
		t.Helper()
		start := time.Now()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if waited := time.Since(start); waited > 5*time.Second {
			t.Fatalf("%s held the connection %v despite the admission deadline", path, waited)
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s over a full queue: %s, want 429", path, resp.Status)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s: 429 without a Retry-After header", path)
		}
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s: unstructured 429 body: %v", path, err)
		}
		if body["reason"] != "deadline" {
			t.Fatalf("%s: reason %v, want deadline", path, body["reason"])
		}
	}
	overflow := benchdata.StreamEvents(40)[3:5]
	b, _ := json.Marshal(overflow)
	check("/v1/ingest", string(b))
	check("/v1/flush", "")
}

// TestIngestRateLimitByClientHeader checks the per-client 429 contract:
// the X-Client-ID header keys the bucket, distinct clients are
// independent, and the rejection carries Retry-After.
func TestIngestRateLimitByClientHeader(t *testing.T) {
	cfg := stream.DefaultConfig()
	cfg.Admission.RatePerSec = 5
	cfg.Admission.Burst = 2
	svc := newService(t, cfg, nopEnricher{})
	ts := newServer(t, svc, 0)

	events := benchdata.StreamEvents(40)
	send := func(client string, ev []dataset.Event) *http.Response {
		t.Helper()
		b, _ := json.Marshal(ev)
		req, err := http.NewRequest("POST", ts.URL+"/v1/ingest", strings.NewReader(string(b)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if client != "" {
			req.Header.Set(httpapi.ClientIDHeader, client)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if resp := send("flood", events[0:2]); resp.StatusCode != http.StatusOK {
		t.Fatalf("burst batch: %s", resp.Status)
	} else {
		resp.Body.Close()
	}
	resp := send("flood", events[2:4])
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("drained bucket: %s, want 429", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body["reason"] != "rate-limit" {
		t.Fatalf("429 body %v (%v), want reason rate-limit", body, err)
	}
	// An independent client is unaffected.
	if resp := send("calm", events[4:6]); resp.StatusCode != http.StatusOK {
		t.Fatalf("independent client: %s", resp.Status)
	} else {
		resp.Body.Close()
	}
	// No header: the remote IP is the key — still admitted, and tracked
	// as its own bucket.
	if resp := send("", events[6:8]); resp.StatusCode != http.StatusOK {
		t.Fatalf("header-less client: %s", resp.Status)
	} else {
		resp.Body.Close()
	}
	if n := svc.Stats().Admission.RateLimitClients; n != 3 {
		t.Fatalf("limiter tracks %d clients, want 3 (flood, calm, remote IP)", n)
	}
}

// rejectingBackend refuses every ingest with one admission rejection.
type rejectingBackend struct {
	httpapi.Backend
	rej *admission.Rejection
}

func (b rejectingBackend) IngestFrom(context.Context, string, []dataset.Event) error { return b.rej }

// TestRetryAfterRoundsUp checks that both retry hints round a rejection's
// wait up to a whole unit, at least 1: a sub-millisecond deficit must
// not tell the client to retry after 0 ms.
func TestRetryAfterRoundsUp(t *testing.T) {
	svc := newService(t, stream.DefaultConfig(), nopEnricher{})
	for _, tc := range []struct {
		wait   time.Duration
		header string
		ms     float64
	}{
		{300 * time.Microsecond, "1", 1},
		{time.Millisecond, "1", 1},
		{1200*time.Millisecond + time.Microsecond, "2", 1201},
	} {
		be := rejectingBackend{svc, &admission.Rejection{Reason: admission.ReasonRateLimit, RetryAfter: tc.wait}}
		ts := httptest.NewServer(httpapi.New(func() httpapi.Backend { return be }, httpapi.Options{}))
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", strings.NewReader("[]"))
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]any
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		ts.Close()
		if err != nil || resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("wait %v: %s (%v), want 429", tc.wait, resp.Status, err)
		}
		if got := resp.Header.Get("Retry-After"); got != tc.header {
			t.Errorf("wait %v: Retry-After %q, want %q", tc.wait, got, tc.header)
		}
		if body["retry_after_ms"] != tc.ms {
			t.Errorf("wait %v: retry_after_ms %v, want %v", tc.wait, body["retry_after_ms"], tc.ms)
		}
	}
}

// TestClientKey pins the key-derivation order: header first, then the
// remote IP without the ephemeral port.
func TestClientKey(t *testing.T) {
	r := httptest.NewRequest("POST", "/v1/ingest", nil)
	r.RemoteAddr = "203.0.113.9:55123"
	if got := httpapi.ClientKey(r); got != "203.0.113.9" {
		t.Fatalf("ClientKey = %q, want the bare remote IP", got)
	}
	r.Header.Set(httpapi.ClientIDHeader, "sensor-7")
	if got := httpapi.ClientKey(r); got != "sensor-7" {
		t.Fatalf("ClientKey = %q, want the header identity", got)
	}
}

// TestStorageFailureAnswers503 checks the storage-degraded read-only
// mode surfaces on the wire: writes answer a typed 503 with reason
// "storage_failed", reads keep serving, /v1/stats exposes the ledger,
// and /readyz stays 200 but advertises "degraded". The WAL is broken
// with a permanent faultfs write fault so the append's self-heal
// attempt fails too.
func TestStorageFailureAnswers503(t *testing.T) {
	cfg := stream.DefaultConfig()
	cfg.Durability = stream.Durability{
		Dir:    t.TempDir(),
		NoSync: true,
		FS: faultfs.New(nil, faultfs.Config{
			// Writes 1 and 2 are the setup batch and its flush record;
			// everything after fails forever.
			Rules: []faultfs.Rule{{Op: faultfs.OpWrite, At: 3, Until: -1, Kind: faultfs.KindEIO}},
		}),
	}
	svc := newService(t, cfg, nopEnricher{})
	ts := newServer(t, svc, 0)

	events := benchdata.StreamEvents(40)
	b, _ := json.Marshal(events[:2])
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy ingest: %s", resp.Status)
	}
	if resp, err = http.Post(ts.URL+"/v1/flush", "application/json", nil); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Drive one doomed batch through so the append failure latches.
	b, _ = json.Marshal(events[2:4])
	if resp, err = http.Post(ts.URL+"/v1/ingest", "application/json", strings.NewReader(string(b))); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp, err = http.Post(ts.URL+"/v1/flush", "application/json", nil); err != nil {
		t.Fatal(err)
	}
	var flushErr struct {
		Reason string `json:"reason"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&flushErr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || flushErr.Reason != "storage_failed" {
		t.Fatalf("flush on a degraded service: %s reason=%q, want 503/storage_failed", resp.Status, flushErr.Reason)
	}
	b, _ = json.Marshal(events[4:6])
	if resp, err = http.Post(ts.URL+"/v1/ingest", "application/json", strings.NewReader(string(b))); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest on a degraded service: %s, want 503", resp.Status)
	}
	var st stream.Stats
	if resp, err = http.Get(ts.URL + "/v1/stats"); err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Fatal == "" || !st.Storage.ReadOnly {
		t.Fatalf("stats must surface read-only mode: fatal=%q storage=%+v", st.Fatal, st.Storage)
	}
	// Reads keep serving and the LB keeps routing: /readyz stays 200 but
	// advertises the degradation.
	if resp, err = http.Get(ts.URL + "/v1/clusters/b"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read on a degraded service: %s, want 200", resp.Status)
	}
	var ready struct {
		Status string `json:"status"`
	}
	if resp, err = http.Get(ts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ready.Status != "degraded" {
		t.Fatalf("/readyz on a degraded service: %s status=%q, want 200/degraded", resp.Status, ready.Status)
	}
}

// TestReplicaWritesForbidden is the satellite table: every write
// endpoint on a read-only replica backend answers a typed 403 with
// reason "read_only" and no Retry-After (retrying a replica can never
// succeed), while the read endpoints keep serving.
func TestReplicaWritesForbidden(t *testing.T) {
	rep, err := stream.NewReplica(stream.DefaultConfig(), nopEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Close)
	ts := newServer(t, rep, 0)

	cases := []struct {
		name string
		path string
		body string
	}{
		{"ingest", "/v1/ingest", "[]"},
		{"ingest with events", "/v1/ingest", `[{"id":"ev1","attacker":"1.2.3.4"}]`},
		{"flush", "/v1/flush", ""},
		{"checkpoint", "/v1/checkpoint", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusForbidden {
				t.Fatalf("%s on a replica: %s, want 403", tc.path, resp.Status)
			}
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				t.Fatalf("403 carries Retry-After %q; the client must switch to the primary, not retry", ra)
			}
			var body map[string]string
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("unstructured 403 body: %v", err)
			}
			if body["reason"] != "read_only" || body["error"] == "" {
				t.Fatalf("403 body %v, want reason read_only and an error message", body)
			}
		})
	}

	// Reads still serve on the same backend.
	resp, err := http.Get(ts.URL + "/v1/clusters/b")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read on a replica: %s, want 200", resp.Status)
	}
}

// TestStatsRoleAndUptime checks /v1/stats carries the process role and
// a sane uptime for both a standalone service and a replica.
func TestStatsRoleAndUptime(t *testing.T) {
	svc := newService(t, stream.DefaultConfig(), nopEnricher{})
	rep, err := stream.NewReplica(stream.DefaultConfig(), nopEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Close)

	for _, tc := range []struct {
		name     string
		backend  httpapi.Backend
		wantRole string
	}{
		{"standalone", svc, "standalone"},
		{"replica", rep, "replica"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := newServer(t, tc.backend.(*stream.Service), 0)
			resp, err := http.Get(ts.URL + "/v1/stats")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var st struct {
				Role     string `json:"role"`
				UptimeMS *int64 `json:"uptime_ms"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
			if st.Role != tc.wantRole {
				t.Fatalf("role %q, want %q", st.Role, tc.wantRole)
			}
			if st.UptimeMS == nil || *st.UptimeMS < 0 {
				t.Fatalf("uptime_ms %v, want a non-negative field", st.UptimeMS)
			}
		})
	}
}

// TestReadinessOption checks the pluggable readiness gate: /readyz
// reflects the callback (503 "lagging" with the reason) without
// touching the service endpoints, and the Repl handler mounts under
// /v1/repl/.
func TestReadinessOption(t *testing.T) {
	svc := newService(t, stream.DefaultConfig(), nopEnricher{})
	lagging := errors.New("stale by 3s")
	var gate error
	var mu sync.Mutex
	ts := httptest.NewServer(httpapi.New(
		func() httpapi.Backend { return svc },
		httpapi.Options{
			Readiness: func() error { mu.Lock(); defer mu.Unlock(); return gate },
			Repl: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Write([]byte("shipping"))
			}),
		}))
	t.Cleanup(ts.Close)

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz with a nil gate: %d, want 200", code)
	}
	mu.Lock()
	gate = lagging
	mu.Unlock()
	code, body := get("/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while lagging: %d, want 503", code)
	}
	if !strings.Contains(body, "lagging") || !strings.Contains(body, "stale by 3s") {
		t.Fatalf("lagging readyz body %q must carry the status and reason", body)
	}
	if code, _ := get("/v1/stats"); code != http.StatusOK {
		t.Fatalf("stats while lagging: %d; lag gates routing, not queries", code)
	}
	if code, body := get("/v1/repl/segments"); code != http.StatusOK || body != "shipping" {
		t.Fatalf("repl mount: %d %q", code, body)
	}
}
