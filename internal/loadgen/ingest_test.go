// The ingest load generator of the overload, shard-flood and replica
// fan-out harnesses: it drives a landscape service over HTTP with
// per-client event streams, records every admission outcome, and reports
// per-client acceptance, rejection-by-reason, and latency quantiles. The
// event content comes from ClientEvents, so a run is deterministic up to
// service-side timing. It lives in a test file because only these
// harnesses use it; the loadgen_test package sees its exported names.

package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/pe"
	"repro/internal/simrng"
)

// ClientIDHeader names the header carrying the client key; it mirrors
// httpapi.ClientIDHeader without importing the server package.
const ClientIDHeader = "X-Client-ID"

// ClientPlan is one synthetic client's workload: its admission identity,
// the batches it posts in order, and the pacing between posts.
type ClientPlan struct {
	// Name is sent as the X-Client-ID header and keys the report.
	Name string
	// Batches are posted sequentially to /v1/ingest.
	Batches [][]dataset.Event
	// Interval paces the posts; 0 posts back-to-back, which is how the
	// overload phases exceed service capacity.
	Interval time.Duration
}

// Config parameterizes a load run.
type Config struct {
	// BaseURL is the service root, e.g. the httptest server URL.
	BaseURL string
	// Clients run concurrently, one goroutine each.
	Clients []ClientPlan
	// HTTPClient overrides http.DefaultClient when set.
	HTTPClient *http.Client
}

// Outcome is one posted batch's admission result.
type Outcome struct {
	// Status is the HTTP status code; 0 records a transport error.
	Status int
	// Reason is the structured rejection reason on 429/503 answers
	// ("rate-limit", "deadline", "queue-full", "shed"), empty otherwise.
	Reason string
	// RetryAfterMS echoes the retry_after_ms hint on rejections.
	RetryAfterMS int64
	// Latency is the full request round trip.
	Latency time.Duration
}

// ClientReport aggregates one client's outcomes.
type ClientReport struct {
	Name      string
	Submitted int
	Accepted  int
	// Rejected counts 429/503 answers by reason.
	Rejected map[string]int
	// Errors counts transport failures and non-admission statuses.
	Errors   int
	Outcomes []Outcome
}

// RejectedTotal sums the rejection counts across reasons.
func (c *ClientReport) RejectedTotal() int {
	n := 0
	for _, v := range c.Rejected {
		n += v
	}
	return n
}

// LatencyQuantile returns the q-quantile (0 < q <= 1) of the client's
// round-trip latencies, or 0 when no outcomes were recorded.
func (c *ClientReport) LatencyQuantile(q float64) time.Duration {
	if len(c.Outcomes) == 0 {
		return 0
	}
	lat := make([]time.Duration, len(c.Outcomes))
	for i, o := range c.Outcomes {
		lat[i] = o.Latency
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	idx := int(q*float64(len(lat))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(lat) {
		idx = len(lat) - 1
	}
	return lat[idx]
}

// Report is the whole run's outcome, one entry per client plan.
type Report struct {
	Clients []*ClientReport
}

// Client returns the named client's report, or nil.
func (r *Report) Client(name string) *ClientReport {
	for _, c := range r.Clients {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Submitted, Accepted, and RejectedByReason aggregate across clients.
func (r *Report) Submitted() int {
	n := 0
	for _, c := range r.Clients {
		n += c.Submitted
	}
	return n
}

func (r *Report) Accepted() int {
	n := 0
	for _, c := range r.Clients {
		n += c.Accepted
	}
	return n
}

func (r *Report) RejectedByReason() map[string]int {
	out := map[string]int{}
	for _, c := range r.Clients {
		for reason, n := range c.Rejected {
			out[reason] += n
		}
	}
	return out
}

// LatencyQuantile returns the q-quantile over every outcome of the run.
func (r *Report) LatencyQuantile(q float64) time.Duration {
	all := &ClientReport{}
	for _, c := range r.Clients {
		all.Outcomes = append(all.Outcomes, c.Outcomes...)
	}
	return all.LatencyQuantile(q)
}

// Run executes every client plan concurrently and blocks until all
// finish or ctx is canceled. Transport errors are recorded, not fatal:
// an overloaded service answering slowly must not crash the generator.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: empty BaseURL")
	}
	httpc := cfg.HTTPClient
	if httpc == nil {
		httpc = http.DefaultClient
	}
	rep := &Report{Clients: make([]*ClientReport, len(cfg.Clients))}
	var wg sync.WaitGroup
	for i, plan := range cfg.Clients {
		rep.Clients[i] = &ClientReport{Name: plan.Name, Rejected: map[string]int{}}
		wg.Add(1)
		go func(plan ClientPlan, cr *ClientReport) {
			defer wg.Done()
			runClient(ctx, httpc, cfg.BaseURL, plan, cr)
		}(plan, rep.Clients[i])
	}
	wg.Wait()
	return rep, ctx.Err()
}

func runClient(ctx context.Context, httpc *http.Client, base string, plan ClientPlan, cr *ClientReport) {
	for _, batch := range plan.Batches {
		if ctx.Err() != nil {
			return
		}
		body, err := json.Marshal(batch)
		if err != nil {
			cr.Errors++
			continue
		}
		cr.Submitted++
		out := post(ctx, httpc, base, plan.Name, body)
		cr.Outcomes = append(cr.Outcomes, out)
		switch {
		case out.Status == http.StatusOK:
			cr.Accepted++
		case out.Status == http.StatusTooManyRequests || out.Status == http.StatusServiceUnavailable:
			cr.Rejected[out.Reason]++
		default:
			cr.Errors++
		}
		if plan.Interval > 0 {
			select {
			case <-time.After(plan.Interval):
			case <-ctx.Done():
				return
			}
		}
	}
}

func post(ctx context.Context, httpc *http.Client, base, client string, body []byte) Outcome {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/ingest", bytes.NewReader(body))
	if err != nil {
		return Outcome{Latency: time.Since(start)}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ClientIDHeader, client)
	resp, err := httpc.Do(req)
	if err != nil {
		return Outcome{Latency: time.Since(start)}
	}
	defer resp.Body.Close()
	out := Outcome{Status: resp.StatusCode, Latency: time.Since(start)}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		var payload struct {
			Reason       string `json:"reason"`
			RetryAfterMS int64  `json:"retry_after_ms"`
		}
		if json.NewDecoder(resp.Body).Decode(&payload) == nil {
			out.Reason = payload.Reason
			out.RetryAfterMS = payload.RetryAfterMS
		}
	}
	return out
}

// ClientEvents builds a per-client ingest workload for the overload
// harness: n delivery events namespaced under the client name — event
// IDs "%s-ev%06d", sample MD5s "%s-smp%06d" — with the same
// family-structured PE and EPM shape as StreamEvents, so concurrent
// clients never collide on event IDs or samples while their traffic
// still forms patterns. Deterministic in (client, n).
func ClientEvents(client string, n int) []dataset.Event {
	r := simrng.New(99).Stream("loadgen-" + client)
	base := time.Date(2008, 3, 1, 0, 0, 0, 0, time.UTC)
	events := make([]dataset.Event, 0, n)
	for i := 0; i < n; i++ {
		fam := i % 25
		events = append(events, dataset.Event{
			ID:          fmt.Sprintf("%s-ev%06d", client, i),
			Time:        base.Add(time.Duration(i) * time.Second),
			Attacker:    fmt.Sprintf("198.51.%d.%d", r.Intn(4), r.Intn(250)),
			Sensor:      fmt.Sprintf("192.0.2.%d", r.Intn(120)),
			FSMPath:     fmt.Sprintf("445:s%d", fam%5),
			DestPort:    445,
			Protocol:    []string{"csend", "ftp", "http"}[fam%3],
			Filename:    fmt.Sprintf("drop%d.exe", fam%4),
			PayloadPort: 9000 + fam%6,
			Interaction: "PUSH",
			Sample: pe.Features{
				MD5:             fmt.Sprintf("%s-smp%06d", client, i),
				Size:            20000 + fam*512,
				Magic:           pe.MagicPEGUI,
				IsPE:            true,
				MachineType:     332,
				NumSections:     3 + fam%3,
				NumImportedDLLs: 2 + fam%4,
				OSVersion:       40,
				LinkerVersion:   60 + fam%2,
				SectionNames:    fmt.Sprintf(".text,.data,.fam%d", fam),
				ImportedDLLs:    fmt.Sprintf("kernel32.dll,ws2_32.dll,fam%d.dll", fam%7),
				Kernel32Symbols: "CreateFileA,WriteFile",
			},
			DownloadOutcome: "ok",
		})
	}
	return events
}
