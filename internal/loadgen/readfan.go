// Package loadgen is the read-flood load generator: RunReads drives a
// primary and its replicas over HTTP and reports the aggregate read
// throughput that cmd/benchjson records. The ingest load generator of
// the overload, shard-flood and replica fan-out harnesses lives in its
// tests.
package loadgen

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// ReadPlan drives a fixed-duration read flood fanned out over several
// query targets (a primary plus its replicas): every target gets
// ClientsPerTarget goroutines cycling through Paths as fast as the
// target answers. The aggregate throughput is the replication payoff
// being measured — replicas multiply read capacity because each
// follower rebuilds the full state and answers from local memory.
type ReadPlan struct {
	// Targets are the base URLs to query, round-robin over all of them.
	Targets []string
	// ClientsPerTarget is the per-target goroutine count; 0 means 2.
	ClientsPerTarget int
	// Duration bounds the flood; 0 means one second.
	Duration time.Duration
	// Paths are the GET endpoints to cycle through; empty selects the
	// four cluster views.
	Paths []string
	// HTTPClient overrides http.DefaultClient when set.
	HTTPClient *http.Client
}

// ReadReport aggregates a read flood.
type ReadReport struct {
	// Requests counts completed 200s; Errors everything else.
	Requests int
	Errors   int
	// Bytes sums response body sizes (a sanity check that the floods
	// compared actually shipped comparable views).
	Bytes int64
	// Elapsed is the wall time of the flood.
	Elapsed time.Duration
}

// QPS is the aggregate successful-read throughput.
func (r ReadReport) QPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Elapsed.Seconds()
}

// RunReads executes the plan and aggregates across all goroutines.
func RunReads(plan ReadPlan) ReadReport {
	clients := plan.ClientsPerTarget
	if clients <= 0 {
		clients = 2
	}
	duration := plan.Duration
	if duration <= 0 {
		duration = time.Second
	}
	paths := plan.Paths
	if len(paths) == 0 {
		paths = []string{"/v1/clusters/e", "/v1/clusters/p", "/v1/clusters/m", "/v1/clusters/b"}
	}
	httpClient := plan.HTTPClient
	if httpClient == nil {
		httpClient = http.DefaultClient
	}

	var mu sync.Mutex
	var report ReadReport
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(duration)
	for _, target := range plan.Targets {
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(base string, seed int) {
				defer wg.Done()
				requests, errors := 0, 0
				var bytes int64
				for i := seed; time.Now().Before(deadline); i++ {
					resp, err := httpClient.Get(base + paths[i%len(paths)])
					if err != nil {
						errors++
						continue
					}
					n, _ := io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errors++
						continue
					}
					requests++
					bytes += n
				}
				mu.Lock()
				report.Requests += requests
				report.Errors += errors
				report.Bytes += bytes
				mu.Unlock()
			}(target, c)
		}
	}
	wg.Wait()
	report.Elapsed = time.Since(start)
	return report
}

// String renders the report for logs.
func (r ReadReport) String() string {
	return fmt.Sprintf("%d reads (%d errors, %.1f MiB) in %v = %.0f reads/s",
		r.Requests, r.Errors, float64(r.Bytes)/(1<<20), r.Elapsed.Round(time.Millisecond), r.QPS())
}
