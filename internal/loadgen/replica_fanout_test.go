package loadgen_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/loadgen"
	"repro/internal/replica"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/wal"
)

// replPrimary is a durable primary serving both the query API and the
// log-shipping endpoints, the way `landscaped -repl` wires them.
type replPrimary struct {
	backend httpapi.Backend
	logs    []*wal.Log
	srv     *httptest.Server
}

func newReplPrimary(t *testing.T, shards int) *replPrimary {
	t.Helper()
	cfg := shardFloodCfg()
	cfg.Durability = stream.Durability{Dir: t.TempDir(), NoSync: true, SegmentBytes: 1 << 16}
	c, err := shard.New(shard.Config{Shards: shards, Stream: cfg}, synEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	p := &replPrimary{backend: c}
	sources := make([]replica.Source, shards)
	for i := range sources {
		sources[i].Dir, sources[i].Log = c.Shard(i).ReplicationSource()
		p.logs = append(p.logs, sources[i].Log)
	}
	pub, err := replica.NewPublisher(sources)
	if err != nil {
		t.Fatal(err)
	}
	p.srv = httptest.NewServer(httpapi.New(
		func() httpapi.Backend { return p.backend },
		httpapi.Options{Repl: pub.Handler()}))
	t.Cleanup(p.srv.Close)
	return p
}

// startReplica bootstraps a follower off the primary, starts its tail
// loop, and serves it over its own httptest server.
func startReplica(t *testing.T, p *replPrimary, poll time.Duration) (*replica.Follower, *httptest.Server) {
	t.Helper()
	f, err := replica.NewFollower(replica.FollowerConfig{
		Primary:  p.srv.URL,
		Stream:   shardFloodCfg(),
		Enricher: synEnricher{},
		Poll:     poll,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	f.Start()
	srv := httptest.NewServer(httpapi.New(
		func() httpapi.Backend { return f },
		httpapi.Options{Readiness: f.Ready}))
	t.Cleanup(srv.Close)
	return f, srv
}

// waitCaughtUp polls the follower until every shard reaches the
// primary's current WAL head.
func waitCaughtUp(t *testing.T, f *replica.Follower, p *replPrimary) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		lag := f.Lag()
		ok := lag.CaughtUp && len(lag.AppliedSeq) == len(p.logs)
		if ok {
			for i, log := range p.logs {
				if lag.AppliedSeq[i] != log.LastSeq() {
					ok = false
				}
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never caught up: %+v", lag)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func getBody(t *testing.T, base, path string) string {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", path, resp.Status, b)
	}
	return string(b)
}

// TestReplicaFanoutSmoke is the replication harness behind
// `make smoke-replica`, at one shard and at four: flood a durable
// primary over HTTP (with a first follower bootstrapping mid-flood and
// being abandoned, standing in for a killed replica), drain, then
// bring up fresh followers and require (1) byte-identical cluster
// views on every follower, (2) typed 403s for writes, and (3) the
// aggregate read throughput of 1 primary + 2 replicas to at least
// double the primary's own (enforced only with enough cores to mean
// anything).
func TestReplicaFanoutSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second replication harness")
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			p := newReplPrimary(t, shards)

			// A follower that starts mid-flood and dies mid-catch-up: its
			// replacement must converge regardless of where it stopped.
			abandoned := make(chan struct{})
			go func() {
				defer close(abandoned)
				f, err := replica.NewFollower(replica.FollowerConfig{
					Primary:  p.srv.URL,
					Stream:   shardFloodCfg(),
					Enricher: synEnricher{},
					Poll:     20 * time.Millisecond,
				})
				if err != nil {
					return
				}
				// Best effort: the flood may outrun it; kill it either way.
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer cancel()
				f.Bootstrap(ctx)
				f.Close()
			}()

			report, err := loadgen.Run(context.Background(), loadgen.Config{BaseURL: p.srv.URL, Clients: shardFloodPlans()})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range report.Clients {
				if c.Errors > 0 || c.RejectedTotal() > 0 {
					t.Fatalf("client %s: %d errors, %d rejections during the flood",
						c.Name, c.Errors, c.RejectedTotal())
				}
			}
			flushHTTP(t, p.srv.URL)
			<-abandoned

			rep1, srv1 := startReplica(t, p, 20*time.Millisecond)
			rep2, srv2 := startReplica(t, p, 20*time.Millisecond)
			waitCaughtUp(t, rep1, p)
			waitCaughtUp(t, rep2, p)

			for _, path := range []string{"/v1/clusters/e", "/v1/clusters/p", "/v1/clusters/m", "/v1/clusters/b"} {
				want := getBody(t, p.srv.URL, path)
				for i, srv := range []*httptest.Server{srv1, srv2} {
					if got := getBody(t, srv.URL, path); got != want {
						t.Fatalf("replica %d: %s diverges from the primary:\nreplica %s\nprimary %s",
							i+1, path, got, want)
					}
				}
			}

			resp, err := http.Post(srv1.URL+"/v1/ingest", "application/json", strings.NewReader("[]"))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusForbidden {
				t.Fatalf("write on a replica: %s, want 403", resp.Status)
			}

			baseline := loadgen.RunReads(loadgen.ReadPlan{
				Targets:          []string{p.srv.URL},
				ClientsPerTarget: 2,
				Duration:         700 * time.Millisecond,
			})
			fanned := loadgen.RunReads(loadgen.ReadPlan{
				Targets:          []string{p.srv.URL, srv1.URL, srv2.URL},
				ClientsPerTarget: 2,
				Duration:         700 * time.Millisecond,
			})
			t.Logf("reads: primary alone %v; primary+2 replicas %v", baseline, fanned)
			if baseline.Errors > 0 || fanned.Errors > 0 {
				t.Fatalf("read floods hit errors: baseline %d, fanned %d", baseline.Errors, fanned.Errors)
			}
			ratio := fanned.QPS() / baseline.QPS()
			if runtime.NumCPU() >= 4 && ratio < 2 {
				t.Errorf("aggregate read throughput with 2 replicas only %.2fx the primary's (want >= 2x)", ratio)
			} else if ratio < 2 {
				t.Logf("read scaling %.2fx < 2x tolerated on %d CPUs (serialized scheduling)", ratio, runtime.NumCPU())
			}
		})
	}
}
