package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	"repro/bench/synth"
	"repro/internal/shard"
	"repro/internal/stream"
)

// tally counts the operations a run attempted and how many failed:
// transport errors and non-2xx answers, 429 and 503 included.
type tally struct {
	attempted, failed atomic.Int64
}

func (t *tally) note(err error) error {
	t.attempted.Add(1)
	if err != nil {
		t.failed.Add(1)
	}
	return err
}

// conn is one of the benchmark's two loopback connections: a client
// whose transport holds at most one connection, so the whole load comes
// from one process over at most two.
type conn struct {
	c    *http.Client
	base string
	t    *tally
}

func newConn(t *tally) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{c: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, t: t}
}

// retarget points the connection at a (re)started daemon and drops the
// pooled connection to the previous one.
func (c *conn) retarget(base string) {
	c.base = base
	c.c.CloseIdleConnections()
}

// do sends one request and returns the body of a 2xx answer.
func (c *conn) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// op runs one counted operation.
func (c *conn) op(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	raw, err := c.do(ctx, method, path, body)
	return raw, c.t.note(err)
}

func (c *conn) ingest(ctx context.Context, b synth.Batch) error {
	_, err := c.op(ctx, http.MethodPost, "/v1/ingest", b.Body)
	return err
}

func (c *conn) flush(ctx context.Context) error {
	_, err := c.op(ctx, http.MethodPost, "/v1/flush", nil)
	return err
}

// stats reads /v1/stats in either shape: the flat stream.Stats of a
// single service or the {aggregate, per_shard} shape of a coordinator.
func (c *conn) stats(ctx context.Context) (stream.Stats, error) {
	raw, err := c.op(ctx, http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return stream.Stats{}, err
	}
	return decodeStats(raw)
}

func decodeStats(raw []byte) (stream.Stats, error) {
	var sharded shard.Stats
	if err := json.Unmarshal(raw, &sharded); err == nil && sharded.Shards > 0 {
		return sharded.Aggregate, nil
	}
	var st stream.Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		return stream.Stats{}, fmt.Errorf("decoding stats: %w", err)
	}
	return st, nil
}

// openIngest posts batches on c at perSec batches per second from start.
func openIngest(ctx context.Context, c *conn, batches []synth.Batch, start time.Time, perSec float64) []op {
	interval := time.Duration(float64(time.Second) / perSec)
	return openLoop(realClock{}, start, interval, len(batches), func(i int) error {
		return c.ingest(ctx, batches[i])
	})
}

// pollUntil reads /v1/stats until a poll reports at least target
// applied events, and returns every poll in arrival order. The pauses
// between polls are drawn uniformly from [period/2, 3*period/2) by r:
// polls on a fixed period would beat against the open loop's fixed
// schedule, so a small change in apply time could move every batch's
// lag by a whole period at once.
func pollUntil(ctx context.Context, c *conn, period time.Duration, r *rand.Rand, target int, timeout time.Duration) ([]poll, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var polls []poll
	for {
		st, err := c.stats(ctx)
		if err == nil {
			polls = append(polls, poll{at: time.Now(), events: st.Events})
			if st.Events >= target {
				return polls, nil
			}
		}
		if ctx.Err() != nil {
			return polls, fmt.Errorf("%d of %d events applied when polling gave up: %w", lastEvents(polls), target, ctx.Err())
		}
		nap(period/2 + time.Duration(r.Int63n(int64(period))))
	}
}

func lastEvents(polls []poll) int {
	if len(polls) == 0 {
		return 0
	}
	return polls[len(polls)-1].events
}
