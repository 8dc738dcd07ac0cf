// Package replica implements WAL log shipping: a Publisher on the
// primary serves segment manifests, checkpoint blobs, and CRC-framed
// record streams over HTTP, and a Follower rebuilds read-only shard
// state from them, tails the log, and serves the query endpoints.
//
// The shipping unit is the WAL frame. The publisher re-frames records
// it has CRC-verified from disk and the follower re-verifies every
// frame as it parses the stream, so corruption cannot cross a hop
// undetected. Catch-up is "checkpoint + WAL suffix" — exactly the
// local recovery path, run remotely — which is why a caught-up replica
// serves views byte-identical to its primary's.
package replica

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"

	"repro/internal/ckpt"
	"repro/internal/wal"
)

// Source is one shard's shippable state: its WAL and the directory
// holding its checkpoint file.
type Source struct {
	Dir string
	Log *wal.Log
}

// Publisher serves the log-shipping endpoints for a primary:
//
//	GET /v1/repl/segments                    — Manifest (all shards)
//	GET /v1/repl/checkpoint/{shard}          — newest sealed checkpoint file
//	GET /v1/repl/segment/{shard}/{first}?from=N — frame stream
type Publisher struct {
	sources []Source
}

// NewPublisher wraps the per-shard sources, in shard order.
func NewPublisher(sources []Source) (*Publisher, error) {
	if len(sources) == 0 {
		return nil, errors.New("replica: no sources")
	}
	for i, s := range sources {
		if s.Log == nil || s.Dir == "" {
			return nil, fmt.Errorf("replica: source %d has no WAL; the primary needs -wal-dir", i)
		}
	}
	return &Publisher{sources: sources}, nil
}

// SegmentManifest describes one shippable segment.
type SegmentManifest = wal.SegmentInfo

// ShardManifest is one shard's shipping state. CheckpointSeq is the
// coverage of the newest durable checkpoint (0 when none exists);
// LastSeq is the newest shippable record.
type ShardManifest struct {
	Shard         int               `json:"shard"`
	CheckpointSeq uint64            `json:"checkpoint_seq"`
	LastSeq       uint64            `json:"last_seq"`
	Segments      []SegmentManifest `json:"segments"`
}

// Manifest is the publisher's full shipping state.
type Manifest struct {
	Shards   int             `json:"shards"`
	PerShard []ShardManifest `json:"per_shard"`
}

// Manifest snapshots the shippable state. Per shard the segment list
// is read BEFORE the checkpoint seq: a checkpoint only ever justifies
// garbage-collecting segments its own seq covers, and the checkpoint
// seq is monotone, so this order guarantees the advertised segments
// cover every record past the advertised checkpoint (min first_seq <=
// checkpoint_seq+1) even when a checkpoint lands and truncates
// concurrently. The reverse order could advertise an old checkpoint
// next to a post-GC segment list — promising a WAL suffix the primary
// no longer holds, which would strand every bootstrapping follower.
func (p *Publisher) Manifest() (Manifest, error) {
	m := Manifest{Shards: len(p.sources)}
	for i, src := range p.sources {
		segs, err := src.Log.Segments()
		if err != nil {
			return Manifest{}, fmt.Errorf("replica: shard %d: %w", i, err)
		}
		ckptSeq, err := p.checkpointSeq(i)
		if err != nil {
			return Manifest{}, err
		}
		sm := ShardManifest{Shard: i, CheckpointSeq: ckptSeq, Segments: segs}
		if n := len(segs); n > 0 && segs[n-1].LastSeq >= segs[n-1].FirstSeq {
			sm.LastSeq = segs[n-1].LastSeq
		}
		m.PerShard = append(m.PerShard, sm)
	}
	return m, nil
}

// ErrNoCheckpoint reports a shard that has not checkpointed yet; the
// follower then bootstraps from an empty state and replays the whole
// WAL.
var ErrNoCheckpoint = errors.New("replica: no checkpoint")

// Checkpoint opens the shard's newest sealed checkpoint whose CRC
// verifies: the live file when it passes, else the newest retained
// generation that does — a primary with a corrupt live checkpoint keeps
// bootstrapping followers (they just replay a longer WAL suffix). The
// file is shipped as it lies on disk, trailer included, so the follower
// checks the same CRC as it decodes; the caller streams and closes it.
func (p *Publisher) Checkpoint(shard int) (*os.File, error) {
	if shard < 0 || shard >= len(p.sources) {
		return nil, fmt.Errorf("replica: shard %d outside [0,%d)", shard, len(p.sources))
	}
	f, _, err := ckpt.OpenNewest(p.sources[shard].Dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNoCheckpoint
	}
	if err != nil {
		return nil, fmt.Errorf("replica: shard %d checkpoint: %w", shard, err)
	}
	return f, nil
}

// checkpointSeq is the coverage of the checkpoint Checkpoint would
// ship. Every follower poll asks, so the probe reads the seq from the
// header and lets the CRC check the rest as it streams past, without
// loading the file.
func (p *Publisher) checkpointSeq(shard int) (uint64, error) {
	f, seq, err := ckpt.OpenNewest(p.sources[shard].Dir)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("replica: shard %d checkpoint: %w", shard, err)
	}
	f.Close()
	return seq, nil
}

// Handler serves the shipping endpoints. The daemon mounts it under
// the primary's API mux; it is opaque to internal/httpapi so the HTTP
// layer never imports this package.
func (p *Publisher) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/repl/segments", p.serveManifest)
	mux.HandleFunc("GET /v1/repl/checkpoint/{shard}", p.serveCheckpoint)
	mux.HandleFunc("GET /v1/repl/segment/{shard}/{first}", p.serveSegment)
	return mux
}

func (p *Publisher) serveManifest(w http.ResponseWriter, r *http.Request) {
	m, err := p.Manifest()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(m)
}

func (p *Publisher) serveCheckpoint(w http.ResponseWriter, r *http.Request) {
	shard, err := strconv.Atoi(r.PathValue("shard"))
	if err != nil || shard < 0 || shard >= len(p.sources) {
		http.Error(w, "unknown shard", http.StatusNotFound)
		return
	}
	f, err := p.Checkpoint(shard)
	if errors.Is(err, ErrNoCheckpoint) {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer f.Close()
	// The length lets the follower's client report a body cut short; a
	// read error mid-stream aborts the connection.
	if st, err := f.Stat(); err == nil {
		w.Header().Set("Content-Length", strconv.FormatInt(st.Size(), 10))
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	io.Copy(w, f)
}

// serveSegment streams the segment's frames, re-encoded and therefore
// re-CRC-checked, from the ?from= seq (default: the whole segment). A
// garbage-collected segment is a 404 — the follower's signal to
// re-bootstrap. A read error mid-stream aborts the connection rather
// than ending cleanly, but a clean-looking truncation is harmless
// anyway: frames are self-delimiting, so the follower just applies
// what arrived and fetches the rest on its next poll.
func (p *Publisher) serveSegment(w http.ResponseWriter, r *http.Request) {
	shard, err := strconv.Atoi(r.PathValue("shard"))
	if err != nil || shard < 0 || shard >= len(p.sources) {
		http.Error(w, "unknown shard", http.StatusNotFound)
		return
	}
	first, err := strconv.ParseUint(strings.TrimSpace(r.PathValue("first")), 10, 64)
	if err != nil {
		http.Error(w, "bad segment seq", http.StatusBadRequest)
		return
	}
	from := first
	if q := r.URL.Query().Get("from"); q != "" {
		if from, err = strconv.ParseUint(q, 10, 64); err != nil {
			http.Error(w, "bad from seq", http.StatusBadRequest)
			return
		}
	}
	sr, err := p.sources[shard].Log.OpenSegment(first, from)
	if errors.Is(err, wal.ErrSegmentGone) {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer sr.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	bw := bufio.NewWriterSize(w, 1<<16)
	for {
		seq, payload, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// The primary's own segment failed verification: kill the
			// connection so the follower sees a torn stream, not a clean
			// end that would hide the missing suffix forever.
			panic(http.ErrAbortHandler)
		}
		if _, err := bw.Write(wal.EncodeFrame(seq, payload)); err != nil {
			return
		}
	}
	bw.Flush()
}
