// Package httpapi implements the landscape service's HTTP surface,
// shared by the landscaped daemon and the overload harness. It owns the
// request-hardening and overload-signaling policy: strict Content-Type
// and trailing-garbage checks on POST bodies (structured 400s), body
// size caps (413), and the mapping of typed admission rejections to
// 429/503 responses carrying a Retry-After header, so a loaded service
// answers fast instead of holding connections open.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net"
	"net/http"
	"time"

	"repro/internal/admission"
	"repro/internal/dataset"
	"repro/internal/stream"
)

// DefaultMaxBody caps POST bodies (64 MiB); larger requests get 413.
const DefaultMaxBody = 64 << 20

// ClientIDHeader names the request header carrying the submitter
// identity for per-client rate limiting. Absent, the remote IP is the
// client key, so unidentified submitters share per-IP buckets.
const ClientIDHeader = "X-Client-ID"

// Backend is the landscape the API serves. The daemon always hosts a
// shard.Coordinator, at every shard count, so /v1/stats has one shape;
// a read replica serves a replica.Follower wrapped around one, and a
// bare stream.Service still satisfies the interface for harnesses that
// host a single service. Every back end returns the same view types, so
// the view wire format does not depend on the deployment shape.
type Backend interface {
	IngestFrom(ctx context.Context, client string, events []dataset.Event) error
	Flush(ctx context.Context) error
	Checkpoint(ctx context.Context) error
	EPMClusters(dim string) (stream.EPMView, error)
	BClusters() stream.BView
	Sample(id string) (stream.SampleView, bool)
	StatsPayload() any
}

// Options tunes the API beyond the backend itself.
type Options struct {
	// MaxBody caps POST bodies; <= 0 selects DefaultMaxBody.
	MaxBody int64
	// Repl, when set, is mounted under GET /v1/repl/ — the primary's
	// log-shipping surface (an internal/replica.Publisher handler,
	// opaque here so this package never depends on the replication
	// machinery).
	Repl http.Handler
	// Readiness, when set, adds a condition to /readyz beyond "the
	// backend exists": a replica reports its replication lag here, so
	// load balancers stop routing to a follower that fell too far
	// behind. The returned error becomes the advertised reason.
	Readiness func() error
}

// New builds the HTTP API around a landscape backend. get returns nil
// until the backend has finished recovering; until then every service
// endpoint answers 503 while /healthz (liveness) stays 200.
func New(get func() Backend, opts Options) http.Handler {
	maxBody := opts.MaxBody
	if maxBody <= 0 {
		maxBody = DefaultMaxBody
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if get() == nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]string{"status": "recovering"})
			return
		}
		if opts.Readiness != nil {
			if err := opts.Readiness(); err != nil {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusServiceUnavailable)
				json.NewEncoder(w).Encode(map[string]string{"status": "lagging", "reason": err.Error()})
				return
			}
		}
		// A storage-degraded backend still serves reads, so it stays
		// ready (200) — load balancers must not drop read traffic — but
		// the degradation is advertised for operators and write routers.
		if sr, ok := get().(interface{ StorageFailure() error }); ok {
			if err := sr.StorageFailure(); err != nil {
				writeJSON(w, map[string]string{
					"status": "degraded",
					"reason": stream.StorageFailedReason,
					"error":  err.Error(),
				})
				return
			}
		}
		writeJSON(w, map[string]string{"status": "ready"})
	})
	if opts.Repl != nil {
		mux.Handle("GET /v1/repl/", opts.Repl)
	}
	// ready wraps a handler with the recovery gate.
	ready := func(h func(svc Backend, w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			svc := get()
			if svc == nil {
				writeError(w, http.StatusServiceUnavailable, errors.New("service is recovering"))
				return
			}
			h(svc, w, r)
		}
	}
	mux.HandleFunc("GET /v1/stats", ready(func(svc Backend, w http.ResponseWriter, r *http.Request) {
		writeJSON(w, svc.StatsPayload())
	}))
	mux.HandleFunc("POST /v1/ingest", ready(func(svc Backend, w http.ResponseWriter, r *http.Request) {
		events, ok := decodeEvents(w, r, maxBody)
		if !ok {
			return
		}
		if err := svc.IngestFrom(r.Context(), ClientKey(r), events); err != nil {
			writeServiceError(w, err)
			return
		}
		writeJSON(w, map[string]int{"queued": len(events)})
	}))
	mux.HandleFunc("POST /v1/flush", ready(func(svc Backend, w http.ResponseWriter, r *http.Request) {
		if err := svc.Flush(r.Context()); err != nil {
			writeServiceError(w, err)
			return
		}
		writeJSON(w, map[string]string{"status": "flushed"})
	}))
	mux.HandleFunc("POST /v1/checkpoint", ready(func(svc Backend, w http.ResponseWriter, r *http.Request) {
		if err := svc.Checkpoint(r.Context()); err != nil {
			writeServiceError(w, err)
			return
		}
		writeJSON(w, map[string]string{"status": "checkpointed"})
	}))
	mux.HandleFunc("GET /v1/clusters/{dim}", ready(func(svc Backend, w http.ResponseWriter, r *http.Request) {
		dim := r.PathValue("dim")
		if dim == "b" {
			writeJSON(w, svc.BClusters())
			return
		}
		view, err := svc.EPMClusters(dim)
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, view)
	}))
	mux.HandleFunc("GET /v1/sample/{id}", ready(func(svc Backend, w http.ResponseWriter, r *http.Request) {
		view, ok := svc.Sample(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown sample %q", r.PathValue("id")))
			return
		}
		writeJSON(w, view)
	}))
	return mux
}

// ClientKey derives the rate-limiting identity for a request: the
// ClientIDHeader when set, the remote IP otherwise.
func ClientKey(r *http.Request) string {
	if id := r.Header.Get(ClientIDHeader); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// decodeEvents reads and validates an ingest body: enforced JSON
// Content-Type, size cap, strict decode, and no trailing garbage after
// the array. On failure it writes the structured error response and
// returns ok=false.
func decodeEvents(w http.ResponseWriter, r *http.Request, maxBody int64) ([]dataset.Event, bool) {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing Content-Type; send application/json"))
		return nil, false
	}
	media, _, err := mime.ParseMediaType(ct)
	if err != nil || media != "application/json" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("unsupported Content-Type %q; send application/json", ct))
		return nil, false
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	dec := json.NewDecoder(r.Body)
	var events []dataset.Event
	if err := dec.Decode(&events); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes; split the batch", tooBig.Limit))
			return nil, false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding events: %w", err))
		return nil, false
	}
	// json.Decoder stops at the end of the first value; anything after
	// it but whitespace is a malformed request, not a second batch.
	if _, err := dec.Token(); err == nil || !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, errors.New("trailing data after the event array"))
		return nil, false
	}
	return events, true
}

// writeServiceError maps a service-side ingest/flush/checkpoint failure
// onto the wire: writes to a read-only replica become a typed 403 (use
// the primary; no Retry-After, retrying here can never succeed);
// admission rejections become 429 (the client should
// slow down: rate-limit, deadline) or 503 (the service is saturated:
// queue-full, shed) with a Retry-After header; storage-failure
// read-only mode is a typed 503 with reason "storage_failed" (reads
// keep serving; writes need operator intervention); anything else is
// 503.
func writeServiceError(w http.ResponseWriter, err error) {
	if errors.Is(err, stream.ErrReadOnly) {
		// A replica: the write is not retryable here, ever — the client
		// must target the primary, so this is a typed 403, not a 503.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusForbidden)
		json.NewEncoder(w).Encode(map[string]string{
			"error":  err.Error(),
			"reason": "read_only",
		})
		return
	}
	if rej, ok := admission.AsRejection(err); ok {
		code := http.StatusServiceUnavailable
		if rej.Reason == admission.ReasonRateLimit || rej.Reason == admission.ReasonDeadline {
			code = http.StatusTooManyRequests
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfter(rej.RetryAfter, time.Second)))
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(map[string]any{
			"error":          rej.Error(),
			"reason":         string(rej.Reason),
			"retry_after_ms": retryAfter(rej.RetryAfter, time.Millisecond),
		})
		return
	}
	if errors.Is(err, stream.ErrStorageFailed) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{
			"error":  err.Error(),
			"reason": stream.StorageFailedReason,
		})
		return
	}
	writeError(w, http.StatusServiceUnavailable, err)
}

// retryAfter renders a retry hint in whole units, rounded up and at
// least 1: a zero hint reads as "retry immediately", which defeats the
// point of sending one.
func retryAfter(d, unit time.Duration) int64 {
	return max(1, int64((d+unit-1)/unit))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
