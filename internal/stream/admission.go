package stream

import (
	"time"

	"repro/internal/admission"
)

// admitBatch runs the pre-queue admission pipeline for one ingest
// batch: read-only (storage-failure) gate, per-client token bucket
// (client "" is the trusted loopback — in-process replay and recovery —
// and bypasses the limiter only), then the adaptive shedder. A refusal
// is returned as a typed *admission.Rejection and accounted per reason.
func (s *Service) admitBatch(client string, n int) error {
	if err := s.StorageFailure(); err != nil {
		return err
	}
	if client != "" {
		if rej := s.limiter.Admit(client, n); rej != nil {
			s.noteRejected(client, string(rej.Reason), n)
			return rej
		}
	}
	if drop, p := s.shedder.Decide(s.qDelay.Load(), len(s.in), cap(s.in)); drop {
		rej := &admission.Rejection{
			Reason:     admission.ReasonShed,
			RetryAfter: admission.RetryAfterHint(s.qDelay.Load()),
		}
		s.noteRejected(client, string(rej.Reason), n)
		s.noteShedProbability(p)
		return rej
	}
	return nil
}

// noteAdmitted and noteRejected keep the admission ledger. They use
// their own mutex, not s.mu: producers must not serialize behind the
// apply worker's write lock just to bump a counter.
func (s *Service) noteAdmitted(n int) {
	s.admMu.Lock()
	s.admittedBatches++
	s.admittedEvents += n
	s.admMu.Unlock()
}

func (s *Service) noteRejected(client, reason string, n int) {
	s.admMu.Lock()
	s.rejectedBatches[reason]++
	s.rejectedEvents[reason] += n
	if client != "" {
		s.rejectedByClient[client]++
	}
	s.admMu.Unlock()
}

func (s *Service) noteShedProbability(p float64) {
	s.admMu.Lock()
	s.shedProb = p
	s.admMu.Unlock()
}

// observePressure folds one queue-wait sample (enqueue → dequeue) into
// the smoothed delay and drives the degraded-mode state machine: enter
// when the smoothed delay exceeds the degrade target, leave — and drain
// any deferred epochs — once it falls below half the target
// (hysteresis, so the service does not flap at the threshold). Runs on
// the worker.
func (s *Service) observePressure(wait time.Duration) {
	delay := s.qDelay.Observe(wait)
	target := s.cfg.Admission.DegradeTarget
	if target <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case !s.degradedMode && delay > target:
		s.degradedMode = true
		s.degradedEntered++
	case s.degradedMode && delay < target/2:
		s.degradedMode = false
		s.degradedExited++
		// Pressure released: fire any epoch the degraded stretch
		// deferred instead of waiting for the next add or Flush.
		s.epochCheck()
	}
}

// AdmissionStats is the overload-protection ledger in Stats. The
// invariant the stress and overload harnesses assert: for every
// non-empty IngestFrom call that was not cut short by the caller's own
// context or Close, AdmittedBatches + sum(RejectedBatches) grows by
// exactly one (and the *Events fields by the batch size). A shard
// coordinator's aggregate sums its shards' ledgers, so above one shard
// a batch that passes the shared rate limit is counted once for each
// shard it was split over; the *Events identity still holds.
type AdmissionStats struct {
	// Enabled reports whether any overload-protection knob is on.
	Enabled bool `json:"enabled"`
	// AdmittedBatches/AdmittedEvents count batches accepted onto the
	// queue (acceptance = queued, not yet applied).
	AdmittedBatches int `json:"admitted_batches"`
	AdmittedEvents  int `json:"admitted_events"`
	// RejectedBatches/RejectedEvents count refusals by reason:
	// rate-limit, deadline, queue-full, shed.
	RejectedBatches map[string]int `json:"rejected_batches,omitempty"`
	RejectedEvents  map[string]int `json:"rejected_events,omitempty"`
	// QueueDelayMs is the smoothed enqueue→dequeue delay the shedder and
	// degraded mode key off.
	QueueDelayMs float64 `json:"queue_delay_ms"`
	// ShedProbability is the drop probability at the last shed decision.
	ShedProbability float64 `json:"shed_probability"`
	// Waiters counts producers currently blocked on the full queue.
	Waiters int `json:"waiters"`
	// Degraded reports the service is deferring EPM rebuild and B
	// verification epochs under sustained pressure; queries serve the
	// last snapshot. DegradedEntered/DegradedExited count transitions.
	Degraded         bool `json:"degraded"`
	RateLimitClients int  `json:"rate_limit_clients"`
	DegradedEntered  int  `json:"degraded_entered"`
	DegradedExited   int  `json:"degraded_exited"`
	// EpochsDeferred counts epoch triggers skipped while degraded; the
	// work is performed on pressure release or at the next Flush.
	EpochsDeferred int `json:"epochs_deferred"`
}

// admissionStats snapshots the ledger. Callers hold s.mu (read or
// write) for the degraded fields; the ledger fields take admMu.
func (s *Service) admissionStats() AdmissionStats {
	s.admMu.Lock()
	st := AdmissionStats{
		Enabled:         s.cfg.Admission.Enabled(),
		AdmittedBatches: s.admittedBatches,
		AdmittedEvents:  s.admittedEvents,
		ShedProbability: s.shedProb,
	}
	if len(s.rejectedBatches) > 0 {
		st.RejectedBatches = make(map[string]int, len(s.rejectedBatches))
		st.RejectedEvents = make(map[string]int, len(s.rejectedEvents))
		for k, v := range s.rejectedBatches {
			st.RejectedBatches[k] = v
		}
		for k, v := range s.rejectedEvents {
			st.RejectedEvents[k] = v
		}
	}
	s.admMu.Unlock()
	st.QueueDelayMs = float64(s.qDelay.Load()) / float64(time.Millisecond)
	st.Waiters = int(s.waiters.Load())
	st.RateLimitClients = s.limiter.Clients()
	st.Degraded = s.degradedMode
	st.DegradedEntered = s.degradedEntered
	st.DegradedExited = s.degradedExited
	st.EpochsDeferred = s.epochsDeferred
	return st
}
