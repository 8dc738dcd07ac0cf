package stream

// Replica mode: a read-only service is the recovery path run remotely.
// A follower (internal/replica) bootstraps it from a shipped checkpoint
// (RestoreSnapshot) and then feeds the primary's WAL records, in seq
// order, through ApplyReplicated — the same applyBatch/applyFlush path
// local recovery replays — so a caught-up replica's state is
// byte-identical to a service that ingested the stream itself.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/admission"
	"repro/internal/ckpt"
	"repro/internal/wal"
)

// Replication roles surfaced in Stats.
const (
	RoleStandalone = "standalone"
	RolePrimary    = "primary"
	RoleReplica    = "replica"
)

// ErrReadOnly refuses writes on a replica; the HTTP layer maps it to a
// typed 403.
var ErrReadOnly = errors.New("stream: replica is read-only; write to the primary")

// ReplicationGapError reports a hole in the shipped record stream —
// the primary garbage-collected segments the follower still needed.
// The only recovery is a fresh bootstrap from the newest checkpoint.
type ReplicationGapError struct {
	Want, Got uint64
}

func (e *ReplicationGapError) Error() string {
	return fmt.Sprintf("stream: replication gap: want seq %d, got %d", e.Want, e.Got)
}

// ErrBadRecord marks a shipped WAL record the replica could not decode
// — corruption that slipped past frame CRCs (e.g. a publisher-side read
// fault). Unlike a gap it does not implicate the follower's position;
// the tail loop treats it like a gap and re-bootstraps from a fresh
// checkpoint rather than wedging on a poisoned stream.
var ErrBadRecord = errors.New("stream: bad replicated record")

// NewReplica constructs a read-only service that rebuilds state from a
// shipped checkpoint and WAL records instead of its own ingest queue.
// cfg must match the primary's analysis parameters (epoch size,
// thresholds, clustering config): the replica re-derives state by
// running the primary's records through the same apply path, so a
// parameter mismatch silently diverges the views — the same contract
// local recovery already imposes. Durability and admission are forced
// off: a replica's durability IS the primary's WAL, and its writes are
// refused outright.
func NewReplica(cfg Config, enricher Enricher) (*Service, error) {
	cfg.Durability = Durability{}
	cfg.Admission = admission.Config{}
	s, err := New(cfg, enricher)
	if err != nil {
		return nil, err
	}
	s.replica = true
	s.role = RoleReplica
	return s, nil
}

// RestoreSnapshot streams a primary checkpoint from r into a fresh
// replica — the bootstrap half of catch-up — through the same restore
// local recovery runs. r carries the sealed checkpoint file the
// publisher ships as it lies on the primary's disk; a body without its
// CRC trailer is refused as corrupt. A snapshot that fails to verify or
// decode leaves the replica fresh. The
// WAL suffix past the checkpoint's seq then arrives through
// ApplyReplicated.
func (s *Service) RestoreSnapshot(r io.Reader) error {
	if !s.replica {
		return fmt.Errorf("stream: RestoreSnapshot on a non-replica service")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.applySeq != 0 || s.version != 0 {
		return fmt.Errorf("stream: RestoreSnapshot on a non-fresh replica (applied seq %d)", s.applySeq)
	}
	if err := ckpt.DecodeSealed(r, s.restoreCheckpoint); err != nil {
		if rerr := s.resetState(); rerr != nil {
			return rerr
		}
		return err
	}
	s.version++
	return nil
}

// ApplyReplicated applies one shipped WAL record. Records must arrive
// in exactly the primary's sequence order; the follower's tail loop is
// the replica's single mutator, standing in for the apply worker. The
// seq is recorded before the record applies, mirroring local recovery,
// so counters that embed the sequence (retry backoff) match the
// primary's byte for byte. A *ReplicationGapError means segments were
// missed; the caller must re-bootstrap from a fresh checkpoint.
func (s *Service) ApplyReplicated(seq uint64, payload []byte) error {
	if !s.replica {
		return fmt.Errorf("stream: ApplyReplicated on a non-replica service")
	}
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return fmt.Errorf("%w: record %d: %v", ErrBadRecord, seq, err)
	}
	if rec.Kind != walKindBatch && rec.Kind != walKindFlush {
		return fmt.Errorf("%w: record %d has unknown kind %q", ErrBadRecord, seq, rec.Kind)
	}
	s.mu.Lock()
	if want := s.applySeq + 1; seq != want {
		s.mu.Unlock()
		return &ReplicationGapError{Want: want, Got: seq}
	}
	s.applySeq = seq
	s.mu.Unlock()
	if rec.Kind == walKindFlush {
		s.applyFlush()
	} else {
		s.applyBatch(rec.Client, rec.Events, 0)
	}
	s.mu.Lock()
	s.replicated++
	s.mu.Unlock()
	return nil
}

// AppliedSeq reports the newest primary record reflected in the
// replica's state (the replication lag numerator).
func (s *Service) AppliedSeq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.applySeq
}

// SetRole overrides the role label surfaced in Stats; the daemon marks
// a service "primary" when it publishes its WAL to followers.
func (s *Service) SetRole(role string) {
	s.mu.Lock()
	s.role = role
	s.mu.Unlock()
}

// ReplicationSource exposes the durability artifacts log shipping
// serves: the directory holding the checkpoint file and the WAL. The
// log is nil on a memory-only service — there is nothing to ship.
func (s *Service) ReplicationSource() (dir string, log *wal.Log) {
	if s.wal == nil {
		return "", nil
	}
	return s.cfg.Durability.Dir, s.wal
}
