package stream

// Storage health: the typed read-only degradation that replaced the
// crash-only fail-closed behavior, and the background WAL scrubber.
//
// A persistent WAL-append or checkpoint failure no longer latches the
// whole service into a fatal state — it transitions to read-only mode:
// every write (Ingest, Flush, Checkpoint) returns a *StorageFailure
// matching ErrStorageFailed (the HTTP layer maps it to a typed 503 with
// reason "storage_failed"), while queries keep serving the last applied
// state and /readyz and /v1/stats expose the degradation. The
// transition is preceded by one self-heal attempt (see healAppend): a
// torn tail or a transient fault heals in place and never surfaces.

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/wal"
)

// StorageFailedReason is the machine-readable degradation reason
// surfaced in HTTP error bodies, /readyz, and Stats.
const StorageFailedReason = "storage_failed"

// ErrStorageFailed matches (errors.Is) every *StorageFailure, so
// callers can test for storage degradation without naming the op.
var ErrStorageFailed = errors.New(StorageFailedReason)

// StorageFailure records the persistent durability failure that moved
// the service to read-only mode: writes are refused because they could
// not be made durable, reads keep serving. Recovery is an operator
// action (fix the disk, restart); the intact WAL prefix replays.
type StorageFailure struct {
	Op  string // the failing operation, e.g. "wal-append" or "checkpoint"
	Err error
}

func (e *StorageFailure) Error() string {
	return fmt.Sprintf("stream: storage failed (%s), service is read-only: %v", e.Op, e.Err)
}

func (e *StorageFailure) Unwrap() error { return e.Err }

// Is makes errors.Is(err, ErrStorageFailed) true for every
// *StorageFailure.
func (e *StorageFailure) Is(target error) bool { return target == ErrStorageFailed }

// StorageFailure reports the degraded state: nil while healthy, the
// first *StorageFailure once persistent durability failure moved the
// service to read-only mode.
func (s *Service) StorageFailure() error {
	if e := s.storageErr.Load(); e != nil {
		return e
	}
	return nil
}

// enterReadOnly latches the first persistent storage failure; later
// ones land in the recent-errors ring only.
func (s *Service) enterReadOnly(op string, err error) {
	if s.storageErr.CompareAndSwap(nil, &StorageFailure{Op: op, Err: err}) {
		s.mu.Lock()
		s.recordError(fmt.Sprintf("storage failed (%s), serving read-only: %v", op, err))
		s.mu.Unlock()
	}
}

// ScrubStats is the WAL scrubber's cumulative ledger in Stats.Storage.
type ScrubStats struct {
	// Runs counts scrub passes; Segments/Records count what they walked.
	Runs     int `json:"runs"`
	Segments int `json:"segments"`
	Records  int `json:"records"`
	// Corruptions counts read failures the scrubber hit; the distinct
	// segment paths are listed (bounded) in CorruptSegments so operators
	// see rot before recovery needs the segment.
	Corruptions     int      `json:"corruptions"`
	CorruptSegments []string `json:"corrupt_segments,omitempty"`
	LastError       string   `json:"last_error,omitempty"`
}

// StorageStats is the durability-health slice of Stats.
type StorageStats struct {
	// ReadOnly, Reason, and Error describe the degraded mode; all empty
	// while writes flow.
	ReadOnly bool   `json:"read_only"`
	Reason   string `json:"reason,omitempty"`
	Error    string `json:"error,omitempty"`
	// WALRepairs counts successful write-path self-heals (reopen +
	// retry after a failed append).
	WALRepairs int `json:"wal_repairs"`
	// CheckpointFailures is the consecutive-failure counter that trips
	// read-only mode at maxCheckpointFailures.
	CheckpointFailures int `json:"checkpoint_failures"`
	// CheckpointFallbacks counts recoveries that fell back past a
	// corrupt newest checkpoint to an older generation;
	// CorruptCheckpoints counts checkpoint files quarantined aside.
	CheckpointFallbacks int `json:"checkpoint_fallbacks"`
	CorruptCheckpoints  int `json:"corrupt_checkpoints"`
	// Generations is the number of fallback checkpoint generations
	// currently retained on disk.
	Generations int        `json:"generations"`
	Scrub       ScrubStats `json:"scrub"`
}

// storageStats snapshots the ledger. Callers hold s.mu.
func (s *Service) storageStats() StorageStats {
	st := StorageStats{
		WALRepairs:          s.walRepairs,
		CheckpointFailures:  s.ckptFailures,
		CheckpointFallbacks: s.ckptFallbacks,
		CorruptCheckpoints:  s.corruptCkpts,
		Generations:         len(s.gens),
		Scrub: ScrubStats{
			Runs:        s.scrubRuns,
			Segments:    s.scrubSegments,
			Records:     s.scrubRecords,
			Corruptions: s.scrubCorruptions,
			LastError:   s.scrubLastErr,
		},
	}
	if len(s.scrubCorrupt) > 0 {
		st.Scrub.CorruptSegments = append(st.Scrub.CorruptSegments, s.scrubCorrupt...)
	}
	if err := s.StorageFailure(); err != nil {
		st.ReadOnly = true
		st.Reason = StorageFailedReason
		st.Error = err.Error()
	}
	return st
}

// maxScrubCorrupt bounds the distinct corrupt-segment paths retained.
const maxScrubCorrupt = 8

// ScrubWAL walks every sealed WAL segment read-only, verifying frame
// CRCs, and records what it finds in Stats.Storage.Scrub — surfacing
// sealed-segment rot while the operator can still act on it, instead of
// at the next recovery. It never modifies the log; the active segment
// is skipped (its tail is in motion and Open repairs it anyway). A
// memory-only service scrubs nothing. The returned error summarizes any
// corruption found.
func (s *Service) ScrubWAL() error {
	s.mu.RLock()
	w := s.wal
	s.mu.RUnlock()
	if w == nil {
		return nil
	}
	segs, err := w.Segments()
	if err != nil {
		return err
	}
	var segments, records, corruptions int
	var corrupt []string
	var lastErr string
	for _, info := range segs {
		if !info.Sealed {
			continue
		}
		r, oerr := w.OpenSegment(info.FirstSeq, 0)
		if oerr != nil {
			if errors.Is(oerr, wal.ErrSegmentGone) {
				continue // GC won the race; nothing to scrub
			}
			corruptions++
			lastErr = oerr.Error()
			continue
		}
		segments++
		for {
			_, _, nerr := r.Next()
			if nerr == io.EOF {
				break
			}
			if nerr != nil {
				corruptions++
				lastErr = nerr.Error()
				var ce *wal.CorruptError
				if errors.As(nerr, &ce) {
					corrupt = append(corrupt, ce.Path)
				}
				break
			}
			records++
		}
		r.Close()
	}
	s.mu.Lock()
	s.scrubRuns++
	s.scrubSegments += segments
	s.scrubRecords += records
	s.scrubCorruptions += corruptions
	if lastErr != "" {
		s.scrubLastErr = lastErr
	}
	for _, p := range corrupt {
		if len(s.scrubCorrupt) >= maxScrubCorrupt {
			break
		}
		seen := false
		for _, q := range s.scrubCorrupt {
			if q == p {
				seen = true
				break
			}
		}
		if !seen {
			s.scrubCorrupt = append(s.scrubCorrupt, p)
		}
	}
	s.mu.Unlock()
	if corruptions > 0 {
		return fmt.Errorf("stream: wal scrub found %d corruptions: %s", corruptions, lastErr)
	}
	return nil
}
