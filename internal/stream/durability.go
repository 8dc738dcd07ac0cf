package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/bcluster"
	"repro/internal/ckpt"
	"repro/internal/dataset"
	"repro/internal/epm"
	"repro/internal/faultfs"
	"repro/internal/wal"
)

// Durability configures crash safety. With a Dir set, every accepted
// request (batch or flush) is appended to a write-ahead log before it
// is applied, and checkpoints serialize the full service state so
// recovery is "load checkpoint, replay WAL suffix". The zero value
// disables persistence.
type Durability struct {
	// Dir holds the WAL segments and the checkpoint file.
	Dir string
	// CheckpointEvery checkpoints automatically after every N applied
	// records; 0 checkpoints only on explicit Checkpoint calls.
	CheckpointEvery int
	// SegmentBytes is the WAL rotation threshold; 0 selects 8 MiB.
	SegmentBytes int64
	// NoSync skips fsyncs (see wal.Options.NoSync); tests use it.
	NoSync bool
	// Generations is how many previous checkpoints are retained as
	// checkpoint.json.<gen> fallbacks. The WAL is garbage-collected only
	// past the oldest retained generation, so each fallback keeps a
	// replayable suffix: a corrupt newest checkpoint costs a longer
	// replay, not the state. 0 selects 2; negative retains none.
	Generations int
	// FS overrides the filesystem under the WAL and the checkpoint
	// writer; nil selects the os passthrough. The chaos harness injects
	// seeded disk faults through it.
	FS faultfs.FS
}

func (d Durability) validate() error {
	if d.CheckpointEvery < 0 {
		return fmt.Errorf("stream: CheckpointEvery %d is negative", d.CheckpointEvery)
	}
	return nil
}

// generations resolves the retained-generation count.
func (d Durability) generations() int {
	switch {
	case d.Generations == 0:
		return 2
	case d.Generations < 0:
		return 0
	}
	return d.Generations
}

const (
	checkpointName    = ckpt.Name
	checkpointVersion = 1

	walKindBatch = "batch"
	walKindFlush = "flush"

	// maxCheckpointFailures is how many consecutive checkpoint failures
	// the service tolerates before degrading to read-only: until then
	// the WAL alone still makes every acknowledged write durable, but a
	// checkpointless WAL grows (and recovery lengthens) without bound.
	maxCheckpointFailures = 3
)

// ckptGeneration is one retained fallback checkpoint: its file suffix
// and the WAL seq it covers (which pins the GC horizon).
type ckptGeneration struct {
	gen uint64
	seq uint64
}

// walRecord is the WAL payload: the raw accepted request. Batches are
// logged before validation, so replay reproduces rejection and
// duplicate accounting too; flushes are logged because flush-forced
// epochs mint stable cluster IDs that recovery must re-mint.
type walRecord struct {
	Kind   string          `json:"kind"`
	Events []dataset.Event `json:"events,omitempty"`
	// Client is the ingest identity the batch arrived under, so replay
	// and replication rebuild the same provenance attribution.
	Client string `json:"client,omitempty"`
}

// checkpointFile is the atomic on-disk snapshot's format. Everything not
// listed is a deterministic function of what is: instances re-project
// from the events, EPM clusterings re-derive from the instances and
// watermarks, and the B-clusterer restores from its own state record.
// MaxQueueDepth is deliberately absent — queue depth is path-dependent,
// not part of the landscape state. No whole checkpointFile is ever
// built: encodeCheckpoint streams its fields in this order, and
// restoreCheckpoint decodes only the small ones into one.
type checkpointFile struct {
	Version     int                       `json:"version"`
	Seq         uint64                    `json:"seq"` // every record <= Seq is reflected
	Events      []dataset.Event           `json:"events"`
	Samples     []sampleEnrichment        `json:"samples,omitempty"`
	Counters    checkpointCounters        `json:"counters"`
	Dims        [3]dimState               `json:"dims"`
	B           bcluster.IncrementalState `json:"b"`
	Retry       []retryEntryState         `json:"retry,omitempty"`
	Quarantined map[string]string         `json:"quarantined,omitempty"`
	// Provenance ledger (defense.go); empty — and absent from the
	// serialization — unless client tracking is on.
	Clients       map[string]*clientLedger `json:"clients,omitempty"`
	SampleClients map[string]string        `json:"sample_clients,omitempty"`
	SampleGroups  map[string]string        `json:"sample_groups,omitempty"`
}

// sampleEnrichment persists the per-sample state the events cannot
// reproduce: AV labels and the behavioral profile.
type sampleEnrichment struct {
	MD5      string            `json:"md5"`
	AVLabel  string            `json:"av_label,omitempty"`
	AVLabels map[string]string `json:"av_labels,omitempty"`
	Profile  []string          `json:"profile,omitempty"`
}

type checkpointCounters struct {
	Events           int            `json:"events"`
	Rejected         int            `json:"rejected"`
	RejectedByReason map[string]int `json:"rejected_by_reason,omitempty"`
	Duplicates       int            `json:"duplicates"`
	Executed         int            `json:"executed"`
	Degraded         int            `json:"degraded"`
	EnrichErrors     int            `json:"enrich_errors"`
	StaleProfiles    int            `json:"stale_profiles"`
	Flushes          int            `json:"flushes"`
	RetryScheduled   int            `json:"retry_scheduled"`
	RetryAttempts    int            `json:"retry_attempts"`
	RetrySuccesses   int            `json:"retry_successes"`
	RecentErrors     []string       `json:"recent_errors,omitempty"`
}

// dimState is one EPM dimension's non-derivable state.
type dimState struct {
	Epoch      int            `json:"epoch"`
	BuiltLen   int            `json:"built_len"`
	NextStable int            `json:"next_stable"`
	Stable     map[string]int `json:"stable,omitempty"`
}

type retryEntryState struct {
	MD5      string `json:"md5"`
	Stage    string `json:"stage"`
	Attempts int    `json:"attempts"`
	NextSeq  uint64 `json:"next_seq"`
	LastErr  string `json:"last_err,omitempty"`
}

// logRequest appends the request to the WAL; the request must not be
// applied when this fails (the WAL is the source of truth, so applying
// an unlogged batch would make the live state unrecoverable). An append
// failure gets one self-heal attempt (healAppend); a failure that
// survives it degrades the service to read-only instead of crashing.
// Without a WAL the sequence number still advances: it is the
// retry-backoff clock.
func (s *Service) logRequest(req request) bool {
	if s.wal == nil {
		s.mu.Lock()
		s.applySeq++
		s.mu.Unlock()
		return true
	}
	if s.StorageFailure() != nil {
		// Already read-only: queued writes drain without touching the
		// broken log; the worker reports the typed error to the caller.
		return false
	}
	rec := walRecord{Kind: walKindBatch, Events: req.events, Client: req.client}
	if req.flush {
		rec.Kind = walKindFlush
		rec.Events = nil
		rec.Client = ""
	}
	payload, err := json.Marshal(rec)
	var seq uint64
	if err == nil {
		seq, err = s.wal.Append(payload)
		if err != nil {
			var healed bool
			if seq, healed = s.healAppend(payload); healed {
				err = nil
			}
		}
	}
	s.mu.Lock()
	if err != nil {
		s.walAppendErrors++
		s.recordError("wal append failed, request dropped: " + err.Error())
		s.mu.Unlock()
		// Degrade instead of failing closed: writes return a typed
		// error, reads keep serving the last applied state.
		s.enterReadOnly("wal-append", err)
		return false
	}
	s.walAppends++
	s.applySeq = seq
	s.mu.Unlock()
	return true
}

// healAppend is the write path's one self-heal attempt after a failed
// append: close the poisoned log and reopen it, which repairs any torn
// tail the failure left. If the reopened log already contains the
// record (the write completed and only its fsync failed), a fresh Sync
// proves its durability — retrying the append there would log a
// duplicate. Otherwise the append is retried once on the repaired log.
// Reports the record's seq and whether the heal succeeded; on failure
// the caller degrades the service to read-only.
func (s *Service) healAppend(payload []byte) (uint64, bool) {
	dcfg := s.cfg.Durability
	want := s.wal.LastSeq() + 1
	s.wal.Close()
	w, err := wal.Open(wal.Options{Dir: dcfg.Dir, SegmentBytes: dcfg.SegmentBytes, NoSync: dcfg.NoSync, FS: dcfg.FS})
	if err != nil {
		return 0, false
	}
	s.mu.Lock()
	s.wal = w
	s.mu.Unlock()
	var seq uint64
	switch last := w.LastSeq(); {
	case last >= want:
		// The write completed and only its fsync failed: prove
		// durability with a fresh Sync instead of logging a duplicate.
		if err := w.Sync(); err != nil {
			return 0, false
		}
		seq = want
	case last == want-1:
		// The torn tail was repaired away; the repaired log ends exactly
		// where it did before the failed append, so retry once.
		if seq, err = w.Append(payload); err != nil {
			return 0, false
		}
	default:
		// The reopened log ends short of where it did before the
		// failure: history is missing (the directory was wiped, or
		// whole frames vanished). Appending here would silently stitch
		// a gap into the log, so refuse and degrade.
		return 0, false
	}
	s.mu.Lock()
	s.walRepairs++
	s.mu.Unlock()
	return seq, true
}

// Checkpoint serializes the full service state to the durability
// directory and garbage-collects the WAL prefix every retained
// generation covers. The request travels through the worker queue, so
// it observes a consistent batch boundary: every previously queued
// request is applied first.
func (s *Service) Checkpoint(ctx context.Context) error {
	if s.replica {
		return ErrReadOnly
	}
	if s.wal == nil {
		return fmt.Errorf("stream: durability is not configured")
	}
	if err := s.StorageFailure(); err != nil {
		return err
	}
	return s.call(ctx, request{ckpt: true})
}

// checkpoint runs one checkpoint attempt on the worker and does the
// failure accounting: consecutive failures are counted (and recorded),
// and at maxCheckpointFailures the service degrades to read-only.
func (s *Service) checkpoint() error {
	err := s.writeCheckpoint()
	s.mu.Lock()
	if err != nil {
		s.ckptFailures++
		n := s.ckptFailures
		s.recordError("checkpoint: " + err.Error())
		s.mu.Unlock()
		if n >= maxCheckpointFailures {
			s.enterReadOnly("checkpoint", err)
		}
		return err
	}
	s.ckptFailures = 0
	s.mu.Unlock()
	return nil
}

// writeCheckpoint writes the snapshot atomically: the state streamed
// into a temp file under a CRC trailer, fsync, archive of the previous
// checkpoint as a fallback generation, rename, directory fsync. Every
// step's error propagates — a checkpoint that may not be durable must
// not narrow the WAL's GC horizon. Runs on the worker.
func (s *Service) writeCheckpoint() error {
	dir := s.cfg.Durability.Dir
	path := filepath.Join(dir, checkpointName)
	tmp, err := s.fs.CreateTemp(dir, checkpointName+".tmp-")
	if err != nil {
		return fmt.Errorf("stream: checkpoint: %w", err)
	}
	defer s.fs.Remove(tmp.Name())
	s.mu.RLock()
	seq := s.applySeq
	err = s.encodeCheckpoint(tmp)
	s.mu.RUnlock()
	if err == nil && !s.cfg.Durability.NoSync {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		return fmt.Errorf("stream: checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("stream: checkpoint: %w", err)
	}
	// Archive the checkpoint being replaced as a fallback generation:
	// recovery walks generations newest-first when the live file fails
	// its CRC or decode.
	if s.cfg.Durability.generations() > 0 {
		if _, serr := s.fs.Stat(path); serr == nil {
			gen := s.ckptGen + 1
			if err := s.fs.Rename(path, ckpt.GenName(dir, gen)); err != nil {
				return fmt.Errorf("stream: archiving checkpoint generation: %w", err)
			}
			s.mu.Lock()
			s.ckptGen = gen
			s.gens = append(s.gens, ckptGeneration{gen: gen, seq: s.lastCkptSeq})
			s.mu.Unlock()
		}
	}
	if err := s.fs.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("stream: checkpoint: %w", err)
	}
	if !s.cfg.Durability.NoSync {
		// The rename — and any generation archive before it — must be
		// durable before the WAL prefix it supersedes is collected.
		if err := s.syncDir(dir); err != nil {
			return fmt.Errorf("stream: checkpoint: %w", err)
		}
	}
	s.mu.Lock()
	s.checkpoints++
	s.lastCkptSeq = seq
	s.sinceCkpt = 0
	s.mu.Unlock()
	s.pruneGenerations(dir)
	// Only the prefix below every retained checkpoint is redundant:
	// falling back to an older generation needs its longer WAL suffix.
	if err := s.wal.TruncateBefore(s.gcHorizon(seq) + 1); err != nil {
		s.mu.Lock()
		s.recordError("wal truncation after checkpoint: " + err.Error())
		s.mu.Unlock()
	}
	return nil
}

// encodeCheckpoint streams the state into w as one sealed checkpoint.
// The payload is byte for byte json.Marshal of the checkpointFile the
// state describes, but no copy of the state is built: events come from
// the dataset's chunks, sample records and B inputs from iterators, and
// each element passes through one reused json.Encoder. Callers hold at
// least the read lock; the worker is the only caller, so no mutation is
// concurrent.
func (s *Service) encodeCheckpoint(w io.Writer) error {
	cw := ckpt.NewWriter(w)
	o := newObjectWriter(cw)
	o.object(func() {
		o.field("version", checkpointVersion)
		o.field("seq", s.applySeq)
		o.array("events", false, func(elem func(any)) {
			s.ds.EachEvent(func(e *dataset.Event) { elem(e) })
		})
		se := new(sampleEnrichment)
		o.array("samples", true, func(elem func(any)) {
			for _, smp := range s.ds.Samples() {
				if smp.AVLabel == "" && len(smp.AVLabels) == 0 && smp.Profile == nil {
					continue
				}
				*se = sampleEnrichment{MD5: smp.MD5, AVLabel: smp.AVLabel, AVLabels: smp.AVLabels, Profile: smp.Profile}
				elem(se)
			}
		})
		o.field("counters", &checkpointCounters{
			Events:           s.events,
			Rejected:         s.rejected,
			RejectedByReason: s.rejectedByReason,
			Duplicates:       s.duplicates,
			Executed:         s.executed,
			Degraded:         s.degraded,
			EnrichErrors:     s.enrichErrors,
			StaleProfiles:    s.staleProfiles,
			Flushes:          s.flushes,
			RetryScheduled:   s.retryScheduled,
			RetryAttempts:    s.retryAttempts,
			RetrySuccesses:   s.retrySuccesses,
			RecentErrors:     s.recentErrors,
		})
		dims := new([3]dimState)
		for i, d := range s.dims {
			dims[i] = dimState{Epoch: d.epoch, BuiltLen: d.builtLen, NextStable: d.nextStable, Stable: d.stable}
		}
		o.field("dims", dims)
		o.key("b")
		o.object(func() {
			o.array("inputs", false, func(elem func(any)) {
				s.b.EachInput(func(in *bcluster.IncrementalInput) { elem(in) })
			})
			o.field("integrated", s.b.Samples()-s.b.Pending())
			o.field("epochs", s.b.Epochs())
		})
		re := new(retryEntryState)
		o.array("retry", true, func(elem func(any)) {
			for _, e := range s.retry.entries {
				*re = retryEntryState{MD5: e.md5, Stage: e.stage, Attempts: e.attempts, NextSeq: e.nextSeq, LastErr: e.lastErr}
				elem(re)
			}
		})
		// The maps are omitempty: absent unless populated.
		if len(s.quarantined) > 0 {
			o.field("quarantined", s.quarantined)
		}
		if len(s.clients) > 0 {
			o.field("clients", s.clients)
		}
		if len(s.sampleClient) > 0 {
			o.field("sample_clients", s.sampleClient)
		}
		if len(s.sampleGroup) > 0 {
			o.field("sample_groups", s.sampleGroup)
		}
	})
	if o.err != nil {
		return o.err
	}
	return cw.Seal()
}

// objectWriter writes a JSON object field by field, staging punctuation
// and one value at a time in a reused buffer: no more than one element
// of an array field is ever held in memory.
type objectWriter struct {
	w     io.Writer
	buf   bytes.Buffer
	enc   *json.Encoder // encodes into buf
	first bool          // the next key opens its object
	err   error
}

func newObjectWriter(w io.Writer) *objectWriter {
	o := &objectWriter{w: w}
	o.enc = json.NewEncoder(&o.buf)
	return o
}

// object writes {fields}; fields writes the keys and values.
func (o *objectWriter) object(fields func()) {
	o.buf.WriteByte('{')
	o.first = true
	fields()
	o.buf.WriteByte('}')
	o.first = false
	o.flush()
}

func (o *objectWriter) key(name string) {
	if !o.first {
		o.buf.WriteByte(',')
	}
	o.first = false
	o.buf.WriteByte('"')
	o.buf.WriteString(name)
	o.buf.WriteString(`":`)
}

// value writes v's json.Marshal encoding: what Encode writes, less the
// newline it ends each value with.
func (o *objectWriter) value(v any) {
	if o.err != nil {
		return
	}
	if o.err = o.enc.Encode(v); o.err == nil {
		o.buf.Truncate(o.buf.Len() - 1)
	}
	o.flush()
}

func (o *objectWriter) flush() {
	if o.err == nil {
		_, o.err = o.w.Write(o.buf.Bytes())
	}
	o.buf.Reset()
}

func (o *objectWriter) field(name string, v any) {
	o.key(name)
	o.value(v)
}

// array writes a field whose value is the array of the elements each
// passes to elem. An empty array is written as [] unless omitEmpty.
func (o *objectWriter) array(name string, omitEmpty bool, each func(elem func(v any))) {
	n := 0
	each(func(v any) {
		if n == 0 {
			o.key(name)
			o.buf.WriteByte('[')
		} else {
			o.buf.WriteByte(',')
		}
		n++
		o.value(v)
	})
	switch {
	case n > 0:
		o.buf.WriteByte(']')
	case !omitEmpty:
		o.key(name)
		o.buf.WriteString("[]")
	}
}

// syncDir fsyncs a directory so renames within it are durable.
func (s *Service) syncDir(dir string) error {
	d, err := s.fs.Open(dir)
	if err != nil {
		return fmt.Errorf("opening directory for sync: %w", err)
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return fmt.Errorf("syncing directory: %w", err)
	}
	return d.Close()
}

// pruneGenerations drops retained generations beyond the configured
// count, oldest first. Runs on the worker.
func (s *Service) pruneGenerations(dir string) {
	retain := s.cfg.Durability.generations()
	s.mu.Lock()
	var drop []ckptGeneration
	for len(s.gens) > retain {
		drop = append(drop, s.gens[0])
		s.gens = s.gens[1:]
	}
	s.mu.Unlock()
	for _, g := range drop {
		if err := s.fs.Remove(ckpt.GenName(dir, g.gen)); err != nil && !errors.Is(err, os.ErrNotExist) {
			s.mu.Lock()
			s.recordError("pruning checkpoint generation: " + err.Error())
			s.mu.Unlock()
		}
	}
}

// gcHorizon is the oldest seq any retained checkpoint — live or
// generation — covers; WAL records at or before it are redundant
// everywhere.
func (s *Service) gcHorizon(liveSeq uint64) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h := liveSeq
	for _, g := range s.gens {
		if g.seq < h {
			h = g.seq
		}
	}
	return h
}

// checkpointSeqOf reads only a checkpoint file's coverage seq, checking
// its CRC as it reads to the end.
func checkpointSeqOf(fs faultfs.FS, path string) (uint64, error) {
	f, err := fs.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return ckpt.ReadSeq(f)
}

// quarantineCheckpoint renames a checkpoint that failed its CRC or
// decode aside (keeping the evidence) so the next checkpoint cannot
// archive it as a "good" generation and the verifier skips it. Runs
// before the worker starts, so no lock is held.
func (s *Service) quarantineCheckpoint(path string) {
	s.corruptCkpts++
	if err := s.fs.Rename(path, path+ckpt.CorruptSuffix); err != nil {
		s.recordError("quarantining corrupt checkpoint: " + err.Error())
	}
}

// recover streams in the newest checkpoint that verifies and decodes —
// falling back through retained generations when the live file is
// corrupt or unreadable, at the cost of a longer WAL replay —
// re-derives all in-memory state from it, opens the WAL (repairing a
// torn tail), and replays every record after the checkpoint through the
// normal apply path. Corrupt candidates are quarantined aside, not
// deleted; unreadable ones stay where they are. Runs in New, before the
// worker starts.
func (s *Service) recover() error {
	dcfg := s.cfg.Durability
	dir := dcfg.Dir
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	gens, err := ckpt.Generations(s.fs, dir)
	if err != nil {
		return fmt.Errorf("stream: listing checkpoint generations: %w", err)
	}
	if len(gens) > 0 {
		s.ckptGen = gens[len(gens)-1]
	}
	// Candidates newest-first: the live checkpoint, then generations.
	candidates := []string{filepath.Join(dir, checkpointName)}
	for i := len(gens) - 1; i >= 0; i-- {
		candidates = append(candidates, ckpt.GenName(dir, gens[i]))
	}
	// resetState and restoreCheckpoint both rewrite the recent-errors
	// ring, so fallback diagnostics accumulate here and are recorded
	// once the surviving state is in place.
	var recoveryErrs []string
	fellPast := false // a candidate existed but failed; the restore below is a fallback
	for _, path := range candidates {
		f, err := s.fs.Open(path)
		if errors.Is(err, os.ErrNotExist) {
			// A merely absent candidate (no live checkpoint after a
			// quarantine, a pruned generation) is the normal shape of
			// the chain, not a fallback incident.
			continue
		}
		if err == nil {
			err = ckpt.Decode(f, s.restoreCheckpoint)
			f.Close()
		}
		if err == nil {
			s.lastCkptSeq = s.applySeq
			if fellPast {
				s.ckptFallbacks++
			}
			break
		}
		recoveryErrs = append(recoveryErrs, fmt.Sprintf("checkpoint recovery: %s: %v", path, err))
		fellPast = true
		// Corrupt bytes are quarantined. A read error may be transient
		// (the device, not the bytes): fall back without quarantining.
		if errors.Is(err, ckpt.ErrCorrupt) {
			s.quarantineCheckpoint(path)
		}
		// Discard what the failed stream restored before it failed.
		if err := s.resetState(); err != nil {
			return err
		}
	}
	// Rebuild the retained-generation ledger from the files that
	// survived; each one's coverage seq pins the WAL GC horizon. A
	// generation whose seq cannot be read is useless as a fallback and
	// is quarantined so it neither pins the horizon nor trips the
	// verifier.
	s.gens = s.gens[:0]
	if gens, err = ckpt.Generations(s.fs, dir); err == nil {
		for _, g := range gens {
			path := ckpt.GenName(dir, g)
			seq, serr := checkpointSeqOf(s.fs, path)
			if serr != nil {
				recoveryErrs = append(recoveryErrs, fmt.Sprintf("checkpoint recovery: %s: %v", path, serr))
				s.quarantineCheckpoint(path)
				continue
			}
			s.gens = append(s.gens, ckptGeneration{gen: g, seq: seq})
		}
	}
	for _, msg := range recoveryErrs {
		s.recordError(msg)
	}
	w, err := wal.Open(wal.Options{Dir: dir, SegmentBytes: dcfg.SegmentBytes, NoSync: dcfg.NoSync, FS: dcfg.FS})
	if err != nil {
		return err
	}
	if first := w.FirstSeq(); first > s.applySeq+1 {
		w.Close()
		return fmt.Errorf("stream: wal begins at seq %d but the checkpoint covers only %d; records %d..%d are gone", first, s.applySeq, s.applySeq+1, first-1)
	}
	s.wal = w
	if err := w.Replay(s.applySeq+1, func(seq uint64, payload []byte) error {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("stream: wal record %d: %w", seq, err)
		}
		s.applySeq = seq
		switch rec.Kind {
		case walKindFlush:
			s.applyFlush()
		case walKindBatch:
			s.applyBatch(rec.Client, rec.Events, 0)
		default:
			return fmt.Errorf("stream: wal record %d has unknown kind %q", seq, rec.Kind)
		}
		s.recoveredRecords++
		return nil
	}); err != nil {
		w.Close()
		return err
	}
	if w.LastSeq() < s.applySeq {
		w.Close()
		return fmt.Errorf("stream: wal ends at seq %d but the checkpoint covers %d; refusing to reuse sequence numbers", w.LastSeq(), s.applySeq)
	}
	return nil
}

// restoreCheckpoint streams one checkpoint payload into the freshly
// reset state and re-derives the rest: events go straight into the
// dataset (and instances out of them), sample records onto their
// samples, EPM clusterings re-derive by deterministic re-discovery at
// the recorded watermarks, and the B partition from its inputs. Only
// the small fields decode whole. Keys may come in any order, except
// that sample records must follow the events that introduce them.
func (s *Service) restoreCheckpoint(dec *json.Decoder) error {
	var (
		cp     checkpointFile // Version, Seq and the small fields; B.Inputs
		dimIns [3][]epm.Instance
		e      dataset.Event
		se     sampleEnrichment
	)
	checkVersion := func() error {
		if cp.Version != checkpointVersion {
			return fmt.Errorf("stream: checkpoint version %d, want %d", cp.Version, checkpointVersion)
		}
		return nil
	}
	err := decodeObject(dec, func(key string) error {
		switch key {
		case "version":
			if err := dec.Decode(&cp.Version); err != nil {
				return err
			}
			return checkVersion()
		case "seq":
			return dec.Decode(&cp.Seq)
		case "events":
			return decodeArray(dec, func() error {
				e = dataset.Event{}
				if err := dec.Decode(&e); err != nil {
					return err
				}
				if err := s.ds.AddEvent(e); err != nil {
					return err
				}
				dimIns[0] = append(dimIns[0], e.EpsilonInstance())
				dimIns[1] = append(dimIns[1], e.PiInstance())
				if in, ok := e.MuInstance(); ok {
					dimIns[2] = append(dimIns[2], in)
				}
				return nil
			})
		case "samples":
			return decodeArray(dec, func() error {
				se = sampleEnrichment{}
				if err := dec.Decode(&se); err != nil {
					return err
				}
				smp := s.ds.Sample(se.MD5)
				if smp == nil {
					return fmt.Errorf("stream: checkpoint enriches unknown sample %s", se.MD5)
				}
				smp.AVLabel, smp.AVLabels, smp.Profile = se.AVLabel, se.AVLabels, se.Profile
				return nil
			})
		case "counters":
			return dec.Decode(&cp.Counters)
		case "dims":
			return dec.Decode(&cp.Dims)
		case "b":
			return decodeObject(dec, func(key string) error {
				switch key {
				case "inputs":
					return decodeArray(dec, func() error {
						cp.B.Inputs = append(cp.B.Inputs, bcluster.IncrementalInput{})
						return dec.Decode(&cp.B.Inputs[len(cp.B.Inputs)-1])
					})
				case "integrated":
					return dec.Decode(&cp.B.Integrated)
				case "epochs":
					return dec.Decode(&cp.B.Epochs)
				}
				return dec.Decode(new(json.RawMessage))
			})
		case "retry":
			return dec.Decode(&cp.Retry)
		case "quarantined":
			return dec.Decode(&cp.Quarantined)
		case "clients":
			return dec.Decode(&cp.Clients)
		case "sample_clients":
			return dec.Decode(&cp.SampleClients)
		case "sample_groups":
			return dec.Decode(&cp.SampleGroups)
		}
		// Unknown fields are ignored, as json.Unmarshal ignores them.
		return dec.Decode(new(json.RawMessage))
	})
	if err != nil {
		return err
	}
	if err := checkVersion(); err != nil {
		return err
	}
	for name, l := range cp.Clients {
		if l == nil {
			return fmt.Errorf("stream: checkpoint client %q has a null ledger", name)
		}
	}
	for i := range s.dims {
		if err := s.dims[i].restore(cp.Dims[i], dimIns[i]); err != nil {
			return err
		}
	}
	b, err := bcluster.RestoreIncremental(s.cfg.BCluster, cp.B)
	if err != nil {
		return err
	}
	s.b = b
	c := cp.Counters
	s.events, s.rejected, s.duplicates = c.Events, c.Rejected, c.Duplicates
	s.executed, s.degraded = c.Executed, c.Degraded
	s.enrichErrors, s.staleProfiles, s.flushes = c.EnrichErrors, c.StaleProfiles, c.Flushes
	s.retryScheduled, s.retryAttempts, s.retrySuccesses = c.RetryScheduled, c.RetryAttempts, c.RetrySuccesses
	s.recentErrors = append(s.recentErrors[:0], c.RecentErrors...)
	for reason, n := range c.RejectedByReason {
		s.rejectedByReason[reason] = n
	}
	for md5, msg := range cp.Quarantined {
		s.quarantined[md5] = msg
	}
	for _, e := range cp.Retry {
		s.retry.add(&retryEntry{md5: e.MD5, stage: e.Stage, attempts: e.Attempts, nextSeq: e.NextSeq, lastErr: e.LastErr})
	}
	for name, l := range cp.Clients {
		cl := *l
		s.clients[name] = &cl
	}
	for md5, c := range cp.SampleClients {
		s.sampleClient[md5] = c
	}
	for md5, g := range cp.SampleGroups {
		s.sampleGroup[md5] = g
	}
	s.applySeq = cp.Seq
	return nil
}

// decodeObject walks one JSON object, calling field with each key while
// the decoder stands at its value; field must consume the value.
func decodeObject(dec *json.Decoder, field func(key string) error) error {
	if t, err := dec.Token(); err != nil {
		return err
	} else if t != json.Delim('{') {
		return fmt.Errorf("expected an object, found %v", t)
	}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return err
		}
		if err := field(key.(string)); err != nil {
			return err
		}
	}
	_, err := dec.Token()
	return err
}

// decodeArray walks one JSON array, calling elem while the decoder
// stands at each element; elem must consume it. A null array is empty,
// as json.Unmarshal has it.
func decodeArray(dec *json.Decoder, elem func() error) error {
	t, err := dec.Token()
	switch {
	case err != nil:
		return err
	case t == nil:
		return nil
	case t != json.Delim('['):
		return fmt.Errorf("expected an array, found %v", t)
	}
	for dec.More() {
		if err := elem(); err != nil {
			return err
		}
	}
	_, err = dec.Token()
	return err
}

// restore rebuilds a dimension's derived state from the checkpointed
// events' instance projections. The checkpoint format is unchanged by
// the incremental epoch engine: engine state (sketches, groups) is a
// deterministic function of the built prefix, so recovery feeds that
// prefix to a fresh engine and runs one epoch over it — a full regroup
// whose output is byte-identical to the original epoch-by-epoch
// evolution (the differential property the epm tests prove). Epoch
// assignments re-derive through the restored stable-ID table, and
// post-watermark instances re-classify exactly as the live add path did.
func (d *dimension) restore(st dimState, instances []epm.Instance) error {
	if st.BuiltLen < 0 || st.BuiltLen > len(instances) {
		return fmt.Errorf("stream: dimension %s: checkpoint watermark %d out of range [0,%d]",
			d.schema.Dimension, st.BuiltLen, len(instances))
	}
	d.nextStable = st.NextStable
	d.stable = make(map[string]int, len(st.Stable))
	for k, v := range st.Stable {
		d.stable[k] = v
	}
	for _, in := range instances[:st.BuiltLen] {
		if err := d.eng.Add(in); err != nil {
			return fmt.Errorf("stream: corrupt checkpoint: %w", err)
		}
	}
	if st.BuiltLen > 0 {
		d.rebuild()
	}
	d.epoch = st.Epoch
	for _, in := range instances[st.BuiltLen:] {
		if err := d.add(in); err != nil {
			return fmt.Errorf("stream: corrupt checkpoint: %w", err)
		}
	}
	return nil
}

// WALStats summarizes durability for Stats.
type WALStats struct {
	Enabled bool `json:"enabled"`
	// LastSeq is the newest logged record; Appends/AppendErrors count
	// this process's writes.
	LastSeq      uint64 `json:"last_seq"`
	Appends      int    `json:"appends"`
	AppendErrors int    `json:"append_errors"`
	// Checkpoints counts this process's checkpoints; LastCheckpointSeq
	// is the newest durable checkpoint's coverage (restored at recovery).
	Checkpoints       int    `json:"checkpoints"`
	LastCheckpointSeq uint64 `json:"last_checkpoint_seq"`
	// RecoveredRecords counts WAL records replayed at startup.
	RecoveredRecords int `json:"recovered_records"`
}
