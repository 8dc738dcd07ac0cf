// Package wal implements the service's write-ahead log: a segmented,
// append-only record log with per-record CRC framing, used by the
// streaming landscape service to make accepted batches durable before
// they are applied.
//
// On-disk layout: the directory holds segments named by the sequence
// number of their first record (`%020d.wal`). Each record is framed as
//
//	[u32 length][u32 crc][u64 seq][payload]
//
// where length = 8 + len(payload) and the CRC (IEEE) covers seq and
// payload. A crash can tear only the tail of the last segment; Open
// detects the torn frame (a bad frame that runs to the end of the file)
// and truncates the file back to the last intact record. A bad frame
// with data after it, or one in a sealed segment, is corruption and a
// read that keeps failing is an I/O error: Open refuses both with a
// typed error (*CorruptError, *IOError) rather than cut acknowledged
// records away.
//
// Sequence numbers start at 1 and are strictly contiguous across
// segments. TruncateBefore removes sealed segments that a checkpoint
// has made redundant; the newest segment is always retained so the
// sequence never restarts.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/faultfs"
)

const (
	headerSize          = 16      // u32 length + u32 crc + u64 seq
	defaultSegmentBytes = 8 << 20 // rotation threshold
	maxRecordBytes      = 256 << 20
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Options parameterize a log.
type Options struct {
	// Dir is the segment directory; it is created if missing.
	Dir string
	// SegmentBytes is the rotation threshold; once the active segment
	// reaches it, the next append opens a new segment. 0 selects 8 MiB.
	SegmentBytes int64
	// NoSync skips the per-append fsync and the directory syncs. Appends
	// then survive process crashes (the OS holds the pages) but not
	// machine crashes; tests and benchmarks use it.
	NoSync bool
	// FS overrides the filesystem; nil selects the os passthrough. The
	// chaos harness injects seeded disk faults through it.
	FS faultfs.FS
}

// Log is an append-only record log. It is safe for concurrent use,
// though the streaming service serializes all writes on its worker.
type Log struct {
	mu     sync.Mutex
	opts   Options
	fs     faultfs.FS
	active faultfs.File
	size   int64    // bytes in the active segment
	segs   []uint64 // first-seq of every segment on disk, ascending
	last   uint64   // seq of the last appended record; 0 when empty
	broken bool     // a partial write poisoned the tail
	closed bool
}

// Open opens (or creates) the log in opts.Dir, validating every segment
// and repairing a torn tail on the newest one.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: empty directory")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	fs := faultfs.OrOS(opts.FS)
	if err := fs.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	segs, err := listSegments(fs, opts.Dir)
	if err != nil {
		return nil, err
	}
	l := &Log{opts: opts, fs: fs, segs: segs}
	for i, first := range segs {
		lastSeq, good, n, err := scanSegment(fs, l.segmentPath(first), first, 0, nil)
		tail := i == len(segs)-1
		if err != nil {
			var ce *CorruptError
			if !tail || !errors.As(err, &ce) || !ce.Torn {
				// A read error, or a bad frame with data after it: the
				// acknowledged records may be intact, so refuse to cut.
				return nil, fmt.Errorf("wal: segment %020d: %w", first, err)
			}
			// Torn tail: drop the partial frame, and make the repair
			// itself durable before appends resume — an unsynced
			// truncate could resurrect the torn bytes after a crash and
			// poison the next recovery.
			if terr := fs.Truncate(l.segmentPath(first), good); terr != nil {
				return nil, fmt.Errorf("wal: repairing segment %020d: %w", first, terr)
			}
			if !opts.NoSync {
				if serr := l.syncPath(l.segmentPath(first)); serr != nil {
					return nil, fmt.Errorf("wal: syncing repaired segment %020d: %w", first, serr)
				}
			}
		}
		if n == 0 && !tail {
			return nil, fmt.Errorf("wal: empty segment %020d is not the newest", first)
		}
		if n > 0 {
			if l.last != 0 && first != l.last+1 {
				return nil, fmt.Errorf("wal: segment %020d does not continue seq %d", first, l.last)
			}
			l.last = lastSeq
		}
		if tail {
			f, err := fs.OpenFile(l.segmentPath(first), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
			l.active = f
			l.size = good
		}
	}
	return l, nil
}

// syncPath opens a path read-only and fsyncs it.
func (l *Log) syncPath(path string) error {
	f, err := l.fs.Open(path)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Append frames and writes one record, fsyncing unless NoSync, and
// returns its sequence number. After a failed write the log refuses
// further appends: the tail may be torn and only a re-Open repairs it.
func (l *Log) Append(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.broken {
		return 0, fmt.Errorf("wal: log poisoned by an earlier failed write; reopen to repair")
	}
	if int64(len(payload)) > maxRecordBytes-8 {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds the frame limit", len(payload))
	}
	seq := l.last + 1
	if l.active == nil || l.size >= l.opts.SegmentBytes {
		if err := l.rotate(seq); err != nil {
			return 0, err
		}
	}
	frame := EncodeFrame(seq, payload)
	if _, err := l.active.Write(frame); err != nil {
		l.broken = true
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	if !l.opts.NoSync {
		if err := l.active.Sync(); err != nil {
			l.broken = true
			return 0, fmt.Errorf("wal: sync: %w", err)
		}
	}
	l.size += int64(len(frame))
	l.last = seq
	return seq, nil
}

// Replay validates every record and calls fn, in order, for each record
// with seq >= from. fn errors abort the replay.
func (l *Log) Replay(from uint64, fn func(seq uint64, payload []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	for _, first := range l.segs {
		if _, _, _, err := scanSegment(l.fs, l.segmentPath(first), first, from, fn); err != nil {
			return fmt.Errorf("wal: segment %020d: %w", first, err)
		}
	}
	return nil
}

// FirstSeq reports the first record sequence still on disk (0 when the
// log is empty) — the oldest point recovery can replay from. A fallback
// to an older checkpoint generation must check its coverage starts at
// or before this.
func (l *Log) FirstSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segs) == 0 || l.last == 0 {
		return 0
	}
	return l.segs[0]
}

// Sync fsyncs the active segment. The write-path self-heal uses it
// after a reopen finds the previously failed append fully on disk: the
// bytes are present but their durability is unproven until a sync
// succeeds.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.active == nil || l.opts.NoSync {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		l.broken = true
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

// LastSeq reports the sequence number of the newest record (0 when the
// log has none).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// TruncateBefore removes sealed segments every record of which has
// seq < before — the garbage collection a checkpoint at before-1
// enables. The newest segment always survives, so the sequence counter
// persists even when the whole log is checkpointed.
func (l *Log) TruncateBefore(before uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	keep := 0
	for keep+1 < len(l.segs) && l.segs[keep+1] <= before {
		keep++
	}
	if keep == 0 {
		return nil
	}
	for _, first := range l.segs[:keep] {
		if err := l.fs.Remove(l.segmentPath(first)); err != nil {
			return fmt.Errorf("wal: removing segment %020d: %w", first, err)
		}
	}
	l.segs = append(l.segs[:0], l.segs[keep:]...)
	return l.syncDir()
}

// Close syncs and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.active == nil {
		return nil
	}
	if !l.opts.NoSync && !l.broken {
		if err := l.active.Sync(); err != nil {
			l.active.Close()
			return fmt.Errorf("wal: sync on close: %w", err)
		}
	}
	return l.active.Close()
}

// rotate seals the active segment and opens a fresh one whose name is
// the seq about to be written.
func (l *Log) rotate(firstSeq uint64) error {
	if l.active != nil {
		if !l.opts.NoSync {
			if err := l.active.Sync(); err != nil {
				return fmt.Errorf("wal: sealing segment: %w", err)
			}
		}
		if err := l.active.Close(); err != nil {
			return fmt.Errorf("wal: sealing segment: %w", err)
		}
		l.active = nil
	}
	f, err := l.fs.OpenFile(l.segmentPath(firstSeq), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: new segment: %w", err)
	}
	l.active = f
	l.size = 0
	l.segs = append(l.segs, firstSeq)
	return l.syncDir()
}

// syncDir fsyncs the directory so segment creation/removal is durable.
func (l *Log) syncDir() error {
	if l.opts.NoSync {
		return nil
	}
	d, err := l.fs.Open(l.opts.Dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: syncing directory: %w", err)
	}
	return nil
}

func (l *Log) segmentPath(firstSeq uint64) string {
	return segmentFile(l.opts.Dir, firstSeq)
}

func segmentFile(dir string, firstSeq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%020d.wal", firstSeq))
}

// listSegments returns the first-seqs of the directory's segments,
// ascending.
func listSegments(fs faultfs.FS, dir string) ([]uint64, error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".wal") {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(name, ".wal"), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("wal: segment name %q is not a sequence number", name)
		}
		segs = append(segs, seq)
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a] < segs[b] })
	return segs, nil
}

// ioAttempts bounds how often a segment read is tried before an I/O
// error is reported: a transient EIO must not fail recovery, and a
// persistent one must not hang it.
const ioAttempts = 3

// IOError reports a segment the log could not open or read, after
// ioAttempts tries. The bytes on disk may be intact, so Open refuses the
// log instead of truncating it.
type IOError struct {
	Path string
	Err  error
}

func (e *IOError) Error() string {
	return fmt.Sprintf("wal: %s: read failed after %d attempts: %v", e.Path, ioAttempts, e.Err)
}

func (e *IOError) Unwrap() error { return e.Err }

// scanSegment reads one segment, validating frame integrity and seq
// contiguity, and calls fn (when non-nil) for every record with
// seq >= from. It returns the last seq read, the byte offset of the end
// of the last intact record, and the record count.
//
// The diagnosis of a failure:
//   - an open or read error is retried from the last intact record, and
//     after ioAttempts tries is returned as an *IOError;
//   - a bad frame (cut short, or a bad length, CRC or seq) is read once
//     more, since a read can flip a bit the disk does not hold, and only
//     then returned as a *CorruptError, with Torn set when the frame runs
//     to the end of the file — the one shape an interrupted append
//     leaves, which Open may cut away at good.
func scanSegment(fs faultfs.FS, path string, firstSeq, from uint64, fn func(uint64, []byte) error) (last uint64, good int64, n int, err error) {
	r := &segmentReader{fs: fs, path: path}
	defer r.close()
	expect := firstSeq
	for {
		seq, payload, ferr := r.frame(good, expect)
		if ferr == io.EOF {
			return last, good, n, nil
		}
		if ferr != nil {
			return last, good, n, ferr
		}
		if fn != nil && seq >= from {
			if err := fn(seq, payload); err != nil {
				return last, good, n, err
			}
		}
		last = seq
		expect = seq + 1
		good += int64(headerSize + len(payload))
		n++
	}
}

// segmentReader reads one segment front to back, reopening it at the
// frame being read after a failed open or read, and reading a bad frame
// a second time before believing it.
type segmentReader struct {
	fs   faultfs.FS
	path string
	f    faultfs.File
	br   *bufio.Reader
}

func (r *segmentReader) close() {
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
}

// seek (re)opens the file positioned at off.
func (r *segmentReader) seek(off int64) error {
	f, err := r.fs.Open(r.path)
	if err != nil {
		return err
	}
	if r.br == nil {
		r.br = bufio.NewReaderSize(f, 1<<20)
	} else {
		r.br.Reset(f)
	}
	r.f = f
	if _, err := io.CopyN(io.Discard, r.br, off); err != nil {
		r.close()
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the file ends before frames it held
		}
		return err
	}
	return nil
}

// badFrame is a frame that does not verify.
type badFrame struct {
	reason string
	// cut marks a frame the end of the file cut short. end is where a
	// whole frame ends; 0 when its length is implausible.
	cut bool
	end int64
}

// frame returns the frame at off, which must carry seq expect. io.EOF
// reports a clean end at a frame boundary.
func (r *segmentReader) frame(off int64, expect uint64) (uint64, []byte, error) {
	var bad *badFrame
	for ioErrs := 0; ; {
		seq, payload, b, err := r.read(off, expect)
		switch {
		case err == io.EOF:
			return 0, nil, io.EOF
		case err != nil:
			r.close()
			if ioErrs++; ioErrs == ioAttempts {
				return 0, nil, &IOError{Path: r.path, Err: err}
			}
		case b == nil:
			return seq, payload, nil
		case bad == nil:
			// Read it again from disk before believing it.
			bad = b
			r.close()
		default:
			return 0, nil, r.corrupt(off, b)
		}
	}
}

// read reads the frame at off, (re)opening the file there first when
// it is not open. A frame that does not verify is returned as a
// *badFrame; err carries only io.EOF at a frame boundary and open or
// read errors.
func (r *segmentReader) read(off int64, expect uint64) (uint64, []byte, *badFrame, error) {
	if r.f == nil {
		if err := r.seek(off); err != nil {
			return 0, nil, nil, err
		}
	}
	var header [headerSize]byte
	if _, err := io.ReadFull(r.br, header[:]); err != nil {
		if err == io.EOF {
			return 0, nil, nil, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return 0, nil, &badFrame{reason: "torn frame header", cut: true}, nil
		}
		return 0, nil, nil, err
	}
	length := binary.BigEndian.Uint32(header[0:4])
	if length < 8 || int64(length) > maxRecordBytes {
		return 0, nil, &badFrame{reason: fmt.Sprintf("implausible frame length %d", length)}, nil
	}
	end := off + headerSize - 8 + int64(length)
	payload := make([]byte, length-8)
	if _, err := io.ReadFull(r.br, payload); err != nil {
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			return 0, nil, &badFrame{reason: "torn frame payload", cut: true}, nil
		}
		return 0, nil, nil, err
	}
	crc := crc32.ChecksumIEEE(header[8:])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	if crc != binary.BigEndian.Uint32(header[4:8]) {
		return 0, nil, &badFrame{reason: "crc mismatch", end: end}, nil
	}
	if seq := binary.BigEndian.Uint64(header[8:16]); seq != expect {
		return 0, nil, &badFrame{reason: fmt.Sprintf("record seq %d, want %d", seq, expect), end: end}, nil
	}
	return expect, payload, nil, nil
}

// corrupt classifies a bad frame at off that a second read confirmed. It
// is torn when it runs to the end of the file: it was cut short, its
// length reaches the end, or every byte from it to the end is zero (a
// file extended before its data landed). Anything else has intact data
// after it, and cutting there would drop acknowledged records.
func (r *segmentReader) corrupt(off int64, b *badFrame) error {
	ce := &CorruptError{Path: r.path, Offset: off, Reason: b.reason}
	r.close()
	fi, err := r.fs.Stat(r.path)
	if err != nil {
		return &IOError{Path: r.path, Err: err}
	}
	switch {
	case b.cut, b.end == fi.Size():
		ce.Torn = true
	default:
		zero, err := r.zeroFrom(off)
		if err != nil {
			return &IOError{Path: r.path, Err: err}
		}
		ce.Torn = zero
	}
	return ce
}

// zeroFrom reports whether every byte from off to the end is zero.
func (r *segmentReader) zeroFrom(off int64) (bool, error) {
	if err := r.seek(off); err != nil {
		return false, err
	}
	defer r.close()
	buf := make([]byte, 32<<10)
	for {
		k, err := r.br.Read(buf)
		for _, c := range buf[:k] {
			if c != 0 {
				return false, nil
			}
		}
		if err == io.EOF {
			return true, nil
		}
		if err != nil {
			return false, err
		}
	}
}
