package wal

// Shipping surface of the WAL: sealed-segment enumeration, frame-level
// readers, and read-only verification. This is what log shipping
// (internal/replica) builds on — the primary enumerates and streams
// segments without disturbing the appender, a follower parses the
// shipped frame stream with the same CRC and contiguity checks local
// replay runs, and the operator verifies a directory without
// triggering Open's tail repair.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/faultfs"
)

// SegmentInfo describes one on-disk segment for the shipping manifest.
type SegmentInfo struct {
	// FirstSeq names the segment: the seq of its first record.
	FirstSeq uint64 `json:"first_seq"`
	// LastSeq is the newest complete record; LastSeq < FirstSeq marks a
	// segment that holds no complete records yet.
	LastSeq uint64 `json:"last_seq"`
	// Bytes counts the complete-frame bytes a reader may ship. For the
	// active segment this excludes any in-flight append.
	Bytes int64 `json:"bytes"`
	// Sealed marks segments that will never grow again.
	Sealed bool `json:"sealed"`
}

// Segments enumerates the on-disk segments, oldest first, in one
// consistent snapshot: a sealed segment's range is final, and the
// active segment's LastSeq/Bytes cover exactly the records whose
// writes had completed when the snapshot was taken.
func (l *Log) Segments() ([]SegmentInfo, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	out := make([]SegmentInfo, 0, len(l.segs))
	for i, first := range l.segs {
		info := SegmentInfo{FirstSeq: first}
		if i+1 < len(l.segs) {
			info.Sealed = true
			info.LastSeq = l.segs[i+1] - 1
			fi, err := l.fs.Stat(l.segmentPath(first))
			if err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
			info.Bytes = fi.Size()
		} else {
			// Active tail: l.last and l.size advance together under the
			// lock, only after a frame is fully written.
			info.LastSeq = l.last
			info.Bytes = l.size
		}
		out = append(out, info)
	}
	return out, nil
}

// ErrSegmentGone reports that the requested segment is no longer on
// disk — typically garbage-collected by TruncateBefore after a
// checkpoint. Shipping clients re-bootstrap from the newest checkpoint
// when they see it.
var ErrSegmentGone = errors.New("wal: segment gone")

// SegmentReader iterates one segment's verified frames.
type SegmentReader struct {
	f    faultfs.File
	fr   *FrameReader
	from uint64
	path string
}

// OpenSegment opens the segment whose first record is firstSeq for
// frame-level reading; Next skips records with seq < from. The file is
// opened under the log lock, so a concurrent TruncateBefore either
// happens first (ErrSegmentGone) or unlinks a file this reader already
// holds open — the read then still completes against the intact
// contents. Reads of the active segment stop at the bytes that were
// fully appended at open time; a concurrent append is never surfaced
// half-written.
func (l *Log) OpenSegment(firstSeq, from uint64) (*SegmentReader, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, ErrClosed
	}
	idx := -1
	for i, s := range l.segs {
		if s == firstSeq {
			idx = i
			break
		}
	}
	if idx < 0 {
		l.mu.Unlock()
		return nil, fmt.Errorf("%w: %020d", ErrSegmentGone, firstSeq)
	}
	path := l.segmentPath(firstSeq)
	f, err := l.fs.Open(path)
	if err != nil {
		l.mu.Unlock()
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %020d", ErrSegmentGone, firstSeq)
		}
		return nil, fmt.Errorf("wal: %w", err)
	}
	var limit int64
	if idx == len(l.segs)-1 {
		limit = l.size
	} else {
		fi, serr := f.Stat()
		if serr != nil {
			l.mu.Unlock()
			f.Close()
			return nil, fmt.Errorf("wal: %w", serr)
		}
		limit = fi.Size()
	}
	l.mu.Unlock()

	return &SegmentReader{
		f:    f,
		fr:   NewFrameReader(io.LimitReader(f, limit), firstSeq),
		from: from,
		path: path,
	}, nil
}

// Next returns the next verified frame at or past the reader's from
// seq. io.EOF reports a clean end at a frame boundary; any other error
// is a *CorruptError carrying the segment path.
func (r *SegmentReader) Next() (uint64, []byte, error) {
	for {
		seq, payload, err := r.fr.Next()
		if err != nil {
			var ce *CorruptError
			if errors.As(err, &ce) {
				ce.Path = r.path
			}
			return 0, nil, err
		}
		if seq < r.from {
			continue
		}
		return seq, payload, nil
	}
}

// Close releases the underlying file.
func (r *SegmentReader) Close() error { return r.f.Close() }

// CorruptError reports a torn or corrupt frame in a shipped stream or
// a segment file.
type CorruptError struct {
	// Path names the segment when the stream came from one.
	Path string
	// Offset is the byte offset of the offending frame.
	Offset int64
	Reason string
	// Torn marks a bad segment frame that runs to the end of its file:
	// the shape an interrupted append leaves.
	Torn bool
}

func (e *CorruptError) Error() string {
	if e.Path != "" {
		return fmt.Sprintf("wal: %s: %s at offset %d", e.Path, e.Reason, e.Offset)
	}
	return fmt.Sprintf("wal: %s at offset %d", e.Reason, e.Offset)
}

// FrameReader parses a WAL frame stream from any reader — a segment
// file or an HTTP body carrying shipped frames — verifying each
// frame's CRC and the seq contiguity, so corruption cannot cross a
// shipping hop undetected.
type FrameReader struct {
	r      *bufio.Reader
	expect uint64 // next required seq; 0 accepts any first frame
	off    int64
}

// NewFrameReader wraps r; expect is the seq the first frame must carry
// (0 accepts whatever comes first, then enforces contiguity).
func NewFrameReader(r io.Reader, expect uint64) *FrameReader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<20)
	}
	return &FrameReader{r: br, expect: expect}
}

// Next returns the next verified frame. io.EOF reports a clean end at
// a frame boundary; any other error is a *CorruptError.
func (fr *FrameReader) Next() (uint64, []byte, error) {
	var header [headerSize]byte
	if _, err := io.ReadFull(fr.r, header[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fr.corrupt("torn frame header")
	}
	length := binary.BigEndian.Uint32(header[0:4])
	if length < 8 || int64(length) > maxRecordBytes {
		return 0, nil, fr.corrupt(fmt.Sprintf("implausible frame length %d", length))
	}
	payload := make([]byte, length-8)
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return 0, nil, fr.corrupt("torn frame payload")
	}
	crc := crc32.ChecksumIEEE(header[8:])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	if crc != binary.BigEndian.Uint32(header[4:8]) {
		return 0, nil, fr.corrupt("crc mismatch")
	}
	seq := binary.BigEndian.Uint64(header[8:16])
	if fr.expect != 0 && seq != fr.expect {
		return 0, nil, fr.corrupt(fmt.Sprintf("record seq %d, want %d", seq, fr.expect))
	}
	fr.expect = seq + 1
	fr.off += int64(headerSize) + int64(len(payload))
	return seq, payload, nil
}

func (fr *FrameReader) corrupt(reason string) error {
	return &CorruptError{Offset: fr.off, Reason: reason}
}

// EncodeFrame frames one record for the log or the wire. The shipping
// endpoint re-frames records it has verified from disk, so every hop
// re-checks the CRC end to end.
func EncodeFrame(seq uint64, payload []byte) []byte {
	frame := make([]byte, headerSize+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(8+len(payload)))
	binary.BigEndian.PutUint64(frame[8:16], seq)
	copy(frame[16:], payload)
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(frame[8:]))
	return frame
}

// VerifyError reports the first integrity violation VerifyDir found.
type VerifyError struct {
	// Path names the offending segment.
	Path string
	// Repairable marks a torn tail on the newest segment — the one
	// shape Open repairs automatically on the next start; anything else
	// is real corruption or a read error, and Open refuses it.
	Repairable bool
	Err        error
}

func (e *VerifyError) Error() string {
	kind := "corrupt segment"
	if e.Repairable {
		kind = "torn tail (repairable on next open)"
	}
	return fmt.Sprintf("wal: %s: %s: %v", e.Path, kind, e.Err)
}

func (e *VerifyError) Unwrap() error { return e.Err }

// VerifyDir walks every segment in dir read-only, validating frame
// CRCs and cross-segment seq contiguity, and returns the segment and
// record counts. Unlike Open it repairs nothing, so it is safe to run
// against a directory another process is about to recover from. The
// first violation is returned as a *VerifyError naming the segment.
func VerifyDir(dir string) (segments, records int, err error) {
	fs := faultfs.OS
	segs, err := listSegments(fs, dir)
	if err != nil {
		return 0, 0, err
	}
	var last uint64
	for i, first := range segs {
		path := segmentFile(dir, first)
		tail := i == len(segs)-1
		lastSeq, _, n, serr := scanSegment(fs, path, first, 0, nil)
		if serr != nil {
			var ce *CorruptError
			repairable := tail && errors.As(serr, &ce) && ce.Torn
			return segments, records, &VerifyError{Path: path, Repairable: repairable, Err: serr}
		}
		if n == 0 && !tail {
			return segments, records, &VerifyError{Path: path, Err: errors.New("empty segment is not the newest")}
		}
		if n > 0 {
			if last != 0 && first != last+1 {
				return segments, records, &VerifyError{Path: path, Err: fmt.Errorf("segment does not continue seq %d", last)}
			}
			last = lastSeq
		}
		segments++
		records += n
	}
	return segments, records, nil
}
