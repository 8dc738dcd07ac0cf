// Package ckpt holds the checkpoint-file integrity conventions shared
// by the stream service, the replica publisher, and the offline
// verifier: the CRC trailer sealed onto every checkpoint, the streaming
// Writer and Reader that produce and check it, the
// `checkpoint.json.<gen>` retained-generation naming, and the
// newest-valid-generation selection a replica bootstraps from.
//
// A checkpoint never passes through memory whole: the Writer encodes
// into the file through one buffer, and the Reader hands a JSON decoder
// the payload while it computes the CRC, so the bytes verified are
// exactly the bytes decoded, in one pass.
package ckpt

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/faultfs"
)

// Name is the newest checkpoint; retained generations are Name.<gen>.
const Name = "checkpoint.json"

// CorruptSuffix marks a quarantined checkpoint file: recovery renames a
// generation that failed its CRC or decode aside instead of deleting
// the evidence, and the verifier skips them.
const CorruptSuffix = ".corrupt"

// trailerPrefix introduces the CRC trailer line. The payload is JSON,
// which escapes newlines inside strings and has no '#' outside them, so
// the byte sequence cannot occur before the trailer the Writer appends.
const trailerPrefix = "\n#checkpoint-crc32 "

const (
	// writeBuffer is the Writer's buffer: a checkpoint smaller than this
	// reaches the file in a single Write.
	writeBuffer = 256 << 10
	readBuffer  = 64 << 10
	// holdBack is how many bytes at the end of the file the Reader
	// withholds until it can tell payload from trailer. A trailer is
	// len(trailerPrefix)+8+1 = 28 bytes; the slack keeps a trailer with
	// junk after it a malformed trailer rather than payload.
	holdBack = 64
)

// ErrCorrupt marks a checkpoint whose bytes are wrong: a CRC mismatch, a
// malformed trailer, or a payload that does not decode. Any other error
// from this package is the device's, and the file may well be sound.
var ErrCorrupt = errors.New("ckpt: corrupt checkpoint")

// Writer streams one checkpoint payload into a file through a single
// buffer, folding every byte into the CRC as it passes. Seal appends
// the trailer.
type Writer struct {
	bw  *bufio.Writer
	crc uint32
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, writeBuffer)}
}

// Write buffers payload bytes.
func (w *Writer) Write(p []byte) (int, error) {
	w.crc = crc32.Update(w.crc, crc32.IEEETable, p)
	return w.bw.Write(p)
}

// Seal appends the CRC trailer, one line carrying the IEEE CRC of
// every byte written before it, and flushes.
func (w *Writer) Seal() error {
	if _, err := fmt.Fprintf(w.bw, "%s%08x\n", trailerPrefix, w.crc); err != nil {
		return err
	}
	return w.bw.Flush()
}

// Reader streams the payload of a checkpoint file, sealed or bare (as
// written before sealing existed). It withholds the file's last bytes
// until it reaches the end and can tell trailer from payload, folds
// every payload byte it hands out into a CRC, and reports the verdict
// where io.EOF would be: io.EOF once the payload is exhausted and the
// trailer, if any, matches; an ErrCorrupt error otherwise. A read error
// from the file is returned as it is, on every later call too.
type Reader struct {
	br  *bufio.Reader
	crc uint32
	err error // the file's first read error

	end    bool   // the end of the file was reached: tail and the trailer fields are set
	tail   []byte // payload not yet handed out, once end is set
	sealed bool
	want   uint32 // the trailer's CRC
	bad    error  // a malformed trailer
}

// NewReader returns a Reader over the checkpoint file r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, readBuffer)}
}

// Read hands out payload bytes.
func (r *Reader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	if len(p) == 0 {
		return 0, nil
	}
	if !r.end {
		buf, err := r.br.Peek(min(len(p)+holdBack, r.br.Size()))
		switch {
		case err == nil:
			n := copy(p, buf[:len(buf)-holdBack])
			r.br.Discard(n)
			r.crc = crc32.Update(r.crc, crc32.IEEETable, p[:n])
			return n, nil
		case err != io.EOF:
			r.err = err
			return 0, err
		}
		// buf is the rest of the file, and nothing reads the bufio
		// buffer it aliases again.
		r.end = true
		r.tail = r.split(buf)
	}
	if len(r.tail) == 0 {
		return 0, r.verdict()
	}
	n := copy(p, r.tail)
	r.crc = crc32.Update(r.crc, crc32.IEEETable, p[:n])
	r.tail = r.tail[n:]
	return n, nil
}

// split separates the rest of the file into payload and trailer: the
// last trailer prefix within the file's final holdBack bytes starts the
// trailer, and a file without one is a bare payload.
func (r *Reader) split(rest []byte) []byte {
	win := max(0, len(rest)-holdBack)
	i := bytes.LastIndex(rest[win:], []byte(trailerPrefix))
	if i < 0 {
		return rest
	}
	line := bytes.TrimSuffix(rest[win+i+len(trailerPrefix):], []byte("\n"))
	want, err := strconv.ParseUint(string(line), 16, 32)
	if err != nil {
		r.bad = fmt.Errorf("%w: malformed crc trailer %q", ErrCorrupt, line)
	}
	r.sealed, r.want = true, uint32(want)
	return rest[:win+i]
}

// verdict judges the file once every payload byte was handed out.
func (r *Reader) verdict() error {
	switch {
	case r.bad != nil:
		return r.bad
	case r.sealed && r.crc != r.want:
		return fmt.Errorf("%w: crc mismatch: trailer %08x, payload %08x", ErrCorrupt, r.want, r.crc)
	}
	return io.EOF
}

// classify turns the error that ended a pass over r into this package's
// verdict: the file's read error when there was one, whatever else
// failed; otherwise corruption.
func (r *Reader) classify(err error) error {
	switch {
	case err == nil:
		return nil
	case r.err != nil:
		return r.err
	case errors.Is(err, ErrCorrupt):
		return err
	}
	return fmt.Errorf("%w: %w", ErrCorrupt, err)
}

// Decode streams the checkpoint file r through decode, in the same pass
// that checks its CRC: the trailer covers exactly the bytes the decoder
// consumes, plus the whitespace that alone may follow the decoded value.
// The error is the file's read error when reading failed; otherwise any
// failure — decode's own included — is an ErrCorrupt error. Bytes are
// decoded before the CRC is known, so a caller must discard what decode
// built when Decode fails.
func Decode(r io.Reader, decode func(*json.Decoder) error) error {
	return NewReader(r).decode(decode)
}

// DecodeSealed is Decode for a checkpoint that must carry its CRC
// trailer. A replica's bootstrap body is one: it crossed a network, and
// a connection cut where the trailer begins would leave a bare payload
// that decodes without any CRC check.
func DecodeSealed(r io.Reader, decode func(*json.Decoder) error) error {
	cr := NewReader(r)
	if err := cr.decode(decode); err != nil {
		return err
	}
	if !cr.sealed {
		return fmt.Errorf("%w: no crc trailer", ErrCorrupt)
	}
	return nil
}

func (r *Reader) decode(decode func(*json.Decoder) error) error {
	dec := json.NewDecoder(r)
	err := decode(dec)
	if err == nil {
		_, err = io.Copy(spaceOnly{}, io.MultiReader(dec.Buffered(), r))
	}
	return r.classify(err)
}

// spaceOnly accepts the JSON whitespace that may follow a payload's
// value and rejects anything else.
type spaceOnly struct{}

func (spaceOnly) Write(p []byte) (int, error) {
	for i, c := range p {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return i, fmt.Errorf("unexpected %q after the payload's JSON value", c)
		}
	}
	return len(p), nil
}

// Verify checks a checkpoint file in full: its payload is one
// well-formed JSON value, walked token by token so memory stays bounded
// by the largest token, and its trailer, if any, matches.
func Verify(r io.Reader) error {
	return Decode(r, func(dec *json.Decoder) error {
		dec.UseNumber() // any number is valid JSON, even one no float64 holds
		depth := 0
		for {
			t, err := dec.Token()
			if err != nil {
				return err
			}
			switch t {
			case json.Delim('{'), json.Delim('['):
				depth++
			case json.Delim('}'), json.Delim(']'):
				depth--
			}
			if depth == 0 {
				return nil
			}
		}
	})
}

// ReadSeq reads a checkpoint's coverage seq, the "seq" field among the
// scalars that open its payload, then reads on to the end of the file
// so the CRC covers every byte. The rest of the payload is checked by
// the CRC alone, not parsed (a bare payload has no CRC, and is trusted
// past its header): this is the cheap probe the generation ledger and
// the replica manifest use, and it allocates its buffers, about 70 KB,
// however large the checkpoint is.
func ReadSeq(r io.Reader) (uint64, error) {
	return NewReader(r).readSeq()
}

func (r *Reader) readSeq() (uint64, error) {
	seq, err := headerSeq(json.NewDecoder(r))
	if err == nil {
		_, err = io.Copy(io.Discard, r)
	}
	return seq, r.classify(err)
}

func headerSeq(dec *json.Decoder) (uint64, error) {
	if t, err := dec.Token(); err != nil {
		return 0, err
	} else if t != json.Delim('{') {
		return 0, errors.New("payload is not a JSON object")
	}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return 0, err
		}
		if key == "seq" {
			var seq uint64
			err := dec.Decode(&seq)
			return seq, err
		}
		if err := dec.Decode(new(json.RawMessage)); err != nil {
			return 0, err
		}
	}
	return 0, errors.New("payload has no seq")
}

// GenName names a retained generation file.
func GenName(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s.%d", Name, gen))
}

// ParseGen extracts the generation from a file name in dir;
// ok is false for the live checkpoint, quarantined files, and
// everything else.
func ParseGen(name string) (uint64, bool) {
	rest, found := strings.CutPrefix(name, Name+".")
	if !found || rest == "" || strings.HasSuffix(name, CorruptSuffix) {
		return 0, false
	}
	gen, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// Generations lists the retained generation numbers in dir, ascending.
func Generations(fs faultfs.FS, dir string) ([]uint64, error) {
	entries, err := faultfs.OrOS(fs).ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var gens []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if gen, ok := ParseGen(e.Name()); ok {
			gens = append(gens, gen)
		}
	}
	sort.Slice(gens, func(a, b int) bool { return gens[a] < gens[b] })
	return gens, nil
}

// candidates lists the checkpoint files to try, newest first: the live
// checkpoint, then the retained generations.
func candidates(fs faultfs.FS, dir string) ([]string, error) {
	gens, err := Generations(fs, dir)
	if err != nil {
		return nil, err
	}
	paths := []string{filepath.Join(dir, Name)}
	for i := len(gens) - 1; i >= 0; i-- {
		paths = append(paths, GenName(dir, gens[i]))
	}
	return paths, nil
}

// OpenNewest opens the checkpoint a replica bootstraps from: the newest
// in dir that carries a CRC trailer and whose CRC verifies. It returns
// the file rewound to its first byte, to be shipped as it is so the
// follower checks the same CRC as it decodes, and the seq it covers. A
// corrupt or unsealed live checkpoint falls back to the newest retained
// generation that passes; os.ErrNotExist reports that dir holds no
// checkpoint at all. Invalid candidates are skipped, not modified —
// quarantine is the recovering service's decision, not the reader's.
//
// It may run beside a checkpointing service, which renames the live
// checkpoint aside before it renames the next one in and prunes
// generations after: a walk that finds every candidate gone raced it,
// and the directory then lists other generations, so it walks again.
func OpenNewest(dir string) (*os.File, uint64, error) {
	paths, err := candidates(nil, dir)
	for err == nil {
		var firstErr error
		for _, p := range paths {
			f, seq, err := openSealed(p)
			if errors.Is(err, os.ErrNotExist) {
				continue
			}
			if err == nil {
				return f, seq, nil
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", p, err)
			}
		}
		if firstErr != nil {
			return nil, 0, fmt.Errorf("ckpt: no valid checkpoint in %s: %w", dir, firstErr)
		}
		var again []string
		if again, err = candidates(nil, dir); err == nil && slices.Equal(again, paths) {
			return nil, 0, os.ErrNotExist
		}
		paths = again
	}
	return nil, 0, err
}

// openSealed opens path, reads its seq as ReadSeq does, requires a CRC
// trailer, and rewinds the file. The open handle keeps the verified
// bytes even if the service renames or prunes the path meanwhile.
func openSealed(path string) (*os.File, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	cr := NewReader(f)
	seq, err := cr.readSeq()
	if err == nil && !cr.sealed {
		err = fmt.Errorf("%w: no crc trailer", ErrCorrupt)
	}
	if err == nil {
		_, err = f.Seek(0, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, seq, nil
}
