// Package ckpt holds the checkpoint-file conventions shared by the
// stream service, the replica publisher, and the offline verifier: the
// framing a checkpoint is written in, the CRC trailer sealed onto every
// checkpoint, the streaming Writer and Reader that produce and check
// them, the `checkpoint.json.<gen>` retained-generation naming, and the
// newest-valid-generation selection a replica bootstraps from.
//
// A file is written in version-2 framing: a magic prefix, the JSON
// payload deflated at BestSpeed, and a trailer carrying the CRC of every
// byte before it, as it lies on disk. A version-1 file — the bare JSON
// payload, sealed or not — still reads.
//
// A checkpoint never passes through memory whole: the Writer compresses
// its payload into the file through two chunks, and the Reader hands a
// JSON decoder the payload while it computes the CRC, so the bytes
// verified are exactly the bytes decoded, in one pass.
package ckpt

import (
	"bufio"
	"bytes"
	"compress/flate"
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

// magic opens every version-2 file. A version-1 file is bare JSON,
// which starts with '{' or whitespace, never with 0x89.
const magic = "\x89checkpoint-v2\n"

// trailerPrefix introduces the CRC trailer line. A version-1 payload is
// JSON, which escapes newlines inside strings and has no '#' outside
// them, so the byte sequence cannot occur before the trailer the Writer
// appends; in a version-2 file the deflate stream ends before it.
const trailerPrefix = "\n#checkpoint-crc32 "

const (
	// chunkSize is the size of the Writer's two payload chunks and of
	// its output buffer: a checkpoint that compresses to less than this
	// reaches the file in a single Write.
	chunkSize  = 256 << 10
	readBuffer = 64 << 10
	// holdBack is how many bytes at the end of the file the Reader
	// withholds until it can tell body from trailer. A trailer is
	// len(trailerPrefix)+8+1 = 28 bytes; the slack keeps a trailer with
	// junk after it a malformed trailer rather than body.
	holdBack = 64
)

// ErrCorrupt marks a checkpoint whose bytes are wrong: a CRC mismatch, a
// malformed or missing trailer, a compressed stream that does not
// inflate or is followed by other bytes, or a payload that does not
// decode. Any other error from this package is the device's, and the
// file may well be sound.
var ErrCorrupt = errors.New("ckpt: corrupt checkpoint")

// Writer writes checkpoint files in version-2 framing. Encoding and
// compression overlap: the caller's writes fill one payload chunk while
// a compressor goroutine deflates the other into the file. A Writer
// keeps its compressor and buffers from one checkpoint to the next; the
// zero value allocates them on first use. It writes one file at a time.
type Writer struct {
	zw     *flate.Writer
	out    *bufio.Writer
	chunks [2][]byte
}

// Encode writes one checkpoint file to f: payload writes the JSON
// payload through the writer it is handed, and Encode seals the file
// once payload returns. It reports how many payload bytes were written
// and the first error: payload's own, or the one the compressor met
// writing f, which payload's writes return from then on.
func (w *Writer) Encode(f io.Writer, payload func(io.Writer) error) (int64, error) {
	if w.zw == nil {
		w.zw, _ = flate.NewWriter(nil, flate.BestSpeed) // the level is valid
		w.out = bufio.NewWriterSize(nil, chunkSize)
		w.chunks = [2][]byte{make([]byte, 0, chunkSize), make([]byte, 0, chunkSize)}
	}
	// Each channel can hold every chunk, so neither side blocks on a
	// send.
	p := &pipe{
		full:   make(chan []byte, len(w.chunks)),
		free:   make(chan []byte, len(w.chunks)),
		failed: make(chan struct{}),
		done:   make(chan error, 1),
	}
	for _, c := range w.chunks {
		p.free <- c[:0]
	}
	p.cur = <-p.free
	go w.compress(f, p)
	err := payload(p)
	if len(p.cur) > 0 {
		p.full <- p.cur
	}
	close(p.full)
	if cerr := <-p.done; err == nil {
		err = cerr
	}
	return p.n, err
}

// compress is the compressor goroutine: the magic, every chunk of p
// deflated in order, the trailer. After a failure it only hands chunks
// back, so the encoder never blocks on it.
func (w *Writer) compress(f io.Writer, p *pipe) {
	w.out.Reset(f)
	cw := &crcWriter{w: w.out}
	w.zw.Reset(cw)
	_, err := io.WriteString(cw, magic)
	for c := range p.full {
		if err == nil {
			if _, err = w.zw.Write(c); err != nil {
				p.err = err
				close(p.failed)
			}
		}
		p.free <- c[:0]
	}
	if err == nil {
		err = w.zw.Close()
	}
	if err == nil {
		_, err = fmt.Fprintf(w.out, "%s%08x\n", trailerPrefix, cw.crc)
	}
	if err == nil {
		err = w.out.Flush()
	}
	p.done <- err
}

// pipe carries payload chunks from the encoder to the compressor.
type pipe struct {
	full   chan []byte   // filled chunks, in order, to deflate
	free   chan []byte   // deflated chunks, to fill again
	failed chan struct{} // closed once err is set
	err    error         // the compressor's first error
	done   chan error    // the compressor's verdict on the whole file
	cur    []byte        // the chunk being filled
	n      int64         // payload bytes written
}

// Write copies b into chunks, handing each full one to the compressor.
func (p *pipe) Write(b []byte) (int, error) {
	n := len(b)
	for len(b) > 0 {
		if len(p.cur) == cap(p.cur) {
			select {
			case <-p.failed:
				return n - len(b), p.err
			default:
			}
			p.full <- p.cur
			p.cur = <-p.free
		}
		k := copy(p.cur[len(p.cur):cap(p.cur)], b)
		p.cur = p.cur[:len(p.cur)+k]
		b = b[k:]
	}
	p.n += int64(n)
	return n, nil
}

// crcWriter folds every byte it passes on into a CRC.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	return c.w.Write(p)
}

// Reader streams the payload of a checkpoint file of either framing. A
// version-2 file is inflated as it is read; a version-1 file, sealed or
// bare (as written before sealing existed), is read as it lies. Every
// byte of the file before its trailer is folded into a CRC as it passes,
// and the verdict arrives where io.EOF would be: io.EOF once the payload
// is exhausted and the file checks out; an ErrCorrupt error otherwise.
// A read error from the file is returned as it is, on every later call
// too.
type Reader struct {
	f       frame
	sniffed bool
	zr      io.Reader // the inflater over f, for a version-2 file
}

// NewReader returns a Reader over the checkpoint file r.
func NewReader(r io.Reader) *Reader {
	return &Reader{f: frame{src: r, buf: make([]byte, readBuffer)}}
}

// Read hands out payload bytes.
func (r *Reader) Read(p []byte) (int, error) {
	if !r.sniffed {
		r.sniff()
	}
	if r.zr == nil {
		return r.f.Read(p)
	}
	n, err := r.zr.Read(p)
	switch err {
	case io.EOF:
		err = r.f.rest()
	case io.ErrUnexpectedEOF:
		// The body ended, trailer and CRC intact, inside the stream.
		err = fmt.Errorf("%w: truncated compressed stream", ErrCorrupt)
	}
	return n, err
}

// sniff reads the file's first bytes and, when they are the magic,
// consumes them and inflates what follows.
func (r *Reader) sniff() {
	r.sniffed = true
	f := &r.f
	f.fill(len(magic))
	if f.avail() >= len(magic) && string(f.buf[f.r:f.r+len(magic)]) == magic {
		f.r += len(magic)
		f.mustSeal = true
		r.zr = flate.NewReader(f)
	}
}

// frame reads the file's body, the bytes before its trailer, through
// one buffer. It withholds the file's last bytes until it reaches the
// end and can tell trailer from body, and folds every body byte into a
// CRC once it has been handed out.
type frame struct {
	src  io.Reader
	buf  []byte
	r, w int    // buf[r:w] is read from the file but not handed out
	c    int    // buf[c:r] is handed out but not yet in crc
	crc  uint32 // of the body handed out before buf[c]
	err  error  // the file's first read error

	end      bool   // the file is read to its end: buf[r:w] is all the body left, and the trailer fields are set
	sealed   bool   // the file has a trailer
	want     uint32 // the trailer's CRC
	bad      error  // a malformed trailer
	mustSeal bool   // a file without a trailer is corrupt (version 2)
}

// avail is how many body bytes can be handed out without reading.
func (f *frame) avail() int {
	if f.end {
		return f.w - f.r
	}
	return max(0, f.w-f.r-holdBack)
}

// fill reads until want bytes are available, the file ends, or a read
// fails.
func (f *frame) fill(want int) {
	if f.avail() >= want || f.end || f.err != nil {
		return
	}
	f.crc = crc32.Update(f.crc, crc32.IEEETable, f.buf[f.c:f.r])
	f.w = copy(f.buf, f.buf[f.r:f.w])
	f.c, f.r = 0, 0
	for f.avail() < want && !f.end && f.err == nil {
		n, err := f.src.Read(f.buf[f.w:])
		f.w += n
		switch {
		case err == io.EOF:
			f.end = true
			f.split()
		case err != nil:
			f.err = err
		}
	}
}

// split separates the rest of the file into body and trailer: the last
// trailer prefix within the file's final holdBack bytes starts the
// trailer, and a file without one is all body.
func (f *frame) split() {
	rest := f.buf[f.r:f.w]
	win := max(0, len(rest)-holdBack)
	i := bytes.LastIndex(rest[win:], []byte(trailerPrefix))
	if i < 0 {
		return
	}
	line := bytes.TrimSuffix(rest[win+i+len(trailerPrefix):], []byte("\n"))
	want, err := strconv.ParseUint(string(line), 16, 32)
	if err != nil {
		f.bad = fmt.Errorf("%w: malformed crc trailer %q", ErrCorrupt, line)
	}
	f.sealed, f.want = true, uint32(want)
	f.w = f.r + win + i
}

// next makes body bytes available, or returns why there are none: the
// file's read error, or at the end of the body the verdict.
func (f *frame) next() error {
	f.fill(1)
	switch {
	case f.avail() > 0:
		return nil
	case f.err != nil:
		return f.err
	}
	f.crc = crc32.Update(f.crc, crc32.IEEETable, f.buf[f.c:f.r])
	f.c = f.r
	return f.verdict()
}

func (f *frame) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if err := f.next(); err != nil {
		return 0, err
	}
	n := copy(p, f.buf[f.r:f.r+f.avail()])
	f.r += n
	return n, nil
}

// ReadByte lets the inflater take exactly the bytes of the compressed
// stream, so whatever follows it is still in the frame.
func (f *frame) ReadByte() (byte, error) {
	if err := f.next(); err != nil {
		return 0, err
	}
	f.r++
	return f.buf[f.r-1], nil
}

// rest reads the body past the end of a compressed stream, where only
// the trailer may follow, and returns the verdict.
func (f *frame) rest() error {
	if err := f.next(); err != nil {
		return err
	}
	return fmt.Errorf("%w: bytes after the compressed stream", ErrCorrupt)
}

// skip hands the rest of the body out unread, folding it into the CRC,
// and returns nil when the file checks out.
func (f *frame) skip() error {
	for {
		f.r += f.avail()
		if err := f.next(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// verdict judges the file once every body byte was handed out.
func (f *frame) verdict() error {
	switch {
	case f.bad != nil:
		return f.bad
	case !f.sealed && f.mustSeal:
		return fmt.Errorf("%w: no crc trailer", ErrCorrupt)
	case f.sealed && f.crc != f.want:
		return fmt.Errorf("%w: crc mismatch: trailer %08x, body %08x", ErrCorrupt, f.want, f.crc)
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
	case r.f.err != nil:
		return r.f.err
	case errors.Is(err, ErrCorrupt):
		return err
	}
	return fmt.Errorf("%w: %w", ErrCorrupt, err)
}

// Decode streams the checkpoint file r through decode, in the same pass
// that checks its CRC: the trailer covers exactly the bytes the decoder
// consumes, plus the whitespace that alone may follow the decoded value
// (and, in a version-2 file, the compressed stream they inflate from).
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
	if !cr.f.sealed {
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
// by the largest token; in a version-2 file the compressed stream
// inflates and ends where the trailer begins; and the trailer matches
// (a version-1 file may lack one).
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
// so the CRC covers every byte. Only the header is parsed — in a
// version-2 file, only the header is inflated — and the rest of the file
// is checked by the CRC alone (a bare payload has no CRC, and is trusted
// past its header): this is the cheap probe the generation ledger and
// the replica manifest use, and it allocates its buffers, about 110 KB,
// however large the checkpoint is.
func ReadSeq(r io.Reader) (uint64, error) {
	return NewReader(r).readSeq()
}

func (r *Reader) readSeq() (uint64, error) {
	seq, err := headerSeq(json.NewDecoder(r))
	if err == nil {
		err = r.f.skip()
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
	if err == nil && !cr.f.sealed {
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
