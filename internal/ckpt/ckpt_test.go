package ckpt

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// The framing rules as whole-blob functions, kept as the oracle the
// streaming Writer and Reader are held to: seal appends the version-1
// trailer to a bare payload, sealV2 deflates the payload in one piece
// behind the magic and appends the trailer over both, and oracleValid
// is the verdict of a loader that reads the whole blob — a trailer is
// found by the last prefix anywhere in the blob, must parse as hex and
// match the CRC of everything before it; a version-2 body must carry a
// trailer and be exactly one deflate stream; and the payload must be
// valid JSON.
func seal(payload []byte) []byte {
	return append(append([]byte(nil), payload...), fmt.Sprintf("%s%08x\n", trailerPrefix, crc32.ChecksumIEEE(payload))...)
}

func sealV2(payload []byte, level int) []byte {
	var body bytes.Buffer
	body.WriteString(magic)
	zw, err := flate.NewWriter(&body, level)
	if err != nil {
		panic(err)
	}
	zw.Write(payload)
	zw.Close()
	return seal(body.Bytes())
}

func oracleValid(blob []byte) bool {
	body, sealed := blob, false
	if i := bytes.LastIndex(blob, []byte(trailerPrefix)); i >= 0 {
		line := bytes.TrimSuffix(blob[i+len(trailerPrefix):], []byte("\n"))
		want, err := strconv.ParseUint(string(line), 16, 32)
		if err != nil || crc32.ChecksumIEEE(blob[:i]) != uint32(want) {
			return false
		}
		body, sealed = blob[:i], true
	}
	if !bytes.HasPrefix(body, []byte(magic)) {
		return json.Valid(body)
	}
	br := bytes.NewReader(body[len(magic):])
	payload, err := io.ReadAll(flate.NewReader(br))
	return sealed && err == nil && br.Len() == 0 && json.Valid(payload)
}

// flip returns a copy of b with one bit of b[i] flipped.
func flip(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 4
	return c
}

// reseal replaces a blob's trailer with one that matches its body, so
// only what the body holds can fail it.
func reseal(body []byte) []byte { return seal(body) }

const testPayload = `{"version":1,"seq":42,"events":[{"id":"a<b>&c","note":"ü"}],"n":[1,2.5e3,null,true]}`

// bigPayload is a JSON array of n pseudo-random numbers: it deflates to
// several read buffers.
func bigPayload(n int) []byte {
	var b bytes.Buffer
	b.WriteString(`{"seq":7,"n":[`)
	x := uint64(1)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(x>>40, 10))
	}
	b.WriteString("]}")
	return b.Bytes()
}

// TestTrailerVerdicts holds the streaming Reader to the whole-blob
// oracle on every framing and trailer shape, fed whole, one byte at a
// time, in halves, and with io.EOF arriving alongside the last bytes.
func TestTrailerVerdicts(t *testing.T) {
	good := seal([]byte(testPayload))
	good2 := sealV2([]byte(testPayload), flate.BestSpeed)
	body2 := good2[:len(good2)-28]
	cases := map[string][]byte{
		"sealed":         good,
		"wrong crc":      bytes.Replace(good, []byte(fmt.Sprintf("%08x", crc32.ChecksumIEEE([]byte(testPayload)))), []byte("00000000"), 1),
		"malformed hex":  []byte(testPayload + trailerPrefix + "zzzzzzzz\n"),
		"short hex":      []byte(testPayload + trailerPrefix + "1\n"),
		"legacy":         []byte(testPayload),
		"legacy invalid": []byte(testPayload[:len(testPayload)-1]),
		"legacy spaced":  []byte(" \n" + testPayload + " \r\n\t"),
		"flipped body":   append([]byte(testPayload[:10]+"X"+testPayload[11:]), good[len(testPayload):]...),
		"empty":          {},
		"only trailer":   seal(nil),
		"two values":     seal([]byte(testPayload + " {}")),

		"v2":                   good2,
		"v2 stored":            sealV2([]byte(testPayload), flate.NoCompression),
		"v2 big":               sealV2(bigPayload(40000), flate.BestSpeed),
		"v2 spaced":            sealV2([]byte(" \n"+testPayload+" \r\n\t"), flate.BestSpeed),
		"v2 invalid":           sealV2([]byte(testPayload[:len(testPayload)-1]), flate.BestSpeed),
		"v2 two values":        sealV2([]byte(testPayload+" {}"), flate.BestSpeed),
		"v2 empty payload":     sealV2(nil, flate.BestSpeed),
		"v2 flipped bit":       flip(good2, len(magic)+5),
		"v2 truncated stream":  reseal(body2[:len(body2)-3]),
		"v2 trailing bytes":    reseal(append(append([]byte(nil), body2...), 'x')),
		"v2 trailing trailer":  reseal(append(append([]byte(nil), body2...), good2[len(body2):]...)),
		"v2 without trailer":   body2,
		"v2 magic only":        reseal([]byte(magic)),
		"v2 magic cut":         []byte(magic[:5]),
		"v2 legacy inside":     reseal(append([]byte(magic), testPayload...)),
		"v2 bit-flipped magic": reseal(append([]byte("\x88"+magic[1:]), body2[len(magic):]...)),
	}
	// A file cut at every byte of its trailer, and one with each kind of
	// junk after an intact trailer, in both framings.
	for _, f := range []struct {
		name       string
		blob       []byte
		payloadEnd int
	}{{"", good, len(testPayload)}, {"v2 ", good2, len(body2)}} {
		for n := f.payloadEnd - 2; n < len(f.blob); n++ {
			cases[fmt.Sprintf("%scut at %d", f.name, n)] = f.blob[:n]
		}
		for _, junk := range []string{"\n", "x", "00", trailerPrefix[:5], string(f.blob[f.payloadEnd:])} {
			cases[fmt.Sprintf("%sjunk %q", f.name, junk)] = append(append([]byte(nil), f.blob...), junk...)
		}
	}
	accepted := 0
	for name, blob := range cases {
		want := oracleValid(blob)
		if want {
			accepted++
		}
		for _, feed := range []struct {
			name string
			r    func() io.Reader
		}{
			{"whole", func() io.Reader { return bytes.NewReader(blob) }},
			{"byte-wise", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(blob)) }},
			{"halves", func() io.Reader { return iotest.HalfReader(bytes.NewReader(blob)) }},
			{"eof with data", func() io.Reader { return iotest.DataErrReader(bytes.NewReader(blob)) }},
		} {
			err := Verify(feed.r())
			if got := err == nil; got != want {
				t.Errorf("%s (%s): accepted=%v, want %v (err %v)", name, feed.name, got, want, err)
			}
			if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s (%s): rejection %v is not ErrCorrupt", name, feed.name, err)
			}
			payload, err := io.ReadAll(NewReader(feed.r()))
			if err == nil && want && !json.Valid(payload) {
				t.Errorf("%s (%s): Reader passed %q", name, feed.name, payload)
			}
		}
	}
	if accepted < 8 || accepted == len(cases) {
		t.Fatalf("%d of %d cases accepted; the table must hold both verdicts", accepted, len(cases))
	}
}

// encode writes payload through w in 777-byte pieces and returns the
// file, the payload byte count, and how many writes reached the file.
func encode(t *testing.T, w *Writer, payload []byte) ([]byte, int64, int) {
	t.Helper()
	var out bytes.Buffer
	writes := 0
	n, err := w.Encode(writerFunc(func(p []byte) (int, error) {
		writes++
		return out.Write(p)
	}), func(pw io.Writer) error {
		for rest := payload; len(rest) > 0; rest = rest[min(len(rest), 777):] {
			if _, err := pw.Write(rest[:min(len(rest), 777)]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), n, writes
}

// TestWriterMatchesSeal checks the streaming Writer emits exactly the
// blob one deflate of the whole payload seals, and reports the payload
// size: whatever the chunking, the size, and the checkpoints the Writer
// wrote before. A file that compresses to less than a chunk reaches the
// file in a single Write.
func TestWriterMatchesSeal(t *testing.T) {
	var w Writer
	for _, payload := range [][]byte{
		nil,
		bytes.Repeat([]byte("x"), 1000),
		bytes.Repeat([]byte("x"), chunkSize+12345),
		bigPayload(150000), // about 4 chunks in, 2 out
		[]byte(testPayload),
	} {
		got, n, writes := encode(t, &w, payload)
		want := sealV2(payload, flate.BestSpeed)
		if !bytes.Equal(got, want) {
			t.Fatalf("size %d: streamed bytes differ from the sealed blob", len(payload))
		}
		if n != int64(len(payload)) {
			t.Fatalf("size %d: Encode reported %d payload bytes", len(payload), n)
		}
		if len(got) < chunkSize && writes != 1 {
			t.Fatalf("size %d: %d writes of a %d-byte file, want 1", len(payload), writes, len(got))
		}
		if back, err := io.ReadAll(NewReader(bytes.NewReader(got))); err != nil || !bytes.Equal(back, payload) {
			t.Fatalf("size %d: read back %d bytes, %v", len(payload), len(back), err)
		}
	}
}

// TestWriterErrors: a write error of the file's reaches the payload's
// writes, which stop, and Encode's caller; a payload error reaches the
// caller too. Either way the compressor is done when Encode returns.
func TestWriterErrors(t *testing.T) {
	enospc := errors.New("injected ENOSPC")
	var w Writer
	big := bigPayload(400000)
	stopped := false
	_, err := w.Encode(writerFunc(func(p []byte) (int, error) { return 0, enospc }), func(pw io.Writer) error {
		for rest := big; len(rest) > 0; rest = rest[min(len(rest), 4096):] {
			if _, err := pw.Write(rest[:min(len(rest), 4096)]); err != nil {
				stopped = true
				return err
			}
		}
		return nil
	})
	if !errors.Is(err, enospc) || !stopped {
		t.Fatalf("Encode over a failing file: %v (payload stopped: %v), want the file's error, seen by the payload", err, stopped)
	}
	bad := errors.New("payload failed")
	if _, err := w.Encode(io.Discard, func(pw io.Writer) error {
		pw.Write(big)
		return bad
	}); err != bad {
		t.Fatalf("Encode of a failing payload: %v, want its error", err)
	}
	// The Writer is whole again.
	if got, _, _ := encode(t, &w, []byte(testPayload)); !bytes.Equal(got, sealV2([]byte(testPayload), flate.BestSpeed)) {
		t.Fatal("the Writer wrote a different file after the failures")
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestReadErrorsAreNotCorruption pins the fault rule's input: a device
// error mid-stream comes back as itself, never as ErrCorrupt, and the
// Reader does not read past it.
func TestReadErrorsAreNotCorruption(t *testing.T) {
	eio := errors.New("injected EIO")
	big := seal(append([]byte("0"), bytes.Repeat([]byte(" "), 3*readBuffer)...))
	big2 := sealV2(bigPayload(200000), flate.BestSpeed)
	for _, b := range [][]byte{big, big2} {
		if err := Verify(bytes.NewReader(b)); err != nil {
			t.Fatal(err)
		}
	}
	if len(big2) < 3*readBuffer {
		t.Fatalf("the version-2 file is %d bytes; a read error would not land mid-file", len(big2))
	}
	for name, r := range map[string]io.Reader{
		"eio":        io.MultiReader(bytes.NewReader(big[:readBuffer+100]), iotest.ErrReader(eio)),
		"timeout":    iotest.TimeoutReader(bytes.NewReader(big)), // later reads would succeed
		"seq eio":    io.MultiReader(bytes.NewReader(seal([]byte(testPayload))[:20]), iotest.ErrReader(eio)),
		"v2 eio":     io.MultiReader(bytes.NewReader(big2[:readBuffer+100]), iotest.ErrReader(eio)),
		"v2 timeout": iotest.TimeoutReader(bytes.NewReader(big2)),
		"v2 seq eio": io.MultiReader(bytes.NewReader(big2[:2*readBuffer]), iotest.ErrReader(eio)),
	} {
		var err error
		if strings.HasSuffix(name, "seq eio") {
			_, err = ReadSeq(r)
		} else {
			err = Verify(r)
		}
		if err == nil || errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: read error surfaced as %v", name, err)
		}
	}
}

// TestReadSeq reads the header's seq and lets the CRC judge the rest,
// in both framings: a version-2 file is inflated only as far as its
// header.
func TestReadSeq(t *testing.T) {
	for _, v := range []struct {
		name string
		seal func([]byte) []byte
	}{
		{"v1", seal},
		{"v2", func(p []byte) []byte { return sealV2(p, flate.BestSpeed) }},
	} {
		good := v.seal([]byte(testPayload))
		seq, err := ReadSeq(bytes.NewReader(good))
		if err != nil || seq != 42 {
			t.Fatalf("%s: ReadSeq = %d, %v; want 42", v.name, seq, err)
		}
		if _, err := ReadSeq(bytes.NewReader(flip(good, len(good)-32))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: ReadSeq of a flipped body: %v, want ErrCorrupt", v.name, err)
		}
		if _, err := ReadSeq(bytes.NewReader(v.seal([]byte(`{"version":1}`)))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: ReadSeq without a seq: %v, want ErrCorrupt", v.name, err)
		}
	}
	// The tail of a large version-2 file is never inflated, yet its CRC
	// still covers it.
	big := sealV2(bigPayload(200000), flate.BestSpeed)
	if seq, err := ReadSeq(bytes.NewReader(big)); err != nil || seq != 7 {
		t.Fatalf("ReadSeq of a large file = %d, %v; want 7", seq, err)
	}
	if _, err := ReadSeq(bytes.NewReader(flip(big, len(big)-100))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadSeq of a large file flipped near its end: %v, want ErrCorrupt", err)
	}
	if _, err := ReadSeq(bytes.NewReader(big[:len(big)-28])); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadSeq of a version-2 file without a trailer: %v, want ErrCorrupt", err)
	}
}

// TestNewestFallback walks the generation chain past a corrupt live
// checkpoint, an unsealed one, and a version-2 one without its trailer,
// to a generation of either framing, and reports a missing chain as
// os.ErrNotExist.
func TestNewestFallback(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := OpenNewest(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("empty dir: %v, want ErrNotExist", err)
	}
	bad := sealV2([]byte(`{"version":2,"seq":9}`), flate.BestSpeed)
	bad[len(magic)+3] ^= 1
	unsealed2 := sealV2([]byte(`{"version":2,"seq":9}`), flate.BestSpeed)
	unsealed2 = unsealed2[:len(unsealed2)-28]
	for _, older := range [][]byte{
		seal([]byte(`{"version":1,"seq":7}`)),
		sealV2([]byte(`{"version":2,"seq":7}`), flate.BestSpeed),
	} {
		if err := os.WriteFile(GenName(dir, 3), older, 0o644); err != nil {
			t.Fatal(err)
		}
		for name, live := range map[string][]byte{"corrupt": bad, "unsealed": []byte(`{"version":1,"seq":9}`), "unsealed v2": unsealed2} {
			if err := os.WriteFile(filepath.Join(dir, Name), live, 0o644); err != nil {
				t.Fatal(err)
			}
			f, seq, err := OpenNewest(dir)
			if err != nil || seq != 7 || f.Name() != GenName(dir, 3) {
				t.Fatalf("%s live checkpoint: OpenNewest = %v, %d, %v; want the generation's 7", name, f, seq, err)
			}
			shipped, err := io.ReadAll(f)
			f.Close()
			if err != nil || !bytes.Equal(shipped, older) {
				t.Fatalf("%s live checkpoint: shipped %q, %v; want the sealed generation from its first byte", name, shipped, err)
			}
		}
	}
	if err := os.WriteFile(filepath.Join(dir, Name), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(GenName(dir, 3)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenNewest(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("only a corrupt checkpoint: %v, want ErrCorrupt", err)
	}
}
