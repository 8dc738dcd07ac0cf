package ckpt

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"testing/iotest"
)

// The sealing rule as a whole-blob function, kept as the oracle the
// streaming Writer and Reader are held to: seal appends the trailer,
// and oracleValid is the verdict of the loader before streaming — a
// trailer is found by the last prefix anywhere in the blob, must parse
// as hex and match the CRC of everything before it, and the payload
// must be valid JSON.
func seal(payload []byte) []byte {
	return append(append([]byte(nil), payload...), fmt.Sprintf("%s%08x\n", trailerPrefix, crc32.ChecksumIEEE(payload))...)
}

func oracleValid(blob []byte) bool {
	payload := blob
	if i := bytes.LastIndex(blob, []byte(trailerPrefix)); i >= 0 {
		line := bytes.TrimSuffix(blob[i+len(trailerPrefix):], []byte("\n"))
		want, err := strconv.ParseUint(string(line), 16, 32)
		if err != nil || crc32.ChecksumIEEE(blob[:i]) != uint32(want) {
			return false
		}
		payload = blob[:i]
	}
	return json.Valid(payload)
}

const testPayload = `{"version":1,"seq":42,"events":[{"id":"a<b>&c","note":"ü"}],"n":[1,2.5e3,null,true]}`

// TestTrailerVerdicts holds the streaming Reader to the whole-blob
// oracle on every trailer shape, fed whole, one byte at a time, in
// halves, and with io.EOF arriving alongside the last bytes.
func TestTrailerVerdicts(t *testing.T) {
	good := seal([]byte(testPayload))
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
	}
	// A file cut at every byte of its trailer, and one with each kind of
	// junk after an intact trailer.
	for n := len(testPayload); n < len(good); n++ {
		cases[fmt.Sprintf("cut at %d", n)] = good[:n]
	}
	for _, junk := range []string{"\n", "x", "00", trailerPrefix[:5], string(good[len(testPayload):])} {
		cases[fmt.Sprintf("junk %q", junk)] = append(append([]byte(nil), good...), junk...)
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
	if accepted < 4 || accepted == len(cases) {
		t.Fatalf("%d of %d cases accepted; the table must hold both verdicts", accepted, len(cases))
	}
}

// TestWriterMatchesSeal checks the streaming Writer emits exactly the
// sealed blob, and in one Write while it fits the buffer.
func TestWriterMatchesSeal(t *testing.T) {
	for _, size := range []int{0, 1000, writeBuffer + 12345} {
		payload := bytes.Repeat([]byte("x"), size)
		var out bytes.Buffer
		writes := 0
		w := NewWriter(writerFunc(func(p []byte) (int, error) {
			writes++
			return out.Write(p)
		}))
		for rest := payload; len(rest) > 0; rest = rest[min(len(rest), 777):] {
			if _, err := w.Write(rest[:min(len(rest), 777)]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Seal(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), seal(payload)) {
			t.Fatalf("size %d: streamed bytes differ from the sealed blob", size)
		}
		if size < writeBuffer && writes != 1 {
			t.Fatalf("size %d: %d writes, want 1", size, writes)
		}
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
	if err := Verify(bytes.NewReader(big)); err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]io.Reader{
		"eio":     io.MultiReader(bytes.NewReader(big[:readBuffer+100]), iotest.ErrReader(eio)),
		"timeout": iotest.TimeoutReader(bytes.NewReader(big)), // later reads would succeed
		"seq eio": io.MultiReader(bytes.NewReader(seal([]byte(testPayload))[:20]), iotest.ErrReader(eio)),
	} {
		var err error
		if name == "seq eio" {
			_, err = ReadSeq(r)
		} else {
			err = Verify(r)
		}
		if err == nil || errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: read error surfaced as %v", name, err)
		}
	}
}

// TestReadSeq reads the header's seq and lets the CRC judge the rest.
func TestReadSeq(t *testing.T) {
	seq, err := ReadSeq(bytes.NewReader(seal([]byte(testPayload))))
	if err != nil || seq != 42 {
		t.Fatalf("ReadSeq = %d, %v; want 42", seq, err)
	}
	flipped := seal([]byte(testPayload))
	flipped[len(testPayload)-3] ^= 1
	if _, err := ReadSeq(bytes.NewReader(flipped)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadSeq of a flipped body: %v, want ErrCorrupt", err)
	}
	if _, err := ReadSeq(bytes.NewReader(seal([]byte(`{"version":1}`)))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadSeq without a seq: %v, want ErrCorrupt", err)
	}
}

// TestNewestFallback walks the generation chain past a corrupt live
// checkpoint and past an unsealed one, and reports a missing chain as
// os.ErrNotExist.
func TestNewestFallback(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := OpenNewest(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("empty dir: %v, want ErrNotExist", err)
	}
	older := seal([]byte(`{"version":1,"seq":7}`))
	bad := seal([]byte(`{"version":1,"seq":9}`))
	bad[5] ^= 1
	if err := os.WriteFile(GenName(dir, 3), older, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, live := range map[string][]byte{"corrupt": bad, "unsealed": []byte(`{"version":1,"seq":9}`)} {
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
