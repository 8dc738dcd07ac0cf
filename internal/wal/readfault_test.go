package wal

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"syscall"
	"testing"

	"repro/internal/faultfs"
)

// segmentFault injects one fault into reads of one segment file: its
// open fails ("open"), the read covering byte off fails ("read"), or
// that byte comes back with a bit flipped ("flip", the disk untouched).
// The fault fires `left` times; -1 fires forever.
type segmentFault struct {
	faultfs.FS
	path string
	kind string
	off  int64

	mu   sync.Mutex
	left int
}

func (f *segmentFault) fire() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.left == 0 {
		return false
	}
	if f.left > 0 {
		f.left--
	}
	return true
}

func (f *segmentFault) Open(name string) (faultfs.File, error) {
	if name == f.path && f.kind == "open" && f.fire() {
		return nil, &os.PathError{Op: "open", Path: name, Err: syscall.EIO}
	}
	inner, err := f.FS.Open(name)
	if err != nil || name != f.path {
		return inner, err
	}
	return &faultyRead{File: inner, fault: f}, nil
}

type faultyRead struct {
	faultfs.File
	fault *segmentFault
	pos   int64
}

func (r *faultyRead) Read(p []byte) (int, error) {
	f := r.fault
	if f.kind == "read" && r.pos <= f.off && f.off < r.pos+int64(len(p)) && f.fire() {
		return 0, &os.PathError{Op: "read", Path: f.path, Err: syscall.EIO}
	}
	n, err := r.File.Read(p)
	if f.kind == "flip" && r.pos <= f.off && f.off < r.pos+int64(n) && f.fire() {
		p[f.off-r.pos] ^= 0x10
	}
	r.pos += int64(n)
	return n, err
}

// TestReadFaultsNeverShortenTheLog is the read-side recovery table:
// every fault kind at the first, a middle and the newest of three
// four-record segments. A fault that passes is retried or re-read, and
// the log keeps all 12 acknowledged records; one that persists is
// refused with a typed error; only a frame torn at the end of the
// newest segment is cut, and it was never acknowledged. No case loses
// an acknowledged record, and -wal-verify agrees with Open.
func TestReadFaultsNeverShortenTheLog(t *testing.T) {
	const records, perSeg = 12, 4
	frame := int64(headerSize + len("rec-00"))
	segs := []uint64{1, 5, 9}
	build := func(t *testing.T) Options {
		opts := testOptions(t)
		opts.SegmentBytes = perSeg * frame
		l, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= records; i++ {
			mustAppend(t, l, fmt.Sprintf("rec-%02d", i))
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if n := countSegments(t, opts.Dir); n != len(segs) {
			t.Fatalf("%d segments, want %d", n, len(segs))
		}
		return opts
	}
	sizes := func(t *testing.T, dir string) []int64 {
		var out []int64
		for _, first := range segs {
			fi, err := os.Stat(segmentFile(dir, first))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fi.Size())
		}
		return out
	}
	// keeps opens the log clean and requires every acknowledged record.
	keeps := func(t *testing.T, opts Options) {
		t.Helper()
		opts.FS = nil
		l, err := Open(opts)
		if err != nil {
			t.Fatalf("clean reopen: %v", err)
		}
		defer l.Close()
		if got := collect(t, l, 0); l.LastSeq() != records || len(got) != records || got[records] != fmt.Sprintf("rec-%02d", records) {
			t.Fatalf("clean reopen: LastSeq %d, %d records, want %d", l.LastSeq(), len(got), records)
		}
	}
	flipOnDisk := func(t *testing.T, path string, off int64) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[off] ^= 0x10
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tear := func(t *testing.T, path string) {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		// Seven bytes of the next frame: a length word and part of its CRC.
		if _, err := f.Write([]byte{0, 0, 0, 14, 9, 9, 9}); err != nil {
			t.Fatal(err)
		}
	}

	lastFrame := (perSeg - 1) * frame // of a segment
	for si, pos := range []string{"first", "middle", "last"} {
		newest := si == len(segs)-1
		for _, c := range []struct {
			name string
			// fault injects on opts/path; disk faults change the files.
			fault func(t *testing.T, opts *Options, path string)
			// refuse is the typed refusal wanted, or "" when the log
			// must open with every record.
			refuse string
		}{
			{"open EIO once", func(t *testing.T, o *Options, p string) {
				o.FS = &segmentFault{FS: faultfs.OS, path: p, kind: "open", left: 1}
			}, ""},
			{"open EIO always", func(t *testing.T, o *Options, p string) {
				o.FS = &segmentFault{FS: faultfs.OS, path: p, kind: "open", left: -1}
			}, "io"},
			{"read EIO once", func(t *testing.T, o *Options, p string) {
				o.FS = &segmentFault{FS: faultfs.OS, path: p, kind: "read", off: lastFrame, left: 1}
			}, ""},
			{"read EIO always", func(t *testing.T, o *Options, p string) {
				o.FS = &segmentFault{FS: faultfs.OS, path: p, kind: "read", off: lastFrame, left: -1}
			}, "io"},
			{"bit flip", func(t *testing.T, o *Options, p string) {
				o.FS = &segmentFault{FS: faultfs.OS, path: p, kind: "flip", off: lastFrame + headerSize + 2, left: 1}
			}, ""},
			{"corrupt middle frame", func(t *testing.T, o *Options, p string) {
				flipOnDisk(t, p, frame+headerSize+2)
			}, "corrupt"},
			{"torn tail", func(t *testing.T, o *Options, p string) {
				tear(t, p)
			}, map[bool]string{false: "corrupt", true: ""}[newest]},
		} {
			t.Run(c.name+"/"+pos, func(t *testing.T) {
				opts := build(t)
				path := segmentFile(opts.Dir, segs[si])
				c.fault(t, &opts, path)
				before := sizes(t, opts.Dir)
				l, err := Open(opts)
				var ioErr *IOError
				var ce *CorruptError
				switch c.refuse {
				case "":
					if err != nil {
						t.Fatalf("Open: %v, want every record back", err)
					}
					l.Close()
					keeps(t, opts)
				case "io":
					if !errors.As(err, &ioErr) || ioErr.Path != path {
						t.Fatalf("Open: %v, want an *IOError naming %s", err, path)
					}
					keeps(t, opts)
				case "corrupt":
					// A torn frame in a sealed segment is refused too:
					// appends had moved past it.
					if !errors.As(err, &ce) || ce.Path != path || ce.Torn && c.name != "torn tail" {
						t.Fatalf("Open: %v, want a *CorruptError at %s", err, path)
					}
					if _, _, verr := VerifyDir(opts.Dir); verr == nil || verr.(*VerifyError).Repairable {
						t.Fatalf("VerifyDir: %v, want a corruption that is not repairable", verr)
					}
				}
				after := sizes(t, opts.Dir)
				for i := range after {
					want := before[i]
					if c.name == "torn tail" && newest && i == si {
						want = perSeg * frame // only the unacknowledged bytes go
					}
					if after[i] != want {
						t.Fatalf("segment %d is %d bytes after Open, want %d", segs[i], after[i], want)
					}
				}
			})
		}
	}
}
