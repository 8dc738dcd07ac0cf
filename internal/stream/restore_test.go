package stream_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/behavior"
	"repro/internal/ckpt"
	"repro/internal/dataset"
	"repro/internal/enrich"
	"repro/internal/poison"
	"repro/internal/stream"
	"repro/internal/wal"
)

// sealV1 seals payload as the version-1 writer did: the bare JSON and
// its CRC trailer.
func sealV1(payload []byte) []byte {
	return append(append([]byte(nil), payload...), fmt.Sprintf("\n#checkpoint-crc32 %08x\n", crc32.ChecksumIEEE(payload))...)
}

// sealV2 writes payload in the framing the service writes.
func sealV2(payload []byte) []byte {
	var buf bytes.Buffer
	var w ckpt.Writer
	if _, err := w.Encode(&buf, func(pw io.Writer) error {
		_, err := pw.Write(payload)
		return err
	}); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// restoreConfig is the service every restore test starts: defended,
// tracking clients, and retrying, so each field a seed may carry is
// restored into a service that uses it.
func restoreConfig(dir string) stream.Config {
	cfg := testConfig(8)
	cfg.Retry = stream.Retry{MaxAttempts: 3}
	cfg.BCluster = poison.DefaultDefense(cfg.BCluster)
	cfg.StatsClients = true
	cfg.Durability = stream.Durability{Dir: dir, NoSync: true}
	return cfg
}

// maxWALSeq bounds the log startOn writes beside a checkpoint.
const maxWALSeq = 64

// startOn writes blob as the only checkpoint of a fresh durability
// directory, beside a log of as many flush records as the checkpoint's
// seq says it covers (at most maxWALSeq), and starts a service on it
// within d. A checkpoint that restores finds its log; one refused is
// quarantined, and the log replays onto the fresh state.
func startOn(t testing.TB, blob []byte, d time.Duration) (*stream.Service, error) {
	t.Helper()
	dir := t.TempDir()
	seq, _ := ckpt.ReadSeq(bytes.NewReader(blob))
	log, err := wal.Open(wal.Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < min(seq, maxWALSeq); i++ {
		if _, err := log.Append([]byte(`{"kind":"flush"}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ckpt.Name), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	type started struct {
		svc *stream.Service
		err error
	}
	done := make(chan started, 1)
	go func() {
		svc, err := stream.New(restoreConfig(dir), fakeEnricher{})
		done <- started{svc, err}
	}()
	select {
	case s := <-done:
		return s.svc, s.err
	case <-time.After(d):
		t.Fatalf("recovery did not return within %v", d)
	}
	return nil, nil
}

// exercise checkpoints, flushes and closes svc, failing t if the
// checkpoint or the flush does not return within d. A restored retry
// pool that cannot drain hangs the flush; the service is then left
// running, since Close would wait for its worker.
func exercise(t testing.TB, svc *stream.Service, d time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	if err := svc.Checkpoint(ctx); err != nil {
		t.Fatalf("checkpoint after the restore: %v", err)
	}
	if err := svc.Flush(ctx); err != nil {
		t.Fatalf("flush after the restore: %v", err)
	}
	svc.Close()
}

// smallEvent is a few hundred bytes of event delivering sample md5.
func smallEvent(i int, md5 string) dataset.Event {
	e := testEvent(i, "v0")
	e.Sample.MD5 = md5
	e.Sample.Magic = ""
	return e
}

// retryEnricher fails the labeling of sample "r" and the execution of
// sample "x" with a short transient error, so each waits in the retry
// pool at its own stage.
type retryEnricher struct{}

func (retryEnricher) LabelSample(s *dataset.Sample) error {
	if s.MD5 == "r" {
		return enrich.Transient(errors.New("t"))
	}
	return nil
}

func (retryEnricher) ExecuteSample(s *dataset.Sample) (*behavior.Profile, bool, error) {
	if s.MD5 == "x" {
		return nil, false, enrich.Transient(errors.New("t"))
	}
	return behavior.NewProfile(), false, nil
}

// seedPayloads checkpoints four small services mid-stream and returns
// their payloads, each under 2 KB and the retry pool's kept small, so a
// mutation lands on its entries often: "retry" holds two samples in the
// retry pool, one at each stage; "quarantine" a quarantined one; "sets"
// executed samples, one with an empty profile, their sets and B inputs;
// "defended" is a defended service with client tracking, whose B inputs
// carry groups.
func seedPayloads(t testing.TB) map[string][]byte {
	t.Helper()
	ctx := context.Background()
	seeds := map[string]struct {
		cfg      func(stream.Config) stream.Config
		enricher stream.Enricher
		client   string
		events   []dataset.Event
	}{
		"retry": {
			cfg:      func(c stream.Config) stream.Config { c.Retry = stream.Retry{MaxAttempts: 4}; return c },
			enricher: retryEnricher{},
			events:   []dataset.Event{smallEvent(1, "r"), smallEvent(2, "x")},
		},
		"quarantine": {
			enricher: enrich.NewFaulty(fakeEnricher{}, enrich.FaultConfig{Permanent: map[string]bool{"q": true}}),
			events:   []dataset.Event{smallEvent(0, "q")},
		},
		"sets": {
			enricher: pinEnricher{},
			events:   []dataset.Event{smallEvent(0, "a"), smallEvent(1, "e")},
		},
		"defended": {
			cfg: func(c stream.Config) stream.Config {
				c.BCluster, c.StatsClients = poison.DefaultDefense(c.BCluster), true
				return c
			},
			enricher: fakeEnricher{},
			client:   "sensor-a",
			events:   []dataset.Event{smallEvent(0, "a"), smallEvent(1, "b")},
		},
	}
	out := map[string][]byte{}
	for name, sd := range seeds {
		cfg := testConfig(0)
		if sd.cfg != nil {
			cfg = sd.cfg(cfg)
		}
		dir := t.TempDir()
		cfg.Durability = stream.Durability{Dir: dir, NoSync: true}
		svc, err := stream.New(cfg, sd.enricher)
		if err != nil {
			t.Fatal(err)
		}
		if name == "sets" {
			// The second sample's profile is the empty one.
			sd.events[1].TruthVariant = "empty"
		}
		err = svc.IngestFrom(ctx, sd.client, sd.events)
		if err == nil {
			err = svc.Checkpoint(ctx)
		}
		svc.Close()
		if err != nil {
			t.Fatal(err)
		}
		payload := checkpointPayload(t, filepath.Join(dir, ckpt.Name))
		if len(payload) > 2048 {
			t.Fatalf("seed %q is %d bytes, want at most 2 KB", name, len(payload))
		}
		out[name] = payload
	}
	return out
}

// editValue replaces the JSON value of the first key in payload with
// what edit makes of it, failing t when the key is absent.
func editValue(t *testing.T, payload []byte, key string, edit func(value string) string) []byte {
	t.Helper()
	i := bytes.Index(payload, []byte(`"`+key+`":`))
	if i < 0 {
		t.Fatalf("payload has no %q", key)
	}
	i += len(key) + 3
	dec := json.NewDecoder(bytes.NewReader(payload[i:]))
	var v json.RawMessage
	if err := dec.Decode(&v); err != nil {
		t.Fatal(err)
	}
	end := i + int(dec.InputOffset())
	edited := edit(string(payload[i:end]))
	if edited == string(payload[i:end]) {
		t.Fatalf("the edit left %q unchanged: %s", key, payload[i:end])
	}
	return append(append(append([]byte(nil), payload[:i]...), edited...), payload[end:]...)
}

// replaceFirst replaces the first match of pattern in s.
func replaceFirst(s, pattern, with string) string {
	re := regexp.MustCompile(pattern)
	loc := re.FindStringIndex(s)
	if loc == nil {
		return s
	}
	return s[:loc[0]] + with + s[loc[1]:]
}

// TestRestoreRefusesInvalidState feeds recovery and a replica checkpoints
// that decode and pass their CRC but describe a state no service writes.
// Each is refused as corrupt: recovery quarantines it and starts from
// what the log holds, a replica refuses the snapshot and stays fresh.
// Restored, the two retry-pool cases left every later Flush spinning;
// the flush is bounded by a deadline.
func TestRestoreRefusesInvalidState(t *testing.T) {
	seeds := seedPayloads(t)
	value := func(key string, edit func(string) string) func(*testing.T, []byte) []byte {
		return func(t *testing.T, p []byte) []byte { return editValue(t, p, key, edit) }
	}
	cases := []struct {
		name, seed string
		mangle     func(*testing.T, []byte) []byte
		why        string // in the refusal
	}{
		{"retry entry with an unknown stage", "retry", value("retry", func(v string) string {
			return strings.Replace(v, `"stage":"label"`, `"stage":"volcano"`, 1)
		}), "unknown stage"},
		{"retry pool holding one sample twice", "retry", value("retry", func(v string) string {
			entry := strings.TrimSuffix(strings.TrimPrefix(v, "["), "]")
			return "[" + entry + "," + entry + "]"
		}), "twice"},
		{"retry entry with negative attempts", "retry", value("retry", func(v string) string {
			return replaceFirst(v, `"attempts":\d+`, `"attempts":-1`)
		}), "-1 attempts"},
		{"retry entry for an unknown sample", "retry", value("retry", func(v string) string {
			return strings.Replace(v, `"md5":"r"`, `"md5":"nowhere"`, 1)
		}), "retry entry names unknown sample"},
		{"quarantine entry for an unknown sample", "quarantine", value("quarantined", func(v string) string {
			return strings.Replace(v, `"q":`, `"nowhere":`, 1)
		}), "quarantine entry names unknown sample"},
		{"B input for an unknown sample", "sets", value("inputs", func(v string) string {
			return strings.Replace(v, `"id":"a"`, `"id":"nowhere"`, 1)
		}), "B input names unknown sample"},
		{"sample client for an unknown sample", "defended", value("sample_clients", func(v string) string {
			return replaceFirst(v, `"[^"]*":`, `"nowhere":`)
		}), "sample client names unknown sample"},
		{"sample set index out of range", "sets", value("samples", func(v string) string {
			return replaceFirst(v, `"set":\d+`, `"set":99`)
		}), "set index 99 out of range"},
		{"B input set index out of range", "sets", value("inputs", func(v string) string {
			return replaceFirst(v, `"set":\d+`, `"set":2`)
		}), "set index 2 out of range"},
		{"B input without a set", "sets", value("inputs", func(v string) string {
			return replaceFirst(v, `,"set":\d+`, ``)
		}), "set index -1 out of range"},
		{"sets after the B inputs", "retry", func(t *testing.T, p []byte) []byte {
			return append(bytes.TrimSuffix(bytes.Clone(p), []byte("}")), `,"sets":[["f"]]}`...)
		}, "sets come twice, or after records"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			payload := c.mangle(t, seeds[c.seed])
			svc, err := startOn(t, sealV2(payload), 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if st := svc.Stats().Storage; st.CorruptCheckpoints != 1 {
				t.Errorf("recovery quarantined %d checkpoints, want 1", st.CorruptCheckpoints)
			}
			exercise(t, svc, 3*time.Second)

			rep, err := stream.NewReplica(testConfig(8), fakeEnricher{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(rep.Close)
			if err := rep.RestoreSnapshot(bytes.NewReader(sealV2(payload))); !errors.Is(err, ckpt.ErrCorrupt) || !strings.Contains(err.Error(), c.why) {
				t.Fatalf("replica: RestoreSnapshot error %v, want ckpt.ErrCorrupt for %q", err, c.why)
			}
			if err := rep.RestoreSnapshot(bytes.NewReader(sealV2(seeds[c.seed]))); err != nil {
				t.Fatalf("replica not left fresh, or the unedited seed refused: %v", err)
			}
		})
	}
}

// TestRestoreSeeds: every fuzz seed restores, in either framing, into a
// service that checkpoints, flushes and closes.
func TestRestoreSeeds(t *testing.T) {
	for name, payload := range seedPayloads(t) {
		for framing, seal := range map[string]func([]byte) []byte{"v1": sealV1, "v2": sealV2} {
			svc, err := startOn(t, seal(payload), 10*time.Second)
			if err != nil {
				t.Fatalf("%s (%s): %v", name, framing, err)
			}
			if st := svc.Stats(); st.Storage.CorruptCheckpoints != 0 || st.Events == 0 {
				t.Fatalf("%s (%s): restored %d events, quarantined %d checkpoints", name, framing, st.Events, st.Storage.CorruptCheckpoints)
			}
			exercise(t, svc, 10*time.Second)
		}
	}
}

// FuzzRestoreCheckpoint restores a fuzzed checkpoint payload, sealed in
// either framing. A replica restores it in memory first: a payload it
// refuses must be refused as ckpt.ErrCorrupt. One it takes is restored
// into a fresh durable service, which must start and then checkpoint,
// flush and close, each within the deadline: no panic, no hang. Most
// fuzzed payloads are refused, and the replica refuses them without
// touching the disk, so the durable path runs for those that count.
func FuzzRestoreCheckpoint(f *testing.F) {
	seeds := seedPayloads(f)
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(seeds[name])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, seal := range []func([]byte) []byte{sealV2, sealV1} {
			blob := seal(payload)
			rep, err := stream.NewReplica(restoreConfig(""), fakeEnricher{})
			if err != nil {
				t.Fatal(err)
			}
			err = rep.RestoreSnapshot(bytes.NewReader(blob))
			rep.Close()
			if err != nil {
				if !errors.Is(err, ckpt.ErrCorrupt) {
					t.Fatalf("refused with %v, want ckpt.ErrCorrupt", err)
				}
				continue
			}
			svc, err := startOn(t, blob, 5*time.Second)
			if err != nil {
				continue
			}
			exercise(t, svc, 5*time.Second)
		}
	})
}
