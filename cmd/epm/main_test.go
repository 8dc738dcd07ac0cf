package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/epm"
)

// writeDataset produces a small dataset file for the command to consume.
func writeDataset(t *testing.T) string {
	t.Helper()
	res, err := core.Run(core.SmallScenario())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dataset.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := res.Dataset.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		_, _ = io.Copy(&buf, r)
		done <- buf.String()
	}()
	ferr := f()
	os.Stdout = old
	_ = w.Close()
	out := <-done
	_ = r.Close()
	return out, ferr
}

func TestRunOverDatasetFile(t *testing.T) {
	path := writeDataset(t)
	out, err := captureStdout(t, func() error {
		return run(path, epm.DefaultThresholds(), 5, "")
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Table 1",
		"epsilon: ",
		"pi: ",
		"mu: ",
		"B-clusters over",
		"pattern=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("", epm.DefaultThresholds(), 5, ""); err == nil {
		t.Error("missing -in must error")
	}
	if err := run(filepath.Join(t.TempDir(), "nope.jsonl"), epm.DefaultThresholds(), 5, ""); err == nil {
		t.Error("missing file must error")
	}
	// Corrupt file.
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(bad, epm.DefaultThresholds(), 5, ""); err == nil {
		t.Error("corrupt file must error")
	}
	// Invalid thresholds.
	path := writeDataset(t)
	if err := run(path, epm.Thresholds{}, 5, ""); err == nil {
		t.Error("invalid thresholds must error")
	}
}

func TestRunWritesClusterings(t *testing.T) {
	path := writeDataset(t)
	out := filepath.Join(t.TempDir(), "clusters.json")
	if _, err := captureStdout(t, func() error {
		return run(path, epm.DefaultThresholds(), 3, out)
	}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Three clusterings, in epsilon/pi/mu order.
	dec := json.NewDecoder(f)
	for _, want := range []string{"epsilon", "pi", "mu"} {
		var c struct {
			Schema   epm.Schema        `json:"schema"`
			Clusters []json.RawMessage `json:"clusters"`
		}
		if err := dec.Decode(&c); err != nil {
			t.Fatalf("%s clustering: %v", want, err)
		}
		if c.Schema.Dimension != want {
			t.Fatalf("dimension = %q, want %q", c.Schema.Dimension, want)
		}
		if len(c.Clusters) == 0 {
			t.Fatalf("%s clustering empty", want)
		}
	}
	if dec.More() {
		t.Fatal("more than three clusterings written")
	}
}
