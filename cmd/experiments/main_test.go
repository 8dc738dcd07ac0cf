package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// captureStdout runs f while collecting everything written to stdout.
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

func TestRunAllSmall(t *testing.T) {
	out, err := captureStdout(t, func() error { return run(3, true, "all", 0) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Section 4.1 headline counts",
		"Table 1",
		"Figure 3",
		"Figure 4",
		"per-source polymorphic cluster",
		"Figure 5",
		"Table 2",
		"Clustering validity",
		"W32.Rahack",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunSingleSelectors(t *testing.T) {
	for _, sel := range []string{"counts", "table1", "diag"} {
		sel := sel
		t.Run(sel, func(t *testing.T) {
			out, err := captureStdout(t, func() error { return run(3, true, sel, 0) })
			if err != nil {
				t.Fatal(err)
			}
			if len(out) < 100 {
				t.Errorf("selector %q produced almost no output", sel)
			}
		})
	}
}

func TestRunUnknownSelectorFails(t *testing.T) {
	out, err := captureStdout(t, func() error { return run(3, true, "nonexistent", 0) })
	if err == nil {
		t.Fatal("unknown selector must fail instead of silently printing nothing")
	}
	for _, want := range []string{"nonexistent", "table1", "distributed"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	if strings.Contains(out, "Table 1") {
		t.Error("unknown selector must not run experiments")
	}
}

func TestSelectorListCoversDispatch(t *testing.T) {
	// Every selector the dispatcher handles must be announced in the
	// validated list (and the usage text built from it).
	for _, sel := range []string{
		"counts", "diag", "table1", "figure3", "figure4", "mcluster13",
		"figure5", "table2", "validity", "avlabels", "temporal",
		"population", "coverage", "distributed", "all",
	} {
		if !validSelector(sel) {
			t.Errorf("selector %q not in the valid list", sel)
		}
	}
	if validSelector("bogus") {
		t.Error("bogus selector accepted")
	}
}

// TestGolden pins every paper-facing number: the full -run all output for
// the default scenario (seed 2010) and the small one must equal the
// committed goldens byte for byte. Run with -update to rewrite them after
// an intended change; the diff of the golden files is then the claim.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		small bool
	}{{"small", true}, {"default", false}} {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.small && testing.Short() {
				t.Skip("paper-scale scenario skipped under -short")
			}
			got, err := captureStdout(t, func() error { return run(2010, tc.small, "all", 0) })
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got == string(want) {
				return
			}
			g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < max(len(g), len(w)); i++ {
				var gl, wl string
				if i < len(g) {
					gl = g[i]
				}
				if i < len(w) {
					wl = w[i]
				}
				if gl != wl {
					t.Fatalf("%s: line %d differs (%d lines, golden %d):\n got: %q\nwant: %q", path, i+1, len(g), len(w), gl, wl)
				}
			}
		})
	}
}
