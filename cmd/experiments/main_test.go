package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
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
	out, err := captureStdout(t, func() error { return run(3, true, "", "all", 0) })
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
			out, err := captureStdout(t, func() error { return run(3, true, "", sel, 0) })
			if err != nil {
				t.Fatal(err)
			}
			if len(out) < 100 {
				t.Errorf("selector %q produced almost no output", sel)
			}
		})
	}
}

// TestRunScenarioFile checks -scenario: a file holding the small
// scenario reproduces the -small output, with the header naming the file.
func TestRunScenarioFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "small.json")
	raw, err := json.Marshal(core.SmallScenario())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, err := captureStdout(t, func() error { return run(3, false, path, "counts", 0) })
	if err != nil {
		t.Fatal(err)
	}
	small, err := captureStdout(t, func() error { return run(3, true, "", "counts", 0) })
	if err != nil {
		t.Fatal(err)
	}
	got, want := strings.SplitN(fromFile, "\n", 2), strings.SplitN(small, "\n", 2)
	if len(got) != 2 || len(want) != 2 || got[1] != want[1] {
		t.Errorf("-scenario with the small scenario differs from -small:\n%s\nvs\n%s", fromFile, small)
	}
	if !strings.Contains(got[0], "scenario="+path) {
		t.Errorf("header %q does not name the scenario file", got[0])
	}
	if err := run(3, false, filepath.Join(t.TempDir(), "missing.json"), "counts", 0); err == nil {
		t.Error("a missing scenario file must fail")
	}
}

func TestRunUnknownSelectorFails(t *testing.T) {
	out, err := captureStdout(t, func() error { return run(3, true, "", "nonexistent", 0) })
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
// committed goldens byte for byte, and so must the small scenario's two
// extension runs that -run all leaves out (coverage and the distributed
// deployment). Run with -update to rewrite them after an intended change;
// the diff of the golden files is then the claim.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		small bool
		runs  []string
	}{
		{"small", true, []string{"all"}},
		{"default", false, []string{"all"}},
		{"extensions", true, []string{"coverage", "distributed"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name != "small" && testing.Short() {
				t.Skip("skipped under -short; only the small -run all golden runs")
			}
			got, err := captureStdout(t, func() error {
				for _, sel := range tc.runs {
					if err := run(2010, tc.small, "", sel, 0); err != nil {
						return err
					}
				}
				return nil
			})
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

// goldenExcerpt matches one marked excerpt of EXPERIMENTS.md: the
// marker naming a golden file and a section heading, then a fenced
// block holding consecutive lines of that section.
var goldenExcerpt = regexp.MustCompile("(?m)^<!-- golden: ([^/]+)/(.+) -->\n```\n((?s:.*?))```$")

// TestExperimentsDocExcerpts keeps EXPERIMENTS.md from drifting: every
// block it marks as a golden excerpt must appear verbatim in the named
// section of that golden. A section is named by a prefix of its "## "
// heading that no other heading of the file shares.
func TestExperimentsDocExcerpts(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	marks := goldenExcerpt.FindAllStringSubmatch(string(doc), -1)
	if n := len(regexp.MustCompile("(?m)^<!-- golden:").FindAllString(string(doc), -1)); n != len(marks) || n == 0 {
		t.Fatalf("%d golden markers, %d of them followed by a fenced excerpt", n, len(marks))
	}
	for _, m := range marks {
		file, heading, excerpt := m[1], m[2], m[3]
		golden, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Error(err)
			continue
		}
		var sections []string
		for _, sec := range strings.Split(string(golden), "\n## ")[1:] {
			if strings.HasPrefix(sec, heading) {
				sections = append(sections, sec)
			}
		}
		if len(sections) != 1 {
			t.Errorf("%s: %d sections headed %q, want one", file, len(sections), heading)
			continue
		}
		if !strings.Contains("\n"+sections[0], "\n"+excerpt) {
			t.Errorf("EXPERIMENTS.md excerpt marked %s/%s is not in the golden:\n%s", file, heading, excerpt)
		}
	}
}
