package shellcode

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/simrng"
)

func validSpec() Spec {
	return Spec{
		Protocol:    "ftp",
		Interaction: Pull,
		Port:        21,
		Filename:    "ftpupd.exe",
	}
}

func TestEncodeAnalyzeRoundTrip(t *testing.T) {
	r := simrng.New(1).Stream("sc")
	attacker := netmodel.MustParseIP("198.51.100.77")
	sc, err := Encode(validSpec(), attacker, r)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Protocol != "ftp" || a.Interaction != Pull || a.Port != 21 {
		t.Errorf("action = %+v", a)
	}
	if a.Filename != "ftpupd.exe" {
		t.Errorf("filename = %q", a.Filename)
	}
	if a.Source != attacker {
		t.Errorf("source = %s, want attacker for Pull", a.Source)
	}
}

func TestEncodeCentralUsesRepository(t *testing.T) {
	r := simrng.New(2).Stream("sc")
	repo := netmodel.MustParseIP("203.0.113.10")
	spec := Spec{Protocol: "http", Interaction: Central, Port: 80, Filename: "x.exe", Repository: repo}
	sc, err := Encode(spec, netmodel.MustParseIP("198.51.100.77"), r)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Source != repo {
		t.Errorf("source = %s, want repository %s", a.Source, repo)
	}
}

func TestRandomFilenameVariesPerAttack(t *testing.T) {
	r := simrng.New(3).Stream("sc")
	spec := validSpec()
	spec.RandomFilename = true
	names := map[string]bool{}
	for i := 0; i < 10; i++ {
		sc, err := Encode(spec, 1, r)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Analyze(sc)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(a.Filename, ".exe") || len(a.Filename) != 12 {
			t.Errorf("random filename = %q", a.Filename)
		}
		names[a.Filename] = true
	}
	if len(names) < 8 {
		t.Errorf("only %d distinct random filenames in 10 attacks", len(names))
	}
}

func TestXORKeyVaries(t *testing.T) {
	r := simrng.New(4).Stream("sc")
	a, err := Encode(validSpec(), 1, r)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(validSpec(), 1, r)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Error("two encodings with different keys must differ")
	}
	// Both must still decode to the same action.
	aa, errA := Analyze(a)
	ab, errB := Analyze(b)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if aa != ab {
		t.Errorf("decoded actions differ: %+v vs %+v", aa, ab)
	}
}

func TestAnalyzeFindsStubMidPayload(t *testing.T) {
	r := simrng.New(5).Stream("sc")
	sc, err := Encode(validSpec(), 7, r)
	if err != nil {
		t.Fatal(err)
	}
	nops := bytes.Repeat([]byte{0x90}, 64)
	padded := append(append(append([]byte{}, nops...), sc...), 0xCC, 0xCC)
	a, err := Analyze(padded)
	if err != nil {
		t.Fatal(err)
	}
	if a.Protocol != "ftp" {
		t.Errorf("protocol = %q", a.Protocol)
	}
}

func TestAnalyzeRejects(t *testing.T) {
	r := simrng.New(6).Stream("sc")
	good, err := Encode(validSpec(), 7, r)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":          nil,
		"random":         bytes.Repeat([]byte{0x41}, 100),
		"magic only":     []byte("NPSC"),
		"truncated body": good[:len(good)-4],
	}
	for name, p := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Analyze(p); err == nil {
				t.Error("Analyze accepted malformed payload")
			}
		})
	}
}

func TestSpecValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Spec)
		wantErr bool
	}{
		{"valid", func(s *Spec) {}, false},
		{"bad protocol", func(s *Spec) { s.Protocol = "gopher" }, true},
		{"zero port", func(s *Spec) { s.Port = 0 }, true},
		{"huge port", func(s *Spec) { s.Port = 70000 }, true},
		{"bad interaction", func(s *Spec) { s.Interaction = 0 }, true},
		{"central without repo", func(s *Spec) { s.Interaction = Central; s.Repository = 0 }, true},
		{"central with repo", func(s *Spec) { s.Interaction = Central; s.Repository = 42 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := validSpec()
			tt.mutate(&s)
			if err := s.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestEncodeValidates(t *testing.T) {
	r := simrng.New(7).Stream("sc")
	s := validSpec()
	s.Protocol = "bogus"
	if _, err := Encode(s, 1, r); err == nil {
		t.Error("Encode accepted an invalid spec")
	}
}

func TestInteractionString(t *testing.T) {
	if Push.String() != "PUSH" || Pull.String() != "PULL" || Central.String() != "central" {
		t.Error("Interaction strings wrong")
	}
	if Interaction(9).String() == "" {
		t.Error("unknown interaction must render")
	}
}

func TestOutcomeString(t *testing.T) {
	if DownloadOK.String() != "ok" || DownloadTruncated.String() != "truncated" || DownloadFailed.String() != "failed" {
		t.Error("outcome strings wrong")
	}
	if DownloadOutcome(9).String() == "" {
		t.Error("unknown outcome must render")
	}
}

func BenchmarkEncodeAnalyze(b *testing.B) {
	r := simrng.New(10).Stream("bench")
	spec := validSpec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc, err := Encode(spec, 1, r)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Analyze(sc); err != nil {
			b.Fatal(err)
		}
	}
}
