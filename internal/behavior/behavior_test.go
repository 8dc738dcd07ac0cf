package behavior

import (
	"math"
	"testing"
	"testing/quick"
)

func TestProfileBasics(t *testing.T) {
	p := NewProfile()
	if p.Len() != 0 {
		t.Fatal("new profile not empty")
	}
	p.Add("b")
	p.Add("a")
	p.Add("a") // duplicate
	if p.Len() != 2 {
		t.Fatalf("Len = %d, want 2", p.Len())
	}
	got := p.Features()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Features = %v, want sorted [a b]", got)
	}
}

func TestJaccard(t *testing.T) {
	mk := func(fs ...string) *Profile {
		p := NewProfile()
		for _, f := range fs {
			p.Add(f)
		}
		return p
	}
	tests := []struct {
		name string
		a, b *Profile
		want float64
	}{
		{"identical", mk("x", "y"), mk("x", "y"), 1},
		{"disjoint", mk("x"), mk("y"), 0},
		{"half", mk("x", "y"), mk("y", "z"), 1.0 / 3},
		{"both empty", mk(), mk(), 1},
		{"one empty", mk("x"), mk(), 0},
		{"subset", mk("x", "y", "z", "w"), mk("x", "y"), 0.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := mustIntern(t, tt.a).Hashes().Jaccard(mustIntern(t, tt.b).Hashes()); math.Abs(got-tt.want) > 1e-9 {
				t.Errorf("Jaccard = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestJaccardProperties(t *testing.T) {
	mk := func(fs []string) *Profile {
		p := NewProfile()
		for _, f := range fs {
			p.Add(f)
		}
		return p
	}
	// Symmetry and range.
	f := func(as, bs []string) bool {
		a, b := mustIntern(t, mk(as)).Hashes(), mustIntern(t, mk(bs)).Hashes()
		ab, ba := a.Jaccard(b), b.Jaccard(a)
		return ab == ba && ab >= 0 && ab <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Self-similarity is 1.
	g := func(as []string) bool {
		a := mustIntern(t, mk(as)).Hashes()
		return a.Jaccard(a) == 1
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestOpKindString(t *testing.T) {
	if OpCreateFile.String() != "file-create" {
		t.Errorf("OpCreateFile = %q", OpCreateFile.String())
	}
	if OpIRCConnect.String() != "irc-connect" {
		t.Errorf("OpIRCConnect = %q", OpIRCConnect.String())
	}
	if OpKind(99).String() != "OpKind(99)" {
		t.Errorf("unknown kind = %q", OpKind(99).String())
	}
}

func TestFeatureConstructors(t *testing.T) {
	if got := FeatureOp(OpCreateMutex, "jhdheruk"); got != "mutex-create|jhdheruk" {
		t.Errorf("FeatureOp = %q", got)
	}
	if got := FeatureNet(OpDNSResolve, "iliketay.cn", false); got != "dns-resolve|iliketay.cn|fail" {
		t.Errorf("FeatureNet = %q", got)
	}
	if got := FeatureNet(OpTCPConnect, "1.2.3.4:80", true); got != "tcp-connect|1.2.3.4:80|ok" {
		t.Errorf("FeatureNet ok = %q", got)
	}
}

func TestIRCFeatureRoundTrip(t *testing.T) {
	f := FeatureIRC("67.43.232.36", 6667, "#kok6")
	server, port, room, ok := ParseIRCFeature(f)
	if !ok || server != "67.43.232.36" || port != 6667 || room != "#kok6" {
		t.Errorf("ParseIRCFeature(%q) = %q %d %q %v", f, server, port, room, ok)
	}
}

func TestParseIRCFeatureRejects(t *testing.T) {
	bad := []string{
		"file-create|x",
		"irc|noport|#room",
		"irc|1.2.3.4:0|#room",
		"irc|1.2.3.4:abc|#room",
		"irc|1.2.3.4:6667",
		"",
	}
	for _, f := range bad {
		if _, _, _, ok := ParseIRCFeature(f); ok {
			t.Errorf("ParseIRCFeature(%q) accepted", f)
		}
	}
}
