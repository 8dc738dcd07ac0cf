package behavior

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFeatureHashMatchesFNV(t *testing.T) {
	for _, s := range []string{"", "a", "irc|1.2.3.4:6667|#kok6", "file-create|C:\\x.exe"} {
		h := fnv.New64a()
		_, _ = h.Write([]byte(s))
		if got, want := FeatureHash(s), h.Sum64(); got != want {
			t.Errorf("FeatureHash(%q) = %#x, want FNV-1a %#x", s, got, want)
		}
	}
}

func profileOf(features ...string) *Profile {
	p := NewProfile()
	for _, f := range features {
		p.Add(f)
	}
	return p
}

func TestFeatureSetSortedDeduped(t *testing.T) {
	fs := profileOf("b", "a", "c", "a", "b").FeatureSet()
	if len(fs) != 3 {
		t.Fatalf("len = %d, want 3 (deduplicated)", len(fs))
	}
	for i := 1; i < len(fs); i++ {
		if fs[i-1] >= fs[i] {
			t.Fatalf("not strictly sorted at %d: %v", i, fs)
		}
	}
}

// TestFeatureSetJaccardMatchesProfile is the differential property test
// behind the bcluster hot-path swap: the merge-based Jaccard over
// interned hash sets must agree with the map-based Profile.Jaccard on
// random profiles, including the empty/disjoint/identical corners.
func TestFeatureSetJaccardMatchesProfile(t *testing.T) {
	diff := func(as, bs []string) bool {
		a, b := profileOf(as...), profileOf(bs...)
		return math.Abs(a.Jaccard(b)-a.FeatureSet().Jaccard(b.FeatureSet())) < 1e-12
	}
	if err := quick.Check(diff, nil); err != nil {
		t.Error(err)
	}

	// Structured random profiles with heavy overlap, where the merge path
	// actually exercises interleaved runs rather than disjoint ranges.
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		a, b := NewProfile(), NewProfile()
		for k := 0; k < r.Intn(40); k++ {
			f := fmt.Sprintf("shared-%d", r.Intn(30))
			a.Add(f)
			b.Add(f)
		}
		for k := 0; k < r.Intn(10); k++ {
			a.Add(fmt.Sprintf("a-%d", r.Intn(20)))
		}
		for k := 0; k < r.Intn(10); k++ {
			b.Add(fmt.Sprintf("b-%d", r.Intn(20)))
		}
		want, got := a.Jaccard(b), a.FeatureSet().Jaccard(b.FeatureSet())
		if math.Abs(want-got) > 1e-12 {
			t.Fatalf("trial %d: Profile.Jaccard = %v, FeatureSet.Jaccard = %v", trial, want, got)
		}
	}

	// Explicit corners.
	cases := []struct {
		a, b []string
		want float64
	}{
		{nil, nil, 1},
		{[]string{"x"}, nil, 0},
		{[]string{"x"}, []string{"y"}, 0},
		{[]string{"x", "y"}, []string{"x", "y"}, 1},
	}
	for _, c := range cases {
		got := profileOf(c.a...).FeatureSet().Jaccard(profileOf(c.b...).FeatureSet())
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Jaccard(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestProfileSnapshotCaching pins the built-once contract: the sorted
// snapshot and the feature set are cached, callers own the Features
// copy, and Add invalidates both caches.
func TestProfileSnapshotCaching(t *testing.T) {
	p := NewProfile()
	p.Add("b")
	p.Add("a")
	f1 := p.Features()
	f1[0] = "mutated"
	if got := p.Features(); got[0] != "a" || got[1] != "b" {
		t.Errorf("caller mutation leaked into cached snapshot: %v", got)
	}
	s1 := p.FeatureSet()
	p.Add("c")
	if got := p.Features(); len(got) != 3 || got[2] != "c" {
		t.Errorf("Add did not invalidate sorted snapshot: %v", got)
	}
	if s2 := p.FeatureSet(); len(s2) != 3 {
		t.Errorf("Add did not invalidate feature set: %v (old %v)", s2, s1)
	}
	// Adding a duplicate must not invalidate (and must not grow) anything.
	p.Add("c")
	if got := p.FeatureSet(); len(got) != 3 {
		t.Errorf("duplicate Add changed feature set: %v", got)
	}
}

func TestParseIRCFeatureRejectsMalformedPorts(t *testing.T) {
	bad := []string{
		"irc|1.2.3.4:6667x|#room",                 // trailing garbage, silently accepted by Sscanf
		"irc|1.2.3.4:66 67|#room",                 // embedded space
		"irc|1.2.3.4:+6667|#room",                 // explicit sign is not a port
		"irc|1.2.3.4:-1|#room",                    // negative
		"irc|1.2.3.4:65536|#room",                 // above the port range
		"irc|1.2.3.4:999999999999999999999|#room", // overflow
		"irc|1.2.3.4:|#room",                      // empty port
	}
	for _, f := range bad {
		if _, port, _, ok := ParseIRCFeature(f); ok {
			t.Errorf("ParseIRCFeature(%q) accepted with port %d", f, port)
		}
	}
	if server, port, room, ok := ParseIRCFeature("irc|h:65535|#r"); !ok || server != "h" || port != 65535 || room != "#r" {
		t.Errorf("ParseIRCFeature rejected the top of the port range: %q %d %q %v", server, port, room, ok)
	}
}
