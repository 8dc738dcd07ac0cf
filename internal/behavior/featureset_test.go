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

// mustIntern interns p and fails the test on a collision.
func mustIntern(t testing.TB, p *Profile) *Set {
	t.Helper()
	s, err := Intern(p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// jaccard is the map-based Jaccard |A∩B| / |A∪B| over two profiles'
// feature strings — the oracle the hash-set Jaccard is held to. Two
// empty profiles have similarity 1.
func jaccard(p, q *Profile) float64 {
	if p.Len() == 0 && q.Len() == 0 {
		return 1
	}
	small, large := p.features, q.features
	if len(small) > len(large) {
		small, large = large, small
	}
	inter := 0
	for f := range small {
		if _, ok := large[f]; ok {
			inter++
		}
	}
	union := len(p.features) + len(q.features) - inter
	return float64(inter) / float64(union)
}

func TestFeatureSetSortedDeduped(t *testing.T) {
	fs := mustIntern(t, profileOf("b", "a", "c", "a", "b")).Hashes()
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
// behind the bcluster hot path: the merge-based Jaccard over interned
// hash sets must agree with the map-based oracle on random profiles,
// including the empty/disjoint/identical corners.
func TestFeatureSetJaccardMatchesProfile(t *testing.T) {
	diff := func(as, bs []string) bool {
		a, b := profileOf(as...), profileOf(bs...)
		return math.Abs(jaccard(a, b)-mustIntern(t, a).Hashes().Jaccard(mustIntern(t, b).Hashes())) < 1e-12
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
		want, got := jaccard(a, b), mustIntern(t, a).Hashes().Jaccard(mustIntern(t, b).Hashes())
		if math.Abs(want-got) > 1e-12 {
			t.Fatalf("trial %d: map Jaccard = %v, FeatureSet.Jaccard = %v", trial, want, got)
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
		got := mustIntern(t, profileOf(c.a...)).Hashes().Jaccard(mustIntern(t, profileOf(c.b...)).Hashes())
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Jaccard(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestProfileSnapshotCaching pins what a profile caches: its interned
// Set, which a second Intern returns without a lookup and Add forgets;
// Features is computed per call, and callers own the copy.
func TestProfileSnapshotCaching(t *testing.T) {
	p := NewProfile()
	p.Add("b")
	p.Add("a")
	f1 := p.Features()
	f1[0] = "mutated"
	if got := p.Features(); got[0] != "a" || got[1] != "b" {
		t.Errorf("caller mutation leaked into the profile: %v", got)
	}
	s1 := mustIntern(t, p)
	if p.interned.Load() != s1 || mustIntern(t, p) != s1 {
		t.Error("a second Intern did not reuse the remembered set")
	}
	p.Add("c")
	if p.interned.Load() != nil {
		t.Error("Add did not forget the interned set")
	}
	if s2 := mustIntern(t, p); s2 == s1 || len(s2.Names()) != 3 || s2.Names()[2] != "c" {
		t.Errorf("Intern after Add = %v, want a new three-feature set", s2.Names())
	}
	// Adding a duplicate must not forget anything.
	s3 := mustIntern(t, p)
	p.Add("c")
	if p.interned.Load() != s3 {
		t.Error("duplicate Add forgot the interned set")
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
