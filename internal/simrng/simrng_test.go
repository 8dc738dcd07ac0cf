package simrng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStreamDeterminism(t *testing.T) {
	s := New(42)
	a := s.Stream("alpha")
	b := s.Stream("alpha")
	for i := 0; i < 100; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: streams diverged: %d != %d", i, got, want)
		}
	}
}

func TestStreamIndependence(t *testing.T) {
	s := New(42)
	a := s.Stream("alpha")
	b := s.Stream("beta")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams alpha and beta collided %d/64 times", same)
	}
}

func TestChildNamespaces(t *testing.T) {
	root := New(7)
	c1 := root.Child("sgnet").Stream("events")
	c2 := root.Child("sandbox").Stream("events")
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("same stream name under different children must differ")
	}

	// A child is itself deterministic.
	x := root.Child("sgnet").Stream("events").Uint64()
	y := root.Child("sgnet").Stream("events").Uint64()
	if x != y {
		t.Fatalf("child streams not reproducible: %d != %d", x, y)
	}
}

func TestDeriveSeedSeparatesSimilarNames(t *testing.T) {
	seen := make(map[uint64]string)
	names := []string{"a", "b", "aa", "ab", "ba", "a/b", "b/a", "", "a a", "a  a"}
	for _, n := range names {
		sd := deriveSeed(1, n)
		if prev, ok := seen[sd]; ok {
			t.Fatalf("seed collision between %q and %q", prev, n)
		}
		seen[sd] = n
	}
}

func TestPick(t *testing.T) {
	r := New(1).Stream("pick")
	items := []string{"x", "y", "z"}
	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		counts[Pick(r, items)]++
	}
	for _, it := range items {
		if counts[it] < 800 || counts[it] > 1200 {
			t.Errorf("Pick is not roughly uniform: %v", counts)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(9).Stream("poisson")
	for _, mean := range []float64{0.5, 4, 60} {
		var sum int
		const n = 5000
		for i := 0; i < n; i++ {
			sum += Poisson(r, mean)
		}
		got := float64(sum) / n
		if math.Abs(got-mean) > 0.15*mean+0.1 {
			t.Errorf("Poisson(%v): empirical mean %.3f too far off", mean, got)
		}
	}
}

func TestPoissonEdgeCases(t *testing.T) {
	r := New(9).Stream("poisson-edge")
	if got := Poisson(r, 0); got != 0 {
		t.Errorf("Poisson(0) = %d, want 0", got)
	}
	if got := Poisson(r, -3); got != 0 {
		t.Errorf("Poisson(-3) = %d, want 0", got)
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := New(3).Stream("sample")
	got := SampleWithoutReplacement(r, 100, 10)
	if len(got) != 10 {
		t.Fatalf("len = %d, want 10", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if v < 0 || v >= 100 {
			t.Fatalf("value %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate value %d", v)
		}
		seen[v] = true
	}
}

func TestSampleWithoutReplacementFull(t *testing.T) {
	r := New(3).Stream("sample-full")
	got := SampleWithoutReplacement(r, 5, 9)
	if len(got) != 5 {
		t.Fatalf("len = %d, want 5 (full permutation)", len(got))
	}
}

func TestSampleWithoutReplacementProperty(t *testing.T) {
	r := New(11).Stream("sample-prop")
	f := func(n8, k8 uint8) bool {
		n := int(n8%200) + 1
		k := int(k8) % (n + 3)
		got := SampleWithoutReplacement(r, n, k)
		want := k
		if want > n {
			want = n
		}
		if len(got) != want {
			return false
		}
		seen := make(map[int]bool, len(got))
		for _, v := range got {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitmix64NotIdentity(t *testing.T) {
	f := func(x uint64) bool {
		y := splitmix64(x)
		return y != x || x == 0x61c8864680b583eb // the single fixed point family is astronomically unlikely; accept equality only if mixing round-trips
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSourceSeed(t *testing.T) {
	if got := New(42).Seed(); got != 42 {
		t.Errorf("Seed = %d, want 42", got)
	}
}
