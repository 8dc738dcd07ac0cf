package behavior

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"unsafe"
)

// collideA and collideB are two distinct printable strings with one
// FNV-1a 64 hash, found by lattice reduction over the per-byte state
// differences of the hash.
const (
	collideA = "08%5kU>5/eI8iu"
	collideB = "=m%&7Q#*!>>]Tz"
)

func TestInternSharesOneSetPerProfile(t *testing.T) {
	a := profileOf("intern-x", "intern-y", "intern-z")
	// The same features, added in another order from other allocations.
	b := NewProfile()
	for _, f := range []string{"intern-z", "intern-x", "intern-y"} {
		b.Add(string([]byte(f)))
	}
	sa, sb := mustIntern(t, a), mustIntern(t, b)
	if sa != sb {
		t.Fatal("identical profiles interned to two sets")
	}
	names := sa.Names()
	if !slices.IsSorted(names) || len(names) != 3 || cap(names) != len(names) {
		t.Fatalf("names %v (cap %d): want three sorted names, capacity clipped", names, cap(names))
	}
	for i, h := range sa.Hashes() {
		if i > 0 && sa.Hashes()[i-1] >= h {
			t.Fatalf("hashes not strictly ascending: %x", sa.Hashes())
		}
	}
	// Every set holds the dictionary's one copy of a feature string.
	other := mustIntern(t, profileOf(string([]byte("intern-x")), "intern-w"))
	if unsafe.StringData(other.Names()[1]) != unsafe.StringData(names[0]) {
		t.Error("two sets hold two copies of the feature intern-x")
	}

	fromList, err := InternFeatures([]string{"intern-y", "intern-x", "intern-z", "intern-x"})
	if err != nil || fromList != sa {
		t.Fatalf("InternFeatures of the same features (unsorted, duplicated) = %p, %v; want %p", fromList, err, sa)
	}

	empty := mustIntern(t, NewProfile())
	if empty.Names() == nil || len(empty.Names()) != 0 || len(empty.Hashes()) != 0 {
		t.Fatalf("empty set names %#v hashes %v: want an empty, non-nil name list", empty.Names(), empty.Hashes())
	}
	if e2, err := InternFeatures(nil); err != nil || e2 != empty {
		t.Fatalf("InternFeatures(nil) = %p, %v; want the empty set %p", e2, err, empty)
	}
}

func TestInternRefusesCollision(t *testing.T) {
	if collideA == collideB || FeatureHash(collideA) != FeatureHash(collideB) {
		t.Fatalf("premise: %q and %q must be distinct with one hash", collideA, collideB)
	}
	var ce *CollisionError
	// Within one profile.
	if _, err := Intern(profileOf("collide-own", collideA, collideB)); !errors.As(err, &ce) || ce.Hash != FeatureHash(collideA) {
		t.Fatalf("one profile with both strings: %v, want a *CollisionError on %#x", err, FeatureHash(collideA))
	}
	// Against the dictionary: the first string in wins, the second is
	// refused for as long as the process lives.
	if _, err := Intern(profileOf("collide-first", collideA)); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Profile{profileOf("collide-second", collideB), profileOf(collideB)} {
		_, err := Intern(p)
		if !errors.As(err, &ce) || ce.Known != collideA || ce.Feature != collideB {
			t.Fatalf("interning %q after %q: %v, want a *CollisionError naming both", collideB, collideA, err)
		}
		if p.interned.Load() != nil {
			t.Fatal("a refused profile remembered a set")
		}
	}
	if _, err := InternFeatures([]string{collideB}); !errors.As(err, &ce) {
		t.Fatalf("InternFeatures(%q): %v, want a *CollisionError", collideB, err)
	}
}

// TestInternConcurrent interns overlapping profiles from several
// goroutines at once: each distinct feature set must come back as one
// set, whoever interned it first. Run it under -race.
func TestInternConcurrent(t *testing.T) {
	const workers, distinct = 8, 40
	got := make([][]*Set, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < distinct; k++ {
				i := (k + w*7) % distinct
				p := profileOf(fmt.Sprintf("conc-core-%d", i%5), fmt.Sprintf("conc-%d", i))
				s, err := Intern(p)
				if err != nil {
					t.Error(err)
					return
				}
				got[w] = append(got[w], s)
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for k := 0; k < distinct; k++ {
			i := (k + w*7) % distinct
			if got[w][k] != got[0][i] {
				t.Fatalf("worker %d interned set %d to another pointer than worker 0", w, i)
			}
		}
	}
}
