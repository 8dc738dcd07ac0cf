package malgen

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/behavior"
	"repro/internal/sandbox"
	"repro/internal/simrng"
)

// poisonLandscape generates the small landscape with one attacker
// campaign and resolves the families the geometry tests inspect.
func poisonLandscape(t *testing.T) (*Landscape, Config) {
	t.Helper()
	cfg := SmallConfig()
	cfg.Poison.Rate = 0.1
	l, err := Generate(cfg, simrng.New(2010))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return l, cfg
}

func familyByName(t *testing.T, l *Landscape, name string) *Family {
	t.Helper()
	for _, f := range l.Families {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("family %q not generated", name)
	return nil
}

// TestPoisonBridgeGeometry checks the attack's load-bearing property
// empirically: executed inside the campaign window, adjacent bridge
// steps clear the 0.7 clustering threshold, steps two apart fall below
// it (the links are thin), and the chain endpoints reproduce the victim
// profiles exactly.
func TestPoisonBridgeGeometry(t *testing.T) {
	l, cfg := poisonLandscape(t)
	bridge := familyByName(t, l, "poison00-bridge")
	if len(bridge.Variants) != BridgeSteps {
		t.Fatalf("bridge variants = %d, want %d", len(bridge.Variants), BridgeSteps)
	}
	ai, bi := cfg.poisonVictims(0)
	famA := familyByName(t, l, fmt.Sprintf("bot%02d", ai))
	famB := familyByName(t, l, fmt.Sprintf("bot%02d", bi))

	at := bridge.Variants[0].Activity[0].Start.Add(48 * time.Hour)
	sb := sandbox.New(l.Env, 0, simrng.New(7))
	prof := func(p *behavior.Program) *behavior.Profile {
		// Victim programs carry a small fragility; profile geometry is
		// about healthy executions, so strip it.
		clean := *p
		clean.Fragility = 0
		rep := sb.Run(&clean, at, p.Name)
		if rep.Degraded {
			t.Fatalf("degraded run for %s", p.Name)
		}
		return rep.Profile
	}

	victimA := prof(famA.Variants[0].Program)
	victimB := prof(famB.Variants[0].Program)
	if j := jaccard(t, victimA, victimB); j >= 0.7 {
		t.Fatalf("victim profiles overlap too much (J=%.3f): no merge to force", j)
	}
	if victimA.Len() != 6 || victimB.Len() != 6 {
		t.Fatalf("victim profile sizes = %d, %d; want 6 (in-window bot profile)", victimA.Len(), victimB.Len())
	}

	steps := make([]*behavior.Profile, BridgeSteps)
	for k, v := range bridge.Variants {
		steps[k] = prof(v.Program)
	}
	if j := jaccard(t, steps[0], victimA); j != 1 {
		t.Errorf("step 0 vs victim A: J=%.3f, want 1 (anchor)", j)
	}
	if j := jaccard(t, steps[BridgeSteps-1], victimB); j != 1 {
		t.Errorf("last step vs victim B: J=%.3f, want 1 (anchor)", j)
	}
	for k := 0; k+1 < BridgeSteps; k++ {
		if j := jaccard(t, steps[k], steps[k+1]); j < 0.7 {
			t.Errorf("steps %d-%d: J=%.3f, want >= 0.7 (chain link)", k, k+1, j)
		}
	}
	for k := 0; k+2 < BridgeSteps; k++ {
		if j := jaccard(t, steps[k], steps[k+2]); j >= 0.7 {
			t.Errorf("steps %d-%d: J=%.3f, want < 0.7 (thin links only)", k, k+2, j)
		}
	}
}

// TestPoisonDilutionGeometry checks that every dilution variant links
// into the victim cluster (J >= 0.7) without linking to its siblings
// (J < 0.7), the shape the anomaly-gated admission defense detects.
func TestPoisonDilutionGeometry(t *testing.T) {
	l, cfg := poisonLandscape(t)
	dilute := familyByName(t, l, "poison00-dilute")
	if len(dilute.Variants) != DilutionVariants {
		t.Fatalf("dilution variants = %d, want %d", len(dilute.Variants), DilutionVariants)
	}
	ai, _ := cfg.poisonVictims(0)
	famA := familyByName(t, l, fmt.Sprintf("bot%02d", ai))

	at := dilute.Variants[0].Activity[0].Start.Add(48 * time.Hour)
	sb := sandbox.New(l.Env, 0, simrng.New(7))
	prof := func(p *behavior.Program) *behavior.Profile {
		clean := *p
		clean.Fragility = 0
		return sb.Run(&clean, at, p.Name).Profile
	}
	victim := prof(famA.Variants[0].Program)
	profiles := make([]*behavior.Profile, len(dilute.Variants))
	for d, v := range dilute.Variants {
		profiles[d] = prof(v.Program)
		if j := jaccard(t, profiles[d], victim); j < 0.7 || j == 1 {
			t.Errorf("dilution %d vs victim: J=%.3f, want in [0.7, 1)", d, j)
		}
	}
	for i := range profiles {
		for j := i + 1; j < len(profiles); j++ {
			if jac := jaccard(t, profiles[i], profiles[j]); jac >= 0.7 {
				t.Errorf("dilution %d vs %d: J=%.3f, want < 0.7", i, j, jac)
			}
		}
	}
}

// TestPoisonRateZeroInert asserts that the zero-valued poison knob
// changes nothing: the landscape matches a generation that never had the
// knob, family by family, and no attacker families exist.
func TestPoisonRateZeroInert(t *testing.T) {
	base, err := Generate(SmallConfig(), simrng.New(2010))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	cfg := SmallConfig()
	cfg.Poison = PoisonConfig{}
	again, err := Generate(cfg, simrng.New(2010))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(base.Families) != len(again.Families) {
		t.Fatalf("family counts differ: %d vs %d", len(base.Families), len(again.Families))
	}
	for _, f := range again.Families {
		if IsPoisonFamily(f.Name) {
			t.Errorf("rate-zero landscape contains attacker family %s", f.Name)
		}
	}
}

func TestPoisonHelpers(t *testing.T) {
	cases := []struct {
		family, client string
	}{
		{"poison00-bridge", "poison00"},
		{"poison03-dilute", "poison03"},
		{"bot01", ""},
		{"allaple", ""},
	}
	for _, c := range cases {
		if got := PoisonClient(c.family); got != c.client {
			t.Errorf("PoisonClient(%q) = %q, want %q", c.family, got, c.client)
		}
	}
	if !IsPoisonFamily("poison00-bridge") || IsPoisonFamily("bot00") {
		t.Error("IsPoisonFamily misclassifies")
	}
}

// jaccard is the Jaccard similarity of two profiles' interned sets.
func jaccard(t *testing.T, a, b *behavior.Profile) float64 {
	t.Helper()
	sa, err := behavior.Intern(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := behavior.Intern(b)
	if err != nil {
		t.Fatal(err)
	}
	return sa.Hashes().Jaccard(sb.Hashes())
}
