package malgen

import (
	"fmt"
	"testing"

	"repro/internal/behavior"
	"repro/internal/netmodel"
	"repro/internal/pe"
	"repro/internal/polymorph"
	"repro/internal/simrng"
	"repro/internal/simtime"
)

func generate(t *testing.T, cfg Config, seed uint64) *Landscape {
	t.Helper()
	l, err := Generate(cfg, simrng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{"default", func(c *Config) {}, false},
		{"small", func(c *Config) { *c = SmallConfig() }, false},
		{"zero worm variants", func(c *Config) { c.WormVariants = 0 }, true},
		{"bad pop bounds", func(c *Config) { c.WormPopMax = c.WormPopMin - 1 }, true},
		{"tiny pop min", func(c *Config) { c.WormPopMin = 1 }, true},
		{"zero hit rate", func(c *Config) { c.WormHitRate = 0 }, true},
		{"fragility too high", func(c *Config) { c.WormFragility = 1.5 }, true},
		{"per-source too small", func(c *Config) { c.PerSourcePopulation = 1 }, true},
		{"negative bots", func(c *Config) { c.BotFamilies = -1 }, true},
		{"bots without variants", func(c *Config) { c.BotMaxVariants = 0 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := DefaultConfig()
			tt.mutate(&c)
			if err := c.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestGenerateStructure(t *testing.T) {
	cfg := SmallConfig()
	l := generate(t, cfg, 1)

	wantFamilies := 2 + cfg.BotFamilies + cfg.DropperFamilies + cfg.RareFamilies
	if got := len(l.Families); got != wantFamilies {
		t.Fatalf("families = %d, want %d", got, wantFamilies)
	}
	if got := len(l.Vulnerabilities); got != 3 {
		t.Errorf("vulnerabilities = %d, want 3", got)
	}
	if l.Env == nil {
		t.Fatal("environment missing")
	}

	// The worm family is first, with the configured lineage size.
	worm := l.Families[0]
	if worm.Name != WormFamilyName || worm.Class != ClassWorm {
		t.Fatalf("first family = %s (%s)", worm.Name, worm.Class)
	}
	if got := len(worm.Variants); got != cfg.WormVariants {
		t.Errorf("worm variants = %d, want %d", got, cfg.WormVariants)
	}
	// PUSH-based propagation on the well-known port (P-pattern 45).
	if worm.Spec.Port != WormPushPort || worm.Spec.Interaction.String() != "PUSH" {
		t.Errorf("worm spec = %+v", worm.Spec)
	}
}

func TestWormLineageDiversity(t *testing.T) {
	l := generate(t, SmallConfig(), 2)
	worm := l.Families[0]
	sizes := map[int]bool{}
	linkers := map[int]bool{}
	gens := map[string]bool{}
	for _, v := range worm.Variants {
		raw, err := v.Template.Build()
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		ft := pe.ExtractFeatures(raw)
		sizes[ft.Size] = true
		linkers[ft.LinkerVersion] = true
		gens[v.Program.Name] = true
		if v.Population.Distribution != netmodel.Widespread {
			t.Errorf("%s: worm population must be widespread", v.Name)
		}
	}
	if len(sizes) < len(worm.Variants)/2 {
		t.Errorf("only %d distinct sizes for %d variants", len(sizes), len(worm.Variants))
	}
	if len(linkers) < 2 {
		t.Errorf("lineage has no recompilations (linkers = %v)", linkers)
	}
	if len(gens) != 2 {
		t.Errorf("worm behaviour generations = %v, want exactly 2", gens)
	}
}

func TestPerSourceFamilyMatchesPaperPattern(t *testing.T) {
	l := generate(t, SmallConfig(), 3)
	fam := l.Families[1]
	if fam.Name != PerSourceFamilyName {
		t.Fatalf("second family = %s", fam.Name)
	}
	// Shares the worm's propagation vector.
	worm := l.Families[0]
	if fam.Impl != worm.Impl {
		t.Error("per-source family must share the worm's exploit implementation")
	}
	if fam.Spec != worm.Spec {
		t.Error("per-source family must share the worm's shellcode spec")
	}
	v := fam.Variants[0]
	if _, ok := v.Engine.(polymorph.PerSource); !ok {
		t.Errorf("engine = %T, want PerSource", v.Engine)
	}
	raw, err := v.Template.Build()
	if err != nil {
		t.Fatal(err)
	}
	ft := pe.ExtractFeatures(raw)
	if ft.LinkerVersion != 92 || ft.OSVersion != 64 {
		t.Errorf("linker/os = %d/%d, want 92/64", ft.LinkerVersion, ft.OSVersion)
	}
	if ft.Kernel32Symbols != "GetProcAddress,LoadLibraryA" {
		t.Errorf("kernel32 = %q", ft.Kernel32Symbols)
	}
	if ft.NumImportedDLLs != 1 {
		t.Errorf("dlls = %d, want 1", ft.NumImportedDLLs)
	}
	// Its distribution site must be alive early and dead late.
	if _, ok := l.Env.ResolveDNS(PerSourceDomain, simtime.WeekStart(5)); !ok {
		t.Error("iliketay.cn must resolve early in the study")
	}
	if _, ok := l.Env.ResolveDNS(PerSourceDomain, simtime.WeekStart(70)); ok {
		t.Error("iliketay.cn must be removed late in the study")
	}
	// Component two dies before component one.
	if _, ok := l.Env.HTTPFetch(PerSourceDomain, "/two.exe", simtime.WeekStart(40)); ok {
		t.Error("/two.exe must be gone by week 40")
	}
	if _, ok := l.Env.HTTPFetch(PerSourceDomain, "/one.exe", simtime.WeekStart(40)); !ok {
		t.Error("/one.exe must still be served at week 40")
	}
}

func TestBotFamiliesHaveChannels(t *testing.T) {
	cfg := SmallConfig()
	l := generate(t, cfg, 4)
	bots := 0
	for _, f := range l.Families {
		if f.Class != ClassBot {
			continue
		}
		bots++
		if len(f.Variants) < 1 {
			t.Errorf("%s has no variants", f.Name)
		}
		for _, v := range f.Variants {
			if v.Population.Distribution != netmodel.Localized {
				t.Errorf("%s: bot population must be localized", v.Name)
			}
			if len(v.Activity) < 2 {
				t.Errorf("%s: bot activity must be bursty, got %d windows", v.Name, len(v.Activity))
			}
			if spread := v.Population.Slash24Spread(); spread > 3 {
				t.Errorf("%s: population spans %d /24s", v.Name, spread)
			}
		}
	}
	if bots != cfg.BotFamilies {
		t.Errorf("bot families = %d, want %d", bots, cfg.BotFamilies)
	}
	// Channel ground truth covers every bot variant plus the per-source
	// family's channel.
	covered := map[string]bool{}
	for _, ch := range l.Channels {
		for _, v := range ch.Variants {
			covered[v] = true
		}
	}
	for _, f := range l.Families {
		if f.Class != ClassBot {
			continue
		}
		for _, v := range f.Variants {
			if !covered[v.Name] {
				t.Errorf("variant %s missing from channel truth", v.Name)
			}
		}
	}
}

func TestChannelServersShareSlash24(t *testing.T) {
	l := generate(t, DefaultConfig(), 5)
	nets := map[netmodel.IP]int{}
	for _, ch := range l.Channels {
		nets[ch.Server.Slash24().Base]++
	}
	shared := 0
	for _, n := range nets {
		if n >= 2 {
			shared++
		}
	}
	if shared == 0 {
		t.Error("no /24 hosts multiple C&C channels; Table 2 needs shared subnets")
	}
}

func TestVariantLookup(t *testing.T) {
	l := generate(t, SmallConfig(), 6)
	all := l.Variants()
	if len(all) == 0 {
		t.Fatal("no variants")
	}
	for _, v := range all {
		if got := l.Variant(v.Name); got != v {
			t.Fatalf("Variant(%q) = %p, want %p", v.Name, got, v)
		}
	}
	if l.Variant("nope") != nil {
		t.Error("unknown variant must be nil")
	}
}

// validateProgram checks the structural constraints that every behavior
// program the generator emits must meet.
func validateProgram(p *behavior.Program) error {
	if p == nil {
		return fmt.Errorf("behavior: nil program")
	}
	if p.Fragility < 0 || p.Fragility > 1 {
		return fmt.Errorf("behavior: %s fragility %v outside [0,1]", p.Name, p.Fragility)
	}
	for i, op := range p.Ops {
		if op.Kind < behavior.OpCreateFile || op.Kind > behavior.OpSleep {
			return fmt.Errorf("behavior: %s op %d has invalid kind %d", p.Name, i, op.Kind)
		}
		if op.OnFailSkip < 0 {
			return fmt.Errorf("behavior: %s op %d has negative OnFailSkip", p.Name, i)
		}
		if op.OnFailSkip > len(p.Ops)-i-1 {
			return fmt.Errorf("behavior: %s op %d skips %d ops but only %d follow",
				p.Name, i, op.OnFailSkip, len(p.Ops)-i-1)
		}
		if op.Payload != nil {
			if err := validateProgram(op.Payload); err != nil {
				return fmt.Errorf("behavior: %s op %d payload: %w", p.Name, i, err)
			}
		}
	}
	return nil
}

func sampleProgram() *behavior.Program {
	return &behavior.Program{
		Name: "test-bot",
		Ops: []behavior.Op{
			{Kind: behavior.OpCreateFile, Path: `C:\WINDOWS\system32\svhost.exe`},
			{Kind: behavior.OpSetRegistry, Path: `HKLM\Software\Microsoft\Windows\CurrentVersion\Run\svhost`},
			{Kind: behavior.OpDNSResolve, Host: "cnc.example.net", OnFailSkip: 2},
			{Kind: behavior.OpTCPConnect, Host: "cnc.example.net", Port: 6667, OnFailSkip: 1},
			{Kind: behavior.OpIRCConnect, Host: "cnc.example.net", Port: 6667, Channel: "#kok6",
				Payload: &behavior.Program{Name: "commands", Ops: []behavior.Op{
					{Kind: behavior.OpScanNetwork, Port: 445},
				}}},
		},
	}
}

func TestValidateProgramAccepts(t *testing.T) {
	if err := validateProgram(sampleProgram()); err != nil {
		t.Fatal(err)
	}
}

func TestValidateProgramRejects(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*behavior.Program)
	}{
		{"nil program", nil},
		{"bad kind", func(p *behavior.Program) { p.Ops[0].Kind = 0 }},
		{"kind too large", func(p *behavior.Program) { p.Ops[0].Kind = behavior.OpSleep + 1 }},
		{"negative skip", func(p *behavior.Program) { p.Ops[0].OnFailSkip = -1 }},
		{"skip past end", func(p *behavior.Program) { p.Ops[len(p.Ops)-1].OnFailSkip = 1 }},
		{"invalid payload", func(p *behavior.Program) { p.Ops[4].Payload.Ops[0].Kind = 99 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.mutate == nil {
				if err := validateProgram(nil); err == nil {
					t.Error("nil program must fail validation")
				}
				return
			}
			p := sampleProgram()
			tt.mutate(p)
			if err := validateProgram(p); err == nil {
				t.Error("validateProgram accepted an invalid program")
			}
		})
	}
}

func TestAllProgramsValidate(t *testing.T) {
	l := generate(t, SmallConfig(), 7)
	for _, v := range l.Variants() {
		if err := validateProgram(v.Program); err != nil {
			t.Errorf("%s: %v", v.Name, err)
		}
		if _, err := v.Template.Build(); err != nil {
			t.Errorf("%s: template: %v", v.Name, err)
		}
		if err := findFamily(l, v.FamilyName).Spec.Validate(); err != nil {
			t.Errorf("%s: spec: %v", v.Name, err)
		}
		if len(v.Activity) == 0 {
			t.Errorf("%s: no activity windows", v.Name)
		}
		for _, w := range v.Activity {
			if !w.End.After(w.Start) {
				t.Errorf("%s: empty window %+v", v.Name, w)
			}
		}
		if v.WeeklyRate <= 0 {
			t.Errorf("%s: non-positive rate", v.Name)
		}
	}
}

func findFamily(l *Landscape, name string) *Family {
	for _, f := range l.Families {
		if f.Name == name {
			return f
		}
	}
	return nil
}

func TestGenerateDeterminism(t *testing.T) {
	a := generate(t, SmallConfig(), 42)
	b := generate(t, SmallConfig(), 42)
	va, vb := a.Variants(), b.Variants()
	if len(va) != len(vb) {
		t.Fatalf("variant counts differ: %d vs %d", len(va), len(vb))
	}
	for i := range va {
		if va[i].Name != vb[i].Name {
			t.Fatalf("variant %d name differs: %s vs %s", i, va[i].Name, vb[i].Name)
		}
		ra, err := va[i].Template.Build()
		if err != nil {
			t.Fatal(err)
		}
		rb, err := vb[i].Template.Build()
		if err != nil {
			t.Fatal(err)
		}
		if pe.ExtractFeatures(ra).MD5 != pe.ExtractFeatures(rb).MD5 {
			t.Fatalf("variant %s template differs across runs", va[i].Name)
		}
		if len(va[i].Population.Hosts) != len(vb[i].Population.Hosts) {
			t.Fatalf("variant %s population differs", va[i].Name)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := generate(t, SmallConfig(), 1)
	b := generate(t, SmallConfig(), 2)
	ra, _ := a.Families[0].Variants[0].Template.Build()
	rb, _ := b.Families[0].Variants[0].Template.Build()
	if pe.ExtractFeatures(ra).MD5 == pe.ExtractFeatures(rb).MD5 {
		t.Error("different seeds produced identical worm templates")
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		ClassWorm: "worm", ClassBot: "bot", ClassDropper: "dropper", ClassRare: "rare",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q", int(c), c.String())
		}
	}
	if Class(99).String() == "" {
		t.Error("unknown class must render")
	}
}
