package polymorph

import (
	"bytes"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/pe"
	"repro/internal/simrng"
)

func template() *pe.Image {
	return &pe.Image{
		Machine:     pe.MachineI386,
		Subsystem:   pe.SubsystemGUI,
		LinkerMajor: 9,
		LinkerMinor: 2,
		OSMajor:     6,
		OSMinor:     4,
		Sections: []pe.Section{
			{Name: ".text", Data: bytes.Repeat([]byte{0x90}, 8192), Characteristics: pe.SectionCode | pe.SectionExecute | pe.SectionRead},
			{Name: ".data", Data: bytes.Repeat([]byte{0x22}, 4096), Characteristics: pe.SectionInitializedData | pe.SectionRead | pe.SectionWrite},
		},
		Imports: []pe.Import{
			{DLL: "KERNEL32.dll", Symbols: []string{"GetProcAddress", "LoadLibraryA"}},
		},
	}
}

func mustMutate(t *testing.T, e Engine, img *pe.Image, ctx Context) []byte {
	t.Helper()
	data, err := e.Mutate(img, ctx)
	if err != nil {
		t.Fatalf("%s.Mutate: %v", e.Name(), err)
	}
	return data
}

func TestNoneIsStable(t *testing.T) {
	img := template()
	e := None{}
	a := mustMutate(t, e, img, Context{Source: 1, Instance: 1})
	b := mustMutate(t, e, img, Context{Source: 2, Instance: 99})
	if !bytes.Equal(a, b) {
		t.Error("None engine must produce identical bytes for all instances")
	}
}

func TestAllapleMutatesEveryInstance(t *testing.T) {
	img := template()
	e := Allaple{Seed: 5}
	a := mustMutate(t, e, img, Context{Source: 1, Instance: 1})
	b := mustMutate(t, e, img, Context{Source: 1, Instance: 2})
	if bytes.Equal(a, b) {
		t.Error("Allaple must mutate between instances")
	}
	fa, fb := pe.ExtractFeatures(a), pe.ExtractFeatures(b)
	if fa.MD5 == fb.MD5 {
		t.Error("MD5 must differ between instances")
	}
	// All header invariants must be preserved (the paper's key observation).
	if fa.Size != fb.Size {
		t.Errorf("size changed: %d -> %d", fa.Size, fb.Size)
	}
	if fa.SectionNames != fb.SectionNames {
		t.Errorf("section names changed: %q -> %q", fa.SectionNames, fb.SectionNames)
	}
	if fa.LinkerVersion != fb.LinkerVersion || fa.NumSections != fb.NumSections {
		t.Error("header facts changed under Allaple mutation")
	}
	if fa.Kernel32Symbols != fb.Kernel32Symbols {
		t.Error("import table changed under Allaple mutation")
	}
	if fa.Magic != pe.MagicPEGUI || fb.Magic != pe.MagicPEGUI {
		t.Errorf("magic broke: %q / %q", fa.Magic, fb.Magic)
	}
}

func TestAllapleDeterministicPerInstance(t *testing.T) {
	img := template()
	e := Allaple{Seed: 5}
	ctx := Context{Source: 42, Instance: 17}
	a := mustMutate(t, e, img, ctx)
	b := mustMutate(t, e, img, ctx)
	if !bytes.Equal(a, b) {
		t.Error("same (engine, template, context) must reproduce identical bytes")
	}
}

func TestPerSourceKeysOnAttacker(t *testing.T) {
	img := template()
	e := PerSource{Seed: 9}
	src := netmodel.MustParseIP("203.0.113.7")
	other := netmodel.MustParseIP("198.51.100.3")

	a1 := mustMutate(t, e, img, Context{Source: src, Instance: 1})
	a2 := mustMutate(t, e, img, Context{Source: src, Instance: 2})
	b1 := mustMutate(t, e, img, Context{Source: other, Instance: 3})

	if !bytes.Equal(a1, a2) {
		t.Error("same source must ship identical bytes across instances")
	}
	if bytes.Equal(a1, b1) {
		t.Error("different sources must ship different bytes")
	}
	fa, fb := pe.ExtractFeatures(a1), pe.ExtractFeatures(b1)
	if fa.MD5 == fb.MD5 {
		t.Error("different sources must yield different MD5s")
	}
	if fa.Size != fb.Size || fa.SectionNames != fb.SectionNames {
		t.Error("per-source engine must preserve size and section names")
	}
}

func TestEnginesDifferAcrossSeeds(t *testing.T) {
	img := template()
	ctx := Context{Source: 1, Instance: 1}
	a := mustMutate(t, Allaple{Seed: 1}, img, ctx)
	b := mustMutate(t, Allaple{Seed: 2}, img, ctx)
	if bytes.Equal(a, b) {
		t.Error("different family seeds must decorrelate mutations")
	}
}

func TestMutateDoesNotTouchTemplate(t *testing.T) {
	img := template()
	orig := append([]byte(nil), img.Sections[0].Data...)
	if _, err := (Allaple{Seed: 3}).Mutate(img, Context{Instance: 1}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img.Sections[0].Data, orig) {
		t.Error("Mutate must not modify the template in place")
	}
}

func TestPatchChangesSizeOnly(t *testing.T) {
	r := simrng.New(1).Stream("patch")
	parent := template()
	parentRaw, err := parent.Build()
	if err != nil {
		t.Fatal(err)
	}
	pf := pe.ExtractFeatures(parentRaw)
	for i := 0; i < 20; i++ {
		child := Patch(parent, r)
		raw, err := child.Build()
		if err != nil {
			t.Fatal(err)
		}
		cf := pe.ExtractFeatures(raw)
		if cf.Size == pf.Size {
			t.Errorf("trial %d: Patch did not change file size", i)
		}
		if cf.SectionNames != pf.SectionNames {
			t.Errorf("trial %d: Patch changed section names", i)
		}
		if cf.LinkerVersion != pf.LinkerVersion {
			t.Errorf("trial %d: Patch changed linker version", i)
		}
	}
}

func TestRecompileChangesLinker(t *testing.T) {
	r := simrng.New(2).Stream("recompile")
	parent := template()
	for i := 0; i < 20; i++ {
		child := Recompile(parent, r)
		if child.LinkerMajor == parent.LinkerMajor && child.LinkerMinor == parent.LinkerMinor {
			t.Fatalf("trial %d: Recompile kept linker version %d.%d", i, child.LinkerMajor, child.LinkerMinor)
		}
		if _, err := child.Build(); err != nil {
			t.Fatalf("trial %d: recompiled image invalid: %v", i, err)
		}
	}
}

// symbolsOf returns the symbols img imports from dll, or nil.
func symbolsOf(img *pe.Image, dll string) []string {
	for _, imp := range img.Imports {
		if imp.DLL == dll {
			return imp.Symbols
		}
	}
	return nil
}

func TestAddImport(t *testing.T) {
	r := simrng.New(4).Stream("addimport")
	op := AddImport("KERNEL32.dll", "CreateMutexA")
	child := op(template(), r)
	syms := symbolsOf(child, "KERNEL32.dll")
	if len(syms) != 3 {
		t.Fatalf("symbols = %v", syms)
	}
	// Idempotent: adding the same symbol twice is a no-op.
	child2 := op(child, r)
	if got := len(symbolsOf(child2, "KERNEL32.dll")); got != 3 {
		t.Errorf("second AddImport grew symbols to %d", got)
	}
	// New DLL path.
	child3 := AddImport("WS2_32.dll", "socket")(template(), r)
	if got := symbolsOf(child3, "WS2_32.dll"); len(got) != 1 || got[0] != "socket" {
		t.Errorf("new dll symbols = %v", got)
	}
}

func BenchmarkAllapleMutate(b *testing.B) {
	img := template()
	e := Allaple{Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Mutate(img, Context{Instance: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
