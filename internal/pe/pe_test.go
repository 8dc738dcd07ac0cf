package pe

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/simrng"
)

// testImage builds a representative image resembling the paper's
// M-cluster 13 pattern: three sections plus KERNEL32 imports.
func testImage() *Image {
	return &Image{
		Machine:     MachineI386,
		Subsystem:   SubsystemGUI,
		LinkerMajor: 9,
		LinkerMinor: 2,
		OSMajor:     6,
		OSMinor:     4,
		Sections: []Section{
			{Name: ".text", Data: bytes.Repeat([]byte{0x90}, 4096), Characteristics: SectionCode | SectionExecute | SectionRead},
			{Name: "rdata", Data: bytes.Repeat([]byte{0x11}, 1024), Characteristics: SectionInitializedData | SectionRead},
			{Name: ".data", Data: bytes.Repeat([]byte{0x22}, 2048), Characteristics: SectionInitializedData | SectionRead | SectionWrite},
		},
		Imports: []Import{
			{DLL: "KERNEL32.dll", Symbols: []string{"GetProcAddress", "LoadLibraryA"}},
		},
	}
}

func TestBuildParseRoundTrip(t *testing.T) {
	img := testImage()
	data, err := img.Build()
	if err != nil {
		t.Fatal(err)
	}
	f, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if f.Machine != MachineI386 {
		t.Errorf("machine = %#x", f.Machine)
	}
	if f.LinkerMajor != 9 || f.LinkerMinor != 2 {
		t.Errorf("linker = %d.%d", f.LinkerMajor, f.LinkerMinor)
	}
	if f.OSMajor != 6 || f.OSMinor != 4 {
		t.Errorf("os = %d.%d", f.OSMajor, f.OSMinor)
	}
	if f.Subsystem != SubsystemGUI {
		t.Errorf("subsystem = %d", f.Subsystem)
	}
	wantSections := []string{".text", "rdata", ".data", ".idata"}
	got := f.SectionNames()
	if len(got) != len(wantSections) {
		t.Fatalf("sections = %v, want %v", got, wantSections)
	}
	for i := range got {
		if got[i] != wantSections[i] {
			t.Fatalf("sections = %v, want %v", got, wantSections)
		}
	}
	if len(f.Imports) != 1 || f.Imports[0].DLL != "KERNEL32.dll" {
		t.Fatalf("imports = %+v", f.Imports)
	}
	syms := f.Imports[0].Symbols
	if len(syms) != 2 || syms[0] != "GetProcAddress" || syms[1] != "LoadLibraryA" {
		t.Fatalf("symbols = %v", syms)
	}
	// Section data must round-trip (the polymorphic engines depend on it).
	if !bytes.Equal(f.Sections[0].Data[:4096], img.Sections[0].Data) {
		t.Error("section 0 data mismatch")
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := testImage().Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := testImage().Build()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("Build is not deterministic")
	}
}

func TestBuildMultipleDLLs(t *testing.T) {
	img := testImage()
	img.Imports = append(img.Imports,
		Import{DLL: "WS2_32.dll", Symbols: []string{"socket", "connect", "send", "recv"}},
		Import{DLL: "ADVAPI32.dll", Symbols: []string{"RegSetValueExA"}},
	)
	data, err := img.Build()
	if err != nil {
		t.Fatal(err)
	}
	f, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Imports) != 3 {
		t.Fatalf("imports = %d, want 3", len(f.Imports))
	}
	byDLL := map[string][]string{}
	for _, imp := range f.Imports {
		byDLL[imp.DLL] = imp.Symbols
	}
	if got := byDLL["WS2_32.dll"]; len(got) != 4 {
		t.Errorf("WS2_32 symbols = %v", got)
	}
	if got := byDLL["ADVAPI32.dll"]; len(got) != 1 || got[0] != "RegSetValueExA" {
		t.Errorf("ADVAPI32 symbols = %v", got)
	}
}

func TestValidateErrors(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Image)
	}{
		{"no sections", func(i *Image) { i.Sections = nil }},
		{"long section name", func(i *Image) { i.Sections[0].Name = "muchtoolongname" }},
		{"empty section name", func(i *Image) { i.Sections[0].Name = "" }},
		{"empty section data", func(i *Image) { i.Sections[0].Data = nil }},
		{"reserved idata name", func(i *Image) { i.Sections[0].Name = ".idata" }},
		{"empty dll", func(i *Image) { i.Imports[0].DLL = "" }},
		{"no symbols", func(i *Image) { i.Imports[0].Symbols = nil }},
		{"duplicate dll", func(i *Image) {
			i.Imports = append(i.Imports, Import{DLL: "KERNEL32.dll", Symbols: []string{"ExitProcess"}})
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			img := testImage()
			tt.mutate(img)
			if _, err := img.Build(); err == nil {
				t.Error("Build succeeded, want validation error")
			}
		})
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     nil,
		"too short": []byte("MZ"),
		"not mz":    bytes.Repeat([]byte{0xaa}, 128),
		"text":      []byte(strings.Repeat("hello world ", 30)),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Parse(data); err == nil {
				t.Error("Parse succeeded on garbage")
			}
		})
	}
}

func TestParseTruncated(t *testing.T) {
	data, err := testImage().Build()
	if err != nil {
		t.Fatal(err)
	}
	// Cutting anywhere inside the section data must yield ErrTruncated (the
	// headers survive, the payload does not) — this models the Nepenthes
	// download failures of the paper.
	for _, cut := range []int{len(data) / 2, len(data) - 100, 0x200} {
		if _, err := Parse(data[:cut]); err == nil {
			t.Errorf("Parse(truncated at %d) succeeded", cut)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	img := testImage()
	cl := img.Clone()
	cl.Sections[0].Data[0] = 0xFF
	cl.Imports[0].Symbols[0] = "Mutated"
	if img.Sections[0].Data[0] == 0xFF {
		t.Error("Clone shares section data")
	}
	if img.Imports[0].Symbols[0] == "Mutated" {
		t.Error("Clone shares import symbols")
	}
}

func TestExtractFeatures(t *testing.T) {
	data, err := testImage().Build()
	if err != nil {
		t.Fatal(err)
	}
	ft := ExtractFeatures(data)
	if !ft.IsPE {
		t.Fatal("IsPE = false")
	}
	if ft.MachineType != 332 {
		t.Errorf("machine type = %d, want 332", ft.MachineType)
	}
	if ft.NumSections != 4 {
		t.Errorf("sections = %d, want 4", ft.NumSections)
	}
	if ft.NumImportedDLLs != 1 {
		t.Errorf("dlls = %d, want 1", ft.NumImportedDLLs)
	}
	if ft.LinkerVersion != 92 {
		t.Errorf("linker version = %d, want 92", ft.LinkerVersion)
	}
	if ft.OSVersion != 64 {
		t.Errorf("os version = %d, want 64", ft.OSVersion)
	}
	if ft.Magic != MagicPEGUI {
		t.Errorf("magic = %q", ft.Magic)
	}
	if ft.Kernel32Symbols != "GetProcAddress,LoadLibraryA" {
		t.Errorf("kernel32 symbols = %q", ft.Kernel32Symbols)
	}
	if ft.ImportedDLLs != "KERNEL32.dll" {
		t.Errorf("imported dlls = %q", ft.ImportedDLLs)
	}
	if ft.Size != len(data) {
		t.Errorf("size = %d, want %d", ft.Size, len(data))
	}
	if len(ft.MD5) != 32 {
		t.Errorf("md5 = %q", ft.MD5)
	}
}

func TestExtractFeaturesNonPE(t *testing.T) {
	ft := ExtractFeatures([]byte("definitely not an executable"))
	if ft.IsPE {
		t.Error("IsPE = true for text")
	}
	if ft.Magic != MagicData {
		t.Errorf("magic = %q, want %q", ft.Magic, MagicData)
	}
	if ft.NumSections != 0 || ft.LinkerVersion != 0 {
		t.Error("PE fields must stay zero for non-PE input")
	}
}

func TestExtractFeaturesTruncatedPE(t *testing.T) {
	data, err := testImage().Build()
	if err != nil {
		t.Fatal(err)
	}
	ft := ExtractFeatures(data[:len(data)/2])
	if ft.IsPE {
		t.Error("truncated sample must not be IsPE")
	}
	if ft.Magic != MagicMZ {
		t.Errorf("magic = %q, want %q", ft.Magic, MagicMZ)
	}
}

func TestExtractFeaturesEmpty(t *testing.T) {
	ft := ExtractFeatures(nil)
	if ft.Magic != MagicEmpty || ft.Size != 0 {
		t.Errorf("features = %+v", ft)
	}
}

func TestConsoleSubsystemMagic(t *testing.T) {
	img := testImage()
	img.Subsystem = SubsystemCUI
	data, err := img.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := ExtractFeatures(data).Magic; got != MagicPEConsole {
		t.Errorf("magic = %q, want console", got)
	}
}

// TestRoundTripProperty drives the builder/parser pair with randomized
// images: arbitrary section contents, counts, versions, and import sets
// must all survive the byte round trip.
func TestRoundTripProperty(t *testing.T) {
	r := simrng.New(99).Stream("pe-prop")
	dllPool := []string{"KERNEL32.dll", "WS2_32.dll", "ADVAPI32.dll", "USER32.dll", "WININET.dll"}
	symPool := []string{"GetProcAddress", "LoadLibraryA", "CreateFileA", "WriteFile", "ExitProcess", "socket", "connect", "RegOpenKeyA"}

	for trial := 0; trial < 60; trial++ {
		img := &Image{
			Machine:     MachineI386,
			Subsystem:   SubsystemGUI,
			LinkerMajor: uint8(r.Intn(15)),
			LinkerMinor: uint8(r.Intn(10)),
			OSMajor:     uint16(r.Intn(10)),
			OSMinor:     uint16(r.Intn(10)),
		}
		nSec := 1 + r.Intn(5)
		for i := 0; i < nSec; i++ {
			data := make([]byte, 1+r.Intn(8000))
			r.Read(data)
			img.Sections = append(img.Sections, Section{
				Name:            []string{".text", ".data", ".rsrc", ".reloc", "UPX0", "UPX1"}[i%6],
				Data:            data,
				Characteristics: SectionRead,
			})
		}
		for _, di := range simrng.SampleWithoutReplacement(r, len(dllPool), r.Intn(4)) {
			nSym := 1 + r.Intn(len(symPool))
			syms := make([]string, 0, nSym)
			for _, si := range simrng.SampleWithoutReplacement(r, len(symPool), nSym) {
				syms = append(syms, symPool[si])
			}
			img.Imports = append(img.Imports, Import{DLL: dllPool[di], Symbols: syms})
		}

		raw, err := img.Build()
		if err != nil {
			t.Fatalf("trial %d: Build: %v", trial, err)
		}
		f, err := Parse(raw)
		if err != nil {
			t.Fatalf("trial %d: Parse: %v", trial, err)
		}
		if f.LinkerMajor != img.LinkerMajor || f.LinkerMinor != img.LinkerMinor {
			t.Fatalf("trial %d: linker mismatch", trial)
		}
		wantSec := len(img.Sections)
		if len(img.Imports) > 0 {
			wantSec++
		}
		if len(f.Sections) != wantSec {
			t.Fatalf("trial %d: sections %d, want %d", trial, len(f.Sections), wantSec)
		}
		for i, s := range img.Sections {
			if !bytes.Equal(f.Sections[i].Data[:len(s.Data)], s.Data) {
				t.Fatalf("trial %d: section %d data mismatch", trial, i)
			}
		}
		if len(f.Imports) != len(img.Imports) {
			t.Fatalf("trial %d: imports %d, want %d", trial, len(f.Imports), len(img.Imports))
		}
		for i, imp := range img.Imports {
			if f.Imports[i].DLL != imp.DLL || len(f.Imports[i].Symbols) != len(imp.Symbols) {
				t.Fatalf("trial %d: import %d mismatch: %+v vs %+v", trial, i, f.Imports[i], imp)
			}
		}
	}
}

func TestMD5ChangesWithContent(t *testing.T) {
	f := func(a, b []byte) bool {
		fa, fb := ExtractFeatures(a), ExtractFeatures(b)
		if bytes.Equal(a, b) {
			return fa.MD5 == fb.MD5
		}
		return fa.MD5 != fb.MD5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestImageAccessors(t *testing.T) {
	img := testImage()
	names := img.SectionNames()
	if len(names) != 4 || names[3] != ".idata" {
		t.Errorf("SectionNames = %v", names)
	}
	img.Imports = nil
	if got := len(img.SectionNames()); got != 3 {
		t.Errorf("SectionNames without imports = %d entries", got)
	}
	img = testImage()
	dlls := img.ImportedDLLs()
	if len(dlls) != 1 || dlls[0] != "KERNEL32.dll" {
		t.Errorf("ImportedDLLs = %v", dlls)
	}
}

func BenchmarkBuild(b *testing.B) {
	img := testImage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := img.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	data, err := testImage().Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtractFeatures(b *testing.B) {
	data, err := testImage().Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ExtractFeatures(data)
	}
}
