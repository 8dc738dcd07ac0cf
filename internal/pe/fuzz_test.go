package pe

import (
	"bytes"
	"testing"
)

// FuzzParse drives the PE parser with mutated images: whatever the input,
// the parser must return cleanly (no panics, no out-of-bounds), and any
// successfully parsed file must survive feature extraction.
func FuzzParse(f *testing.F) {
	valid, err := testImage().Build()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:0x200])
	f.Add([]byte("MZ"))
	f.Add([]byte("not a pe at all"))
	f.Add(bytes.Repeat([]byte{0xFF}, 512))
	// A header-corrupted variant.
	corrupt := append([]byte(nil), valid...)
	corrupt[0x3c] = 0xF0
	corrupt[0x3d] = 0xFF
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Parse(data)
		if err != nil {
			return
		}
		// A parse success must yield structurally sane results.
		if file.Size != len(data) {
			t.Fatalf("Size = %d, want %d", file.Size, len(data))
		}
		for _, s := range file.Sections {
			if int(s.RawOffset)+int(s.RawSize) > len(data) {
				t.Fatalf("section %q escapes the image", s.Name)
			}
		}
		// Feature extraction must never panic on parseable input.
		ft := ExtractFeatures(data)
		if !ft.IsPE {
			t.Fatal("Parse succeeded but ExtractFeatures declared non-PE")
		}
	})
}
