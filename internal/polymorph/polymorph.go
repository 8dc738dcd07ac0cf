// Package polymorph implements the polymorphic engines and variant
// derivation operators observed in the paper's corpus.
//
// Two distinct kinds of mutation matter for the reproduction:
//
//   - Per-instance engines mutate the bytes of a sample at every
//     propagation attempt. The paper observes two sophistication levels:
//     Allaple-class engines randomize code/data content at each attack
//     while preserving the file size and all PE header structure, and a
//     subtler per-source engine (M-cluster 13) whose output depends on the
//     attacker's IP address — the same attacker always ships the same MD5.
//
//   - Variant operators derive a new codebase from a parent: patches
//     (content and size changes), recompilation (linker version changes),
//     and repacking (section layout changes). These create new M-clusters
//     in the EPM space while typically preserving behaviour.
package polymorph

import (
	"math/rand"

	"repro/internal/netmodel"
	"repro/internal/pe"
	"repro/internal/simrng"
)

// Context carries the attack-instance facts an engine may key on.
type Context struct {
	// Source is the attacking host shipping this instance.
	Source netmodel.IP
	// Instance is a unique, monotonically increasing attack identifier.
	Instance uint64
}

// Engine mutates a family template into the concrete bytes shipped during
// one code-injection attack.
type Engine interface {
	// Name identifies the engine in ground-truth records.
	Name() string
	// Mutate produces the instance bytes for the given template and attack
	// context. Implementations must be deterministic functions of
	// (template, context, own seed).
	Mutate(template *pe.Image, ctx Context) ([]byte, error)
}

// Compile-time interface compliance checks.
var (
	_ Engine = (*None)(nil)
	_ Engine = (*Allaple)(nil)
	_ Engine = (*PerSource)(nil)
)

// None ships the template unchanged: every instance has the same MD5,
// which EPM then discovers as an invariant feature.
type None struct{}

// Name implements Engine.
func (None) Name() string { return "none" }

// Mutate implements Engine.
func (None) Mutate(template *pe.Image, _ Context) ([]byte, error) {
	return template.Build()
}

// Allaple models the Allaple/Rahack-class engine: every instance gets
// fresh section content of identical size, leaving every PE header fact
// (machine, versions, section names and counts, imports) invariant.
type Allaple struct {
	// Seed decorrelates engines of different families.
	Seed uint64
}

// Name implements Engine.
func (Allaple) Name() string { return "allaple" }

// Mutate implements Engine.
func (a Allaple) Mutate(template *pe.Image, ctx Context) ([]byte, error) {
	key := a.Seed ^ ctx.Instance*0x9e3779b97f4a7c15
	return mutateContent(template, key)
}

// PerSource models the engine of the paper's M-cluster 13: the mutation is
// keyed by the attacker address, so one source ships one MD5 across all of
// its attacks while different sources ship different MD5s. This interacts
// with EPM invariant discovery exactly as in the paper: the MD5 never
// reaches the "three distinct attackers" threshold and is therefore not
// selected as an invariant.
type PerSource struct {
	Seed uint64
}

// Name implements Engine.
func (PerSource) Name() string { return "per-source" }

// Mutate implements Engine.
func (p PerSource) Mutate(template *pe.Image, ctx Context) ([]byte, error) {
	key := p.Seed ^ uint64(ctx.Source)*0xbf58476d1ce4e5b9
	return mutateContent(template, key)
}

// mutateContent rewrites every section's content with key-derived bytes of
// identical length and rebuilds the image. Headers, section names, sizes,
// and the import table are untouched — the invariants the paper's static
// clustering relies on.
func mutateContent(template *pe.Image, key uint64) ([]byte, error) {
	img := template.Clone()
	r := rand.New(rand.NewSource(int64(key)))
	for i := range img.Sections {
		r.Read(img.Sections[i].Data)
	}
	img.TimeDateStamp = uint32(r.Uint64())
	return img.Build()
}

// VariantOp derives a new codebase image from a parent. The returned image
// is always a fresh deep copy.
type VariantOp func(parent *pe.Image, r *rand.Rand) *pe.Image

// Patch models a code patch: one or more sections change size (the
// dominant M-cluster differentiator for Allaple in the paper, which
// observes "a variety of M-clusters, all linked to the same B-clusters,
// but characterized by different binary sizes").
func Patch(parent *pe.Image, r *rand.Rand) *pe.Image {
	img := parent.Clone()
	idx := r.Intn(len(img.Sections))
	sec := &img.Sections[idx]
	// Grow or shrink by 0.5..8 KiB in 512-byte steps (the PE file
	// alignment), never below 64 bytes. Fine-grained deltas keep patched
	// variants distinguishable by file size, the paper's main M-cluster
	// differentiator for Allaple.
	delta := (r.Intn(16) + 1) * 512
	if r.Intn(2) == 0 && len(sec.Data) > delta+64 {
		sec.Data = sec.Data[:len(sec.Data)-delta]
	} else {
		grown := make([]byte, len(sec.Data)+delta)
		copy(grown, sec.Data)
		r.Read(grown[len(sec.Data):])
		sec.Data = grown
	}
	return img
}

// Recompile models rebuilding the codebase with a different toolchain:
// the linker version changes and section contents shift slightly. The
// paper notes "in some cases, the different variants also have different
// linker versions, suggesting recompilations".
func Recompile(parent *pe.Image, r *rand.Rand) *pe.Image {
	img := parent.Clone()
	versions := []struct{ major, minor uint8 }{
		{6, 0}, {7, 1}, {8, 0}, {9, 0}, {9, 2}, {10, 0},
	}
	for {
		v := simrng.Pick(r, versions)
		if v.major != img.LinkerMajor || v.minor != img.LinkerMinor {
			img.LinkerMajor, img.LinkerMinor = v.major, v.minor
			break
		}
	}
	// A recompilation perturbs code layout a little.
	if n := len(img.Sections[0].Data); n > 128 {
		tweak := make([]byte, 64)
		r.Read(tweak)
		copy(img.Sections[0].Data[n/2:], tweak)
	}
	return img
}

// AddImport models a code modification that starts referencing extra API
// surface — visible to EPM through the Kernel32 symbol feature.
func AddImport(dll, symbol string) VariantOp {
	return func(parent *pe.Image, r *rand.Rand) *pe.Image {
		img := parent.Clone()
		for i := range img.Imports {
			if img.Imports[i].DLL == dll {
				for _, s := range img.Imports[i].Symbols {
					if s == symbol {
						return img
					}
				}
				img.Imports[i].Symbols = append(img.Imports[i].Symbols, symbol)
				return img
			}
		}
		img.Imports = append(img.Imports, pe.Import{DLL: dll, Symbols: []string{symbol}})
		return img
	}
}
