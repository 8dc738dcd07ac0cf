package polymorph_test

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/epm"
	"repro/internal/netmodel"
	"repro/internal/pe"
	"repro/internal/polymorph"
	"repro/internal/simrng"
)

// Example shows why simple static clustering still works. It builds a PE
// codebase, mutates it with the two polymorphic engine classes the paper
// observes (Allaple-style per-instance, and per-source keying), shows
// which static features survive, then runs EPM over the mutated
// instances, which rediscovers the codebase as one cluster with the MD5
// wildcarded.
func Example() {
	// A codebase: three sections, KERNEL32 imports — the template a
	// malware author compiles once and ships many times.
	template := &pe.Image{
		Machine:     pe.MachineI386,
		Subsystem:   pe.SubsystemGUI,
		LinkerMajor: 9, LinkerMinor: 2,
		OSMajor: 6, OSMinor: 4,
		Sections: []pe.Section{
			{Name: ".text", Data: bytes.Repeat([]byte{0x90}, 40960), Characteristics: pe.SectionCode | pe.SectionExecute | pe.SectionRead},
			{Name: "rdata", Data: bytes.Repeat([]byte{0x11}, 8192), Characteristics: pe.SectionInitializedData | pe.SectionRead},
			{Name: ".data", Data: bytes.Repeat([]byte{0x22}, 9216), Characteristics: pe.SectionInitializedData | pe.SectionRead | pe.SectionWrite},
		},
		Imports: []pe.Import{{DLL: "KERNEL32.dll", Symbols: []string{"GetProcAddress", "LoadLibraryA"}}},
	}

	fmt.Println("== per-instance engine (Allaple class) ==")
	allaple := polymorph.Allaple{Seed: 42}
	showMutations(allaple, template, 3)

	fmt.Println("== per-source engine (M-cluster 13 class) ==")
	perSource := polymorph.PerSource{Seed: 42}
	showMutations(perSource, template, 3)

	// Now the punchline: EPM over a stream of mutated instances. Every
	// instance has a fresh MD5, yet invariant discovery recovers the
	// codebase because the header facts survive mutation.
	fmt.Println("== EPM over 60 polymorphic instances ==")
	schema := epm.Schema{Dimension: "mu", Features: []string{"md5", "size", "sections", "linker"}}
	var instances []epm.Instance
	for i := 0; i < 60; i++ {
		attacker := netmodel.IP(0x0a000000 + uint32(i%7))
		raw, err := allaple.Mutate(template, polymorph.Context{Source: attacker, Instance: uint64(i)})
		if err != nil {
			log.Fatal(err)
		}
		ft := pe.ExtractFeatures(raw)
		instances = append(instances, epm.Instance{
			ID:       fmt.Sprintf("ev%02d", i),
			Attacker: attacker.String(),
			Sensor:   fmt.Sprintf("sensor-%d", i%5),
			Values:   []string{ft.MD5, fmt.Sprint(ft.Size), ft.SectionNames, fmt.Sprint(ft.LinkerVersion)},
		})
	}
	clustering, err := epm.Run(schema, instances, epm.DefaultThresholds())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clusters: %d\n", len(clustering.Clusters))
	for _, c := range clustering.Clusters {
		fmt.Printf("  pattern %s groups %d instances\n", c.Pattern, c.Size())
	}
	fmt.Println("\nthe MD5 is wildcarded; size, section names, and linker version survive.")
	// Output:
	// == per-instance engine (Allaple class) ==
	//   attacker 173.186.216.242 md5=4b60e8a047... (re-ship: changes) size=59904 sections=.text,rdata,.data,.idata
	//   attacker 112.227.243.146 md5=75536f12e9... (re-ship: changes) size=59904 sections=.text,rdata,.data,.idata
	//   attacker 124.84.118.76   md5=896b2f0b5e... (re-ship: changes) size=59904 sections=.text,rdata,.data,.idata
	//   -> 3 distinct MD5s across 3 attackers; file size constant at 59904 bytes
	//
	// == per-source engine (M-cluster 13 class) ==
	//   attacker 173.186.216.242 md5=6f0e1ea4a1... (re-ship: stable) size=59904 sections=.text,rdata,.data,.idata
	//   attacker 112.227.243.146 md5=3ee806430c... (re-ship: stable) size=59904 sections=.text,rdata,.data,.idata
	//   attacker 124.84.118.76   md5=b447640559... (re-ship: stable) size=59904 sections=.text,rdata,.data,.idata
	//   -> 3 distinct MD5s across 3 attackers; file size constant at 59904 bytes
	//
	// == EPM over 60 polymorphic instances ==
	// clusters: 1
	//   pattern (*, 59904, .text,rdata,.data,.idata, 92) groups 60 instances
	//
	// the MD5 is wildcarded; size, section names, and linker version survive.
}

// showMutations prints which static features change across mutations.
func showMutations(engine polymorph.Engine, template *pe.Image, n int) {
	seen := map[string]bool{}
	var size int
	src := simrng.New(1).Stream("attackers")
	for i := 0; i < n; i++ {
		attacker := netmodel.IP(src.Uint32())
		raw, err := engine.Mutate(template, polymorph.Context{Source: attacker, Instance: uint64(i)})
		if err != nil {
			log.Fatal(err)
		}
		// Ship twice from the same source to expose per-source stability.
		again, err := engine.Mutate(template, polymorph.Context{Source: attacker, Instance: uint64(i + 100)})
		if err != nil {
			log.Fatal(err)
		}
		ft := pe.ExtractFeatures(raw)
		ft2 := pe.ExtractFeatures(again)
		stable := "changes"
		if ft.MD5 == ft2.MD5 {
			stable = "stable"
		}
		fmt.Printf("  attacker %-15s md5=%s... (re-ship: %s) size=%d sections=%s\n",
			attacker, ft.MD5[:10], stable, ft.Size, ft.SectionNames)
		seen[ft.MD5] = true
		size = ft.Size
	}
	fmt.Printf("  -> %d distinct MD5s across %d attackers; file size constant at %d bytes\n\n", len(seen), n, size)
}
