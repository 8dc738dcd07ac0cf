package download_test

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/download"
	"repro/internal/netmodel"
	"repro/internal/pe"
	"repro/internal/shellcode"
	"repro/internal/simrng"
)

// Example runs the π pipeline end to end. It encodes a shellcode carrying
// download instructions, recovers them with the Nepenthes-style analyzer,
// performs the emulated protocol transfer (with a deliberately induced
// truncation on the second run), and extracts the static features of
// whatever the honeypot stored, showing where the corpus's corrupted
// samples come from.
func Example() {
	rng := simrng.New(7)
	r := rng.Stream("example")

	// The malware binary the attacker wants delivered.
	binary := buildSample(rng)
	fmt.Printf("attacker-side binary: %d bytes, md5 %s\n\n",
		len(binary), pe.ExtractFeatures(binary).MD5[:12])

	// The shellcode carries the download instructions, obfuscated behind
	// a decoder stub.
	spec := shellcode.Spec{
		Protocol:    "ftp",
		Interaction: shellcode.Pull,
		Port:        21,
		Filename:    "ftpupd.exe",
	}
	attacker := netmodel.MustParseIP("198.51.100.7")
	sc, err := shellcode.Encode(spec, attacker, r)
	if err != nil {
		log.Fatal(err)
	}
	action, err := shellcode.Analyze(sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("analyzer recovered: %s %s from %s:%d, file %q\n\n",
		action.Interaction, action.Protocol, action.Source, action.Port, action.Filename)

	// A clean transfer.
	run := func(title string, fm shellcode.FailureModel) {
		stored, transcript, err := download.Run(action, binary, fm, r)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s (%s) ==\n", title, transcript.Outcome)
		blocks, data := 0, 0 // a run of data blocks prints as one line
		for _, m := range transcript.Messages {
			if strings.HasPrefix(m.Note, "DATA block") {
				blocks, data = blocks+1, data+len(m.Data)
				continue
			}
			if blocks > 0 {
				fmt.Printf("  <- %-22s %d bytes\n", fmt.Sprintf("%d DATA blocks", blocks), data)
				blocks, data = 0, 0
			}
			arrow := "->"
			if m.Dir == download.Received {
				arrow = "<-"
			}
			fmt.Printf("  %s %-22s %d bytes\n", arrow, m.Note, len(m.Data))
		}
		ft := pe.ExtractFeatures(stored)
		fmt.Printf("stored %d bytes; libmagic: %q; executable: %v\n\n", ft.Size, ft.Magic, ft.IsPE)
	}
	run("clean transfer", shellcode.FailureModel{})
	run("truncated transfer", shellcode.FailureModel{TruncateProb: 1})
	// Output:
	// attacker-side binary: 33792 bytes, md5 b3e44cf620c3
	//
	// analyzer recovered: PULL ftp from 198.51.100.7:21, file "ftpupd.exe"
	//
	// == clean transfer (ok) ==
	//   <- 220 banner             15 bytes
	//   -> USER                   16 bytes
	//   <- 331                    23 bytes
	//   -> PASS                   13 bytes
	//   <- 230                    20 bytes
	//   -> TYPE                   8 bytes
	//   <- 200                    19 bytes
	//   -> PASV                   6 bytes
	//   <- 227                    49 bytes
	//   -> RETR                   17 bytes
	//   <- 150                    29 bytes
	//   <- 33 DATA blocks         33792 bytes
	//   <- 226                    23 bytes
	// stored 33792 bytes; libmagic: "MS-DOS executable PE for MS Windows (GUI) Intel 80386 32-bit"; executable: true
	//
	// == truncated transfer (truncated) ==
	//   <- 220 banner             15 bytes
	//   -> USER                   16 bytes
	//   <- 331                    23 bytes
	//   -> PASS                   13 bytes
	//   <- 230                    20 bytes
	//   -> TYPE                   8 bytes
	//   <- 200                    19 bytes
	//   -> PASV                   6 bytes
	//   <- 227                    49 bytes
	//   -> RETR                   17 bytes
	//   <- 150                    29 bytes
	//   <- 10 DATA blocks         9361 bytes
	//   <- connection reset       0 bytes
	// stored 9361 bytes; libmagic: "MS-DOS executable"; executable: false
}

func buildSample(rng *simrng.Source) []byte {
	r := rng.Stream("binary")
	text := make([]byte, 24*1024)
	data := make([]byte, 8*1024)
	r.Read(text)
	r.Read(data)
	img := &pe.Image{
		Machine:     pe.MachineI386,
		Subsystem:   pe.SubsystemGUI,
		LinkerMajor: 9, LinkerMinor: 2,
		OSMajor: 6, OSMinor: 4,
		Sections: []pe.Section{
			{Name: ".text", Data: text, Characteristics: pe.SectionCode | pe.SectionExecute | pe.SectionRead},
			{Name: ".data", Data: data, Characteristics: pe.SectionInitializedData | pe.SectionRead | pe.SectionWrite},
		},
		Imports: []pe.Import{{DLL: "KERNEL32.dll", Symbols: []string{"GetProcAddress", "LoadLibraryA"}}},
	}
	raw, err := img.Build()
	if err != nil {
		log.Fatal(err)
	}
	return raw
}
