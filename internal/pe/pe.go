// Package pe implements a minimal but real Portable Executable (PE32)
// writer and parser.
//
// The reproduction needs real PE images because the paper's M-dimension
// features (Table 1) are facts extracted from PE headers with the pefile
// library: machine type, number of sections, linker and OS versions,
// section names, imported DLLs, and referenced Kernel32.dll symbols. The
// writer emits well-formed PE32 files (DOS header, COFF header, optional
// header, section table, import directory) and the parser recovers every
// feature from the raw bytes, so polymorphic engines operate on genuine
// binary images rather than on symbolic descriptions.
package pe

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// Machine types (COFF header). Only i386 is exercised by the corpus, which
// matches the paper: every observed sample reported machine type 332.
const (
	MachineI386  = 0x14c // 332: Intel 80386
	MachineAMD64 = 0x8664
)

// Subsystem values (optional header).
const (
	SubsystemGUI = 2
	SubsystemCUI = 3
)

// Section characteristic flags (subset).
const (
	SectionCode               = 0x00000020
	SectionInitializedData    = 0x00000040
	SectionExecute            = 0x20000000
	SectionRead               = 0x40000000
	SectionWrite              = 0x80000000
	sectionNameLen            = 8
	importDescriptorSize      = 20
	fileAlignment             = 0x200
	sectionAlignment          = 0x1000
	dosHeaderSize             = 64
	peHeaderOffset            = 0x80 // e_lfanew: DOS header + stub
	coffHeaderSize            = 20
	optionalHeaderSize        = 224 // PE32 with 16 data directories
	sectionHeaderSize         = 40
	numDataDirectories        = 16
	importDirectoryIndex      = 1
	optionalHeaderMagicPE32   = 0x10b
	imageFileExecutable       = 0x0002
	imageFile32BitMachine     = 0x0100
	defaultImageBase          = 0x400000
	defaultEntryPointRVA      = sectionAlignment
	importSectionName         = ".idata"
	importSectionCharacterist = SectionInitializedData | SectionRead | SectionWrite
)

// Section is one section of a PE image: a name of at most 8 bytes, raw
// content, and characteristic flags.
type Section struct {
	Name            string
	Data            []byte
	Characteristics uint32
}

// Import lists the symbols referenced from one DLL.
type Import struct {
	DLL     string
	Symbols []string
}

// Image is the logical content of a PE32 executable. Build serializes it;
// Parse recovers it (modulo alignment padding) from bytes.
type Image struct {
	Machine       uint16
	Subsystem     uint16
	LinkerMajor   uint8
	LinkerMinor   uint8
	OSMajor       uint16
	OSMinor       uint16
	TimeDateStamp uint32
	Sections      []Section
	Imports       []Import
}

// Validate checks structural constraints the builder relies on.
func (img *Image) Validate() error {
	if len(img.Sections) == 0 {
		return errors.New("pe: image needs at least one section")
	}
	for i, s := range img.Sections {
		if len(s.Name) == 0 || len(s.Name) > sectionNameLen {
			return fmt.Errorf("pe: section %d name %q must be 1..8 bytes", i, s.Name)
		}
		if s.Name == importSectionName && len(img.Imports) > 0 {
			return fmt.Errorf("pe: section name %q is reserved for the synthesized import section", importSectionName)
		}
		if len(s.Data) == 0 {
			return fmt.Errorf("pe: section %d (%q) has no data", i, s.Name)
		}
	}
	seen := make(map[string]bool, len(img.Imports))
	for _, imp := range img.Imports {
		if imp.DLL == "" {
			return errors.New("pe: import with empty DLL name")
		}
		if seen[imp.DLL] {
			return fmt.Errorf("pe: duplicate import DLL %q", imp.DLL)
		}
		seen[imp.DLL] = true
		if len(imp.Symbols) == 0 {
			return fmt.Errorf("pe: import %q lists no symbols", imp.DLL)
		}
	}
	return nil
}

func align(v, a int) int {
	return (v + a - 1) / a * a
}

// Build serializes the image into PE32 bytes.
func (img *Image) Build() ([]byte, error) {
	if err := img.Validate(); err != nil {
		return nil, err
	}

	sections := make([]Section, len(img.Sections))
	copy(sections, img.Sections)

	// Assign RVAs sequentially so that a synthesized import section knows
	// its own base RVA before its content is generated.
	rvas := make([]int, 0, len(sections)+1)
	rva := sectionAlignment
	for _, s := range sections {
		rvas = append(rvas, rva)
		rva += align(len(s.Data), sectionAlignment)
	}

	importDirRVA, importDirSize := 0, 0
	if len(img.Imports) > 0 {
		data := buildImportData(img.Imports, rva)
		importDirRVA = rva
		importDirSize = (len(img.Imports) + 1) * importDescriptorSize
		sections = append(sections, Section{
			Name:            importSectionName,
			Data:            data,
			Characteristics: importSectionCharacterist,
		})
		rvas = append(rvas, rva)
		rva += align(len(data), sectionAlignment)
	}

	headerSize := peHeaderOffset + 4 + coffHeaderSize + optionalHeaderSize +
		sectionHeaderSize*len(sections)
	sizeOfHeaders := align(headerSize, fileAlignment)

	// File layout.
	type placed struct {
		rawOffset int
		rawSize   int
	}
	placements := make([]placed, len(sections))
	offset := sizeOfHeaders
	var sizeOfCode, sizeOfInitData uint32
	for i, s := range sections {
		placements[i] = placed{rawOffset: offset, rawSize: align(len(s.Data), fileAlignment)}
		offset += placements[i].rawSize
		if s.Characteristics&SectionCode != 0 {
			sizeOfCode += uint32(placements[i].rawSize)
		}
		if s.Characteristics&SectionInitializedData != 0 {
			sizeOfInitData += uint32(placements[i].rawSize)
		}
	}
	total := offset
	out := make([]byte, total)

	// DOS header and stub.
	out[0], out[1] = 'M', 'Z'
	binary.LittleEndian.PutUint32(out[0x3c:], peHeaderOffset)
	copy(out[dosHeaderSize:], "This program cannot be run in DOS mode.\r\r\n$")

	// PE signature.
	p := peHeaderOffset
	copy(out[p:], "PE\x00\x00")
	p += 4

	// COFF header.
	binary.LittleEndian.PutUint16(out[p:], img.Machine)
	binary.LittleEndian.PutUint16(out[p+2:], uint16(len(sections)))
	binary.LittleEndian.PutUint32(out[p+4:], img.TimeDateStamp)
	binary.LittleEndian.PutUint16(out[p+16:], optionalHeaderSize)
	binary.LittleEndian.PutUint16(out[p+18:], imageFileExecutable|imageFile32BitMachine)
	p += coffHeaderSize

	// Optional header (PE32).
	oh := out[p : p+optionalHeaderSize]
	binary.LittleEndian.PutUint16(oh[0:], optionalHeaderMagicPE32)
	oh[2] = img.LinkerMajor
	oh[3] = img.LinkerMinor
	binary.LittleEndian.PutUint32(oh[4:], sizeOfCode)
	binary.LittleEndian.PutUint32(oh[8:], sizeOfInitData)
	binary.LittleEndian.PutUint32(oh[16:], defaultEntryPointRVA)
	binary.LittleEndian.PutUint32(oh[20:], defaultEntryPointRVA) // BaseOfCode
	binary.LittleEndian.PutUint32(oh[28:], defaultImageBase)
	binary.LittleEndian.PutUint32(oh[32:], sectionAlignment)
	binary.LittleEndian.PutUint32(oh[36:], fileAlignment)
	binary.LittleEndian.PutUint16(oh[40:], img.OSMajor)
	binary.LittleEndian.PutUint16(oh[42:], img.OSMinor)
	binary.LittleEndian.PutUint16(oh[48:], 4) // MajorSubsystemVersion
	binary.LittleEndian.PutUint32(oh[56:], uint32(rva))
	binary.LittleEndian.PutUint32(oh[60:], uint32(sizeOfHeaders))
	binary.LittleEndian.PutUint16(oh[68:], img.Subsystem)
	binary.LittleEndian.PutUint32(oh[72:], 0x100000) // stack reserve
	binary.LittleEndian.PutUint32(oh[76:], 0x1000)   // stack commit
	binary.LittleEndian.PutUint32(oh[80:], 0x100000) // heap reserve
	binary.LittleEndian.PutUint32(oh[84:], 0x1000)   // heap commit
	binary.LittleEndian.PutUint32(oh[92:], numDataDirectories)
	if importDirSize > 0 {
		dir := 96 + 8*importDirectoryIndex
		binary.LittleEndian.PutUint32(oh[dir:], uint32(importDirRVA))
		binary.LittleEndian.PutUint32(oh[dir+4:], uint32(importDirSize))
	}
	p += optionalHeaderSize

	// Section table and section data.
	for i, s := range sections {
		sh := out[p : p+sectionHeaderSize]
		copy(sh[0:sectionNameLen], s.Name)
		binary.LittleEndian.PutUint32(sh[8:], uint32(len(s.Data))) // VirtualSize
		binary.LittleEndian.PutUint32(sh[12:], uint32(rvas[i]))    // VirtualAddress
		binary.LittleEndian.PutUint32(sh[16:], uint32(placements[i].rawSize))
		binary.LittleEndian.PutUint32(sh[20:], uint32(placements[i].rawOffset))
		binary.LittleEndian.PutUint32(sh[36:], s.Characteristics)
		p += sectionHeaderSize
		copy(out[placements[i].rawOffset:], s.Data)
	}
	return out, nil
}

// buildImportData serializes the import directory for the given imports,
// assuming the data is placed at base RVA baseRVA. Layout:
//
//	descriptor table | per-DLL ILT | per-DLL IAT | hint/name entries | DLL names
func buildImportData(imports []Import, baseRVA int) []byte {
	nDLL := len(imports)
	descSize := (nDLL + 1) * importDescriptorSize

	// First pass: compute offsets.
	iltOff := make([]int, nDLL)
	iatOff := make([]int, nDLL)
	cursor := descSize
	for i, imp := range imports {
		iltOff[i] = cursor
		cursor += (len(imp.Symbols) + 1) * 4
	}
	for i, imp := range imports {
		iatOff[i] = cursor
		cursor += (len(imp.Symbols) + 1) * 4
	}
	hintOff := make([][]int, nDLL)
	for i, imp := range imports {
		hintOff[i] = make([]int, len(imp.Symbols))
		for j, sym := range imp.Symbols {
			hintOff[i][j] = cursor
			n := 2 + len(sym) + 1
			if n%2 == 1 {
				n++
			}
			cursor += n
		}
	}
	nameOff := make([]int, nDLL)
	for i, imp := range imports {
		nameOff[i] = cursor
		cursor += len(imp.DLL) + 1
	}

	data := make([]byte, cursor)
	for i, imp := range imports {
		d := data[i*importDescriptorSize:]
		binary.LittleEndian.PutUint32(d[0:], uint32(baseRVA+iltOff[i]))
		binary.LittleEndian.PutUint32(d[12:], uint32(baseRVA+nameOff[i]))
		binary.LittleEndian.PutUint32(d[16:], uint32(baseRVA+iatOff[i]))
		for j, sym := range imp.Symbols {
			rva := uint32(baseRVA + hintOff[i][j])
			binary.LittleEndian.PutUint32(data[iltOff[i]+4*j:], rva)
			binary.LittleEndian.PutUint32(data[iatOff[i]+4*j:], rva)
			copy(data[hintOff[i][j]+2:], sym)
		}
		copy(data[nameOff[i]:], imp.DLL)
	}
	return data
}

// SectionNames returns the image's section names in order, including a
// synthesized import section when imports are present, matching what a
// parser of the built bytes reports.
func (img *Image) SectionNames() []string {
	names := make([]string, 0, len(img.Sections)+1)
	for _, s := range img.Sections {
		names = append(names, s.Name)
	}
	if len(img.Imports) > 0 {
		names = append(names, importSectionName)
	}
	return names
}

// ImportedDLLs returns the sorted list of imported DLL names.
func (img *Image) ImportedDLLs() []string {
	out := make([]string, 0, len(img.Imports))
	for _, imp := range img.Imports {
		out = append(out, imp.DLL)
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy of the image, so that polymorphic engines can
// mutate instances without aliasing the family template.
func (img *Image) Clone() *Image {
	out := &Image{
		Machine:       img.Machine,
		Subsystem:     img.Subsystem,
		LinkerMajor:   img.LinkerMajor,
		LinkerMinor:   img.LinkerMinor,
		OSMajor:       img.OSMajor,
		OSMinor:       img.OSMinor,
		TimeDateStamp: img.TimeDateStamp,
		Sections:      make([]Section, len(img.Sections)),
		Imports:       make([]Import, len(img.Imports)),
	}
	for i, s := range img.Sections {
		out.Sections[i] = Section{
			Name:            s.Name,
			Data:            append([]byte(nil), s.Data...),
			Characteristics: s.Characteristics,
		}
	}
	for i, imp := range img.Imports {
		out.Imports[i] = Import{
			DLL:     imp.DLL,
			Symbols: append([]string(nil), imp.Symbols...),
		}
	}
	return out
}
