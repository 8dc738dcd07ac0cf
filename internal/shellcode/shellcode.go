// Package shellcode models the π (payload) dimension of the EGPM model:
// the injected shellcode, its encoded download instructions, and a
// Nepenthes-style analyzer that recognizes the shellcode and emulates the
// network actions it requests.
//
// SGNET identifies injected shellcode through the Argos taint oracle and
// hands it to Nepenthes modules that understand its intended behaviour:
// which protocol the victim must use to fetch the malware (FTP, HTTP,
// and several Nepenthes-specific transfer protocols), the filename
// requested, the server port, and the interaction type — PUSH (the
// attacker connects and pushes the binary), PULL / phone-home (the victim
// connects back to the attacker), or a central repository (the victim
// fetches from a third party). Those four facts are exactly the paper's
// π classification features (Table 1).
package shellcode

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/netmodel"
)

// Interaction is the download interaction type.
type Interaction int

// Interaction types distinguished by the paper.
const (
	// Push means the attacker actively connects to the victim and pushes
	// the sample (e.g. Allaple on TCP 9988).
	Push Interaction = iota + 1
	// Pull (phone-home) means the victim connects back to the attacker.
	Pull
	// Central means the victim downloads from a third-party repository.
	Central
)

// String implements fmt.Stringer.
func (i Interaction) String() string {
	switch i {
	case Push:
		return "PUSH"
	case Pull:
		return "PULL"
	case Central:
		return "central"
	default:
		return fmt.Sprintf("Interaction(%d)", int(i))
	}
}

// Protocols the Nepenthes-style analyzer understands.
var knownProtocols = map[string]bool{
	"ftp":      true,
	"http":     true,
	"tftp":     true,
	"csend":    true, // Nepenthes-specific PUSH transfer
	"creceive": true, // Nepenthes-specific PULL transfer
	"blink":    true, // Nepenthes-specific single-connection transfer
}

// Spec is the ground-truth description of a shellcode's download logic.
// The landscape generator attaches one Spec per propagation strategy.
type Spec struct {
	// Protocol is the transfer protocol ("ftp", "http", "tftp", "csend",
	// "creceive", "blink").
	Protocol string
	// Interaction is the download interaction type.
	Interaction Interaction
	// Port is the server port involved in the protocol interaction.
	Port int
	// Filename is the filename requested in the protocol interaction;
	// empty for protocols that do not exchange filenames.
	Filename string
	// RandomFilename replaces Filename with a fresh random name at every
	// attack (the paper's example of simple per-attack randomization that
	// EPM must cope with).
	RandomFilename bool
	// Repository is the third-party server for Central interactions; it is
	// ignored for Push/Pull, where the peer is the attacker itself.
	Repository netmodel.IP
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if !knownProtocols[s.Protocol] {
		return fmt.Errorf("shellcode: unknown protocol %q", s.Protocol)
	}
	if s.Interaction < Push || s.Interaction > Central {
		return fmt.Errorf("shellcode: invalid interaction %d", int(s.Interaction))
	}
	if s.Port <= 0 || s.Port > 65535 {
		return fmt.Errorf("shellcode: invalid port %d", s.Port)
	}
	if s.Interaction == Central && s.Repository == 0 {
		return errors.New("shellcode: central interaction needs a repository address")
	}
	return nil
}

// Action is the decoded intent of one concrete shellcode instance: what
// the Nepenthes analyzer recovers and the download emulator executes.
type Action struct {
	Protocol    string
	Interaction Interaction
	Port        int
	Filename    string
	// Source is the host the malware is fetched from or pushed by: the
	// attacker for Push/Pull, the repository for Central.
	Source netmodel.IP
}

// Encoding layout. Real shellcode hides its parameters behind a decoder
// stub; we reproduce that with a recognizable stub plus a XOR-obfuscated
// parameter block, so the analyzer has real decoding work to do:
//
//	[ jmp short (2) | magic "NPSC" (4) | xor key (1) | body len (2) | body^key ]
//	body = proto \0 interaction(1) port(2) source(4) filename \0
var magic = []byte{'N', 'P', 'S', 'C'}

const (
	stubLen   = 2 + 4 + 1 + 2
	jmpOpcode = 0xEB
)

// Encode produces the shellcode bytes for one attack instance. attacker is
// the source shipping the exploit; r drives the XOR key and any filename
// randomization.
func Encode(s Spec, attacker netmodel.IP, r *rand.Rand) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	filename := s.Filename
	if s.RandomFilename {
		filename = randomFilename(r)
	}
	source := attacker
	if s.Interaction == Central {
		source = s.Repository
	}

	body := make([]byte, 0, len(s.Protocol)+1+1+2+4+len(filename)+1)
	body = append(body, s.Protocol...)
	body = append(body, 0)
	body = append(body, byte(s.Interaction))
	body = binary.LittleEndian.AppendUint16(body, uint16(s.Port))
	body = binary.LittleEndian.AppendUint32(body, uint32(source))
	body = append(body, filename...)
	body = append(body, 0)

	key := byte(r.Intn(255) + 1)
	out := make([]byte, 0, stubLen+len(body))
	out = append(out, jmpOpcode, byte(len(magic)+3))
	out = append(out, magic...)
	out = append(out, key)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(body)))
	for _, b := range body {
		out = append(out, b^key)
	}
	return out, nil
}

// ErrUnrecognized reports shellcode the analyzer cannot interpret,
// mirroring Nepenthes' behaviour on unknown shellcode.
var ErrUnrecognized = errors.New("shellcode: unrecognized shellcode")

// Analyze recognizes the decoder stub anywhere in the payload, decodes the
// parameter block, and returns the download action.
func Analyze(payload []byte) (Action, error) {
	idx := findMagic(payload)
	if idx < 0 {
		return Action{}, ErrUnrecognized
	}
	p := payload[idx+len(magic):]
	if len(p) < 3 {
		return Action{}, fmt.Errorf("%w: stub truncated", ErrUnrecognized)
	}
	key := p[0]
	bodyLen := int(binary.LittleEndian.Uint16(p[1:3]))
	if len(p) < 3+bodyLen {
		return Action{}, fmt.Errorf("%w: body truncated", ErrUnrecognized)
	}
	body := make([]byte, bodyLen)
	for i := range body {
		body[i] = p[3+i] ^ key
	}

	protoEnd := indexByte(body, 0)
	if protoEnd < 0 || len(body) < protoEnd+1+1+2+4+1 {
		return Action{}, fmt.Errorf("%w: malformed body", ErrUnrecognized)
	}
	a := Action{Protocol: string(body[:protoEnd])}
	if !knownProtocols[a.Protocol] {
		return Action{}, fmt.Errorf("%w: unknown protocol %q", ErrUnrecognized, a.Protocol)
	}
	rest := body[protoEnd+1:]
	a.Interaction = Interaction(rest[0])
	if a.Interaction < Push || a.Interaction > Central {
		return Action{}, fmt.Errorf("%w: invalid interaction %d", ErrUnrecognized, rest[0])
	}
	a.Port = int(binary.LittleEndian.Uint16(rest[1:3]))
	a.Source = netmodel.IP(binary.LittleEndian.Uint32(rest[3:7]))
	nameEnd := indexByte(rest[7:], 0)
	if nameEnd < 0 {
		return Action{}, fmt.Errorf("%w: unterminated filename", ErrUnrecognized)
	}
	a.Filename = string(rest[7 : 7+nameEnd])
	return a, nil
}

func findMagic(p []byte) int {
	for i := 0; i+len(magic) <= len(p); i++ {
		if p[i] == magic[0] && byteEqual(p[i:i+len(magic)], magic) {
			return i
		}
	}
	return -1
}

func byteEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func indexByte(p []byte, b byte) int {
	for i, v := range p {
		if v == b {
			return i
		}
	}
	return -1
}

// randomFilename builds an 8-letter random name with an .exe suffix,
// modeling the random FTP filenames the paper mentions.
func randomFilename(r *rand.Rand) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	b := make([]byte, 8, 12)
	for i := range b {
		b[i] = letters[r.Intn(len(letters))]
	}
	return string(append(b, ".exe"...))
}

// DownloadOutcome is the result class of one emulated download.
type DownloadOutcome int

// Download outcomes. The paper reports that some Nepenthes download
// modules fail, leaving truncated or corrupted samples that dynamic
// analysis cannot execute (6353 collected, 5165 executable).
const (
	// DownloadOK means the full binary was retrieved.
	DownloadOK DownloadOutcome = iota + 1
	// DownloadTruncated means the transfer aborted midway; a prefix of the
	// binary was stored.
	DownloadTruncated
	// DownloadFailed means no payload was retrieved at all.
	DownloadFailed
)

// String implements fmt.Stringer.
func (o DownloadOutcome) String() string {
	switch o {
	case DownloadOK:
		return "ok"
	case DownloadTruncated:
		return "truncated"
	case DownloadFailed:
		return "failed"
	default:
		return fmt.Sprintf("DownloadOutcome(%d)", int(o))
	}
}

// FailureModel configures stochastic download failures per protocol.
type FailureModel struct {
	// TruncateProb is the probability that a download aborts midway.
	TruncateProb float64
	// FailProb is the probability that a download yields nothing.
	FailProb float64
}
