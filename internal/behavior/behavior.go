// Package behavior defines malware behavior programs and behavioral
// profiles.
//
// A behavior program is the ground-truth "source code" of a malware
// family: the sequence of host and network operations the sample performs
// when executed. The sandbox (internal/sandbox) interprets programs
// against a simulated OS and network environment and emits a behavioral
// profile — the abstract feature-set representation used by the Anubis
// clustering of Bayer et al. (NDSS'09) that the paper builds on.
package behavior

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// OpKind enumerates the operation types a behavior program can perform.
type OpKind int

// Operation kinds. The set mirrors the behavioral-profile feature classes
// of the Anubis system: file system, registry, synchronization, process,
// and network activity.
const (
	// OpCreateFile creates a file at Path.
	OpCreateFile OpKind = iota + 1
	// OpWriteFile writes to the file at Path.
	OpWriteFile
	// OpDeleteFile removes the file at Path.
	OpDeleteFile
	// OpSetRegistry writes the registry value named by Path.
	OpSetRegistry
	// OpCreateMutex creates a named mutex. With Volatile set the name is
	// randomized per execution — a profile noise source.
	OpCreateMutex
	// OpCreateProcess spawns the process named by Path.
	OpCreateProcess
	// OpDNSResolve resolves Host; fails when the environment has no entry.
	OpDNSResolve
	// OpTCPConnect opens a TCP connection to Host:Port; fails when the
	// environment marks the endpoint unreachable.
	OpTCPConnect
	// OpHTTPDownload downloads Host+Path and, on success, executes the
	// nested Payload program (a downloaded component).
	OpHTTPDownload
	// OpIRCConnect joins IRC room Channel on Host:Port and executes
	// commands received from the bot-herder (the nested Payload).
	OpIRCConnect
	// OpScanNetwork scans the network on Port looking for victims.
	OpScanNetwork
	// OpInfectHTML appends exploit frames to local HTML files (Allaple).
	OpInfectHTML
	// OpDoS floods the target named by Host.
	OpDoS
	// OpSleep idles; long sleeps can exhaust the sandbox execution budget.
	OpSleep
)

var opKindNames = map[OpKind]string{
	OpCreateFile:    "file-create",
	OpWriteFile:     "file-write",
	OpDeleteFile:    "file-delete",
	OpSetRegistry:   "registry-set",
	OpCreateMutex:   "mutex-create",
	OpCreateProcess: "process-create",
	OpDNSResolve:    "dns-resolve",
	OpTCPConnect:    "tcp-connect",
	OpHTTPDownload:  "http-download",
	OpIRCConnect:    "irc-connect",
	OpScanNetwork:   "scan",
	OpInfectHTML:    "infect-html",
	OpDoS:           "dos",
	OpSleep:         "sleep",
}

// String implements fmt.Stringer.
func (k OpKind) String() string {
	if s, ok := opKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Op is one operation of a behavior program.
type Op struct {
	Kind OpKind
	// Path names the file, registry value, mutex, or process the op
	// touches, depending on Kind.
	Path string
	// Host is the network peer (domain name or dotted address).
	Host string
	// Port is the network port for connect/scan operations.
	Port int
	// Channel is the IRC room name for OpIRCConnect.
	Channel string
	// Payload is the nested program run when a download or C&C exchange
	// succeeds.
	Payload *Program
	// OnFailSkip is the number of following ops to skip when this op
	// fails; it encodes the simple conditional control flow malware uses
	// ("if the C&C is unreachable, skip the command loop").
	OnFailSkip int
	// Volatile marks ops whose emitted profile feature embeds per-run
	// randomness (e.g. random mutex names); these are the clustering noise
	// sources discussed in §4.2 of the paper.
	Volatile bool
	// Seconds is the duration for OpSleep.
	Seconds int
}

// Program is a named sequence of operations.
type Program struct {
	Name string
	Ops  []Op
	// Fragility is the per-execution probability that the run degrades:
	// the sample crashes after a random prefix of its operations and the
	// profile picks up run-specific noise features. This models the
	// profile variability that, combined with clustering thresholds,
	// produces the single-sample B-cluster artifacts of §4.2.
	Fragility float64
}

// Clone returns a deep copy of the program.
func (p *Program) Clone() *Program {
	if p == nil {
		return nil
	}
	out := &Program{Name: p.Name, Ops: make([]Op, len(p.Ops)), Fragility: p.Fragility}
	copy(out.Ops, p.Ops)
	for i := range out.Ops {
		out.Ops[i].Payload = out.Ops[i].Payload.Clone()
	}
	return out
}

// Validate checks structural constraints on the program.
func (p *Program) Validate() error {
	if p == nil {
		return fmt.Errorf("behavior: nil program")
	}
	if p.Fragility < 0 || p.Fragility > 1 {
		return fmt.Errorf("behavior: %s fragility %v outside [0,1]", p.Name, p.Fragility)
	}
	for i, op := range p.Ops {
		if op.Kind < OpCreateFile || op.Kind > OpSleep {
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
			if err := op.Payload.Validate(); err != nil {
				return fmt.Errorf("behavior: %s op %d payload: %w", p.Name, i, err)
			}
		}
	}
	return nil
}

// Profile is a behavioral profile: the set of abstract features observed
// during one sandbox execution of a sample.
//
// A profile is built by the sandbox (Add) and then consumed read-only by
// the enrichment and clustering layers. The sorted snapshot (Features)
// and the interned hash set (FeatureSet) are computed once on first use
// and cached; Add invalidates the cache. The cache is safe under
// concurrent readers.
type Profile struct {
	features map[string]struct{}

	mu     sync.Mutex
	sorted []string
	set    FeatureSet
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{features: make(map[string]struct{})}
}

// Add inserts a feature into the profile.
func (p *Profile) Add(feature string) {
	if _, ok := p.features[feature]; ok {
		return
	}
	p.features[feature] = struct{}{}
	p.mu.Lock()
	p.sorted, p.set = nil, nil
	p.mu.Unlock()
}

// Has reports whether the profile contains the feature.
func (p *Profile) Has(feature string) bool {
	_, ok := p.features[feature]
	return ok
}

// Len reports the number of distinct features.
func (p *Profile) Len() int {
	return len(p.features)
}

// Features returns the sorted feature list. The sort runs once per
// profile; subsequent calls copy the cached snapshot, so callers own the
// returned slice.
func (p *Profile) Features() []string {
	p.mu.Lock()
	if p.sorted == nil {
		p.sorted = make([]string, 0, len(p.features))
		for f := range p.features {
			p.sorted = append(p.sorted, f)
		}
		sort.Strings(p.sorted)
	}
	out := make([]string, len(p.sorted))
	copy(out, p.sorted)
	p.mu.Unlock()
	return out
}

// FeatureSet returns the profile's interned hash set, built once per
// profile and cached. The returned slice is shared and must be treated
// as read-only; it is the representation the B-clustering hot path
// (prefix index and Jaccard verification) operates on.
func (p *Profile) FeatureSet() FeatureSet {
	p.mu.Lock()
	if p.set == nil {
		fs := make(FeatureSet, 0, len(p.features))
		for f := range p.features {
			fs = append(fs, FeatureHash(f))
		}
		fs.normalize()
		p.set = fs
	}
	out := p.set
	p.mu.Unlock()
	return out
}

// Jaccard computes the Jaccard similarity |A∩B| / |A∪B| between two
// profiles; two empty profiles have similarity 1.
func (p *Profile) Jaccard(q *Profile) float64 {
	if p.Len() == 0 && q.Len() == 0 {
		return 1
	}
	small, large := p.features, q.features
	if len(small) > len(large) {
		small, large = large, small
	}
	inter := 0
	for f := range small {
		if _, ok := large[f]; ok {
			inter++
		}
	}
	union := len(p.features) + len(q.features) - inter
	return float64(inter) / float64(union)
}

// Feature constructors. All profile features funnel through these helpers
// so the sandbox and the tests agree on the exact encoding.

// FeatureOp renders a host-side operation feature.
func FeatureOp(kind OpKind, object string) string {
	return kind.String() + "|" + object
}

// FeatureNet renders a network operation feature with an outcome tag
// ("ok"/"fail"). Outcome is part of the feature because the paper's §4.2
// anomalies stem precisely from environment-dependent outcome changes.
func FeatureNet(kind OpKind, endpoint string, ok bool) string {
	outcome := "ok"
	if !ok {
		outcome = "fail"
	}
	return kind.String() + "|" + endpoint + "|" + outcome
}

// FeatureIRC renders an IRC command-and-control feature.
func FeatureIRC(server string, port int, room string) string {
	return fmt.Sprintf("irc|%s:%d|%s", server, port, room)
}

// ParseIRCFeature decodes a feature produced by FeatureIRC, reporting
// ok=false for any other feature. The analysis layer uses it to recover
// Table 2 (IRC server/room vs M-cluster) from raw profiles.
func ParseIRCFeature(f string) (server string, port int, room string, ok bool) {
	if !strings.HasPrefix(f, "irc|") {
		return "", 0, "", false
	}
	parts := strings.SplitN(f[len("irc|"):], "|", 2)
	if len(parts) != 2 {
		return "", 0, "", false
	}
	host, portStr, found := strings.Cut(parts[0], ":")
	if !found {
		return "", 0, "", false
	}
	// strconv.Atoi over the full port string: unlike the fmt.Sscanf("%d")
	// this replaces, it is allocation-free on the Table-2 analysis path
	// and rejects trailing garbage ("6667x") instead of silently
	// truncating it. FeatureIRC only ever renders bare digits, so signed
	// forms are rejected too.
	if portStr == "" || portStr[0] == '+' || portStr[0] == '-' {
		return "", 0, "", false
	}
	p, err := strconv.Atoi(portStr)
	if err != nil || p <= 0 || p > 65535 {
		return "", 0, "", false
	}
	return host, p, parts[1], true
}
