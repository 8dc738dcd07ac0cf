// Package dataset models the SGNET analysis dataset: one record per
// observed code-injection attack, enriched with the static features of the
// collected malware sample, plus a per-sample table aggregating collection
// and enrichment state.
//
// The schema mirrors what the paper's information-enrichment pipeline
// stores: the ε facts (FSM path, destination port), the π facts (download
// protocol, filename, port, interaction type), the μ facts (file and PE
// header features), and the propagation context (attacker, sensor,
// timestamp) that Section 4.3 exploits. Ground-truth fields produced by
// the landscape generator are carried alongside for validation; no
// analysis reads them.
package dataset

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/epm"
	"repro/internal/pe"
)

// Event is one observed code-injection attack.
type Event struct {
	ID       string    `json:"id"`
	Time     time.Time `json:"time"`
	Attacker string    `json:"attacker"`
	Sensor   string    `json:"sensor"`
	// SensorLocation is the index of the network location hosting the
	// sensor.
	SensorLocation int `json:"sensor_location"`

	// Epsilon dimension.
	FSMPath  string `json:"fsm_path"`
	DestPort int    `json:"dest_port"`

	// Pi dimension.
	Protocol    string `json:"protocol"`
	Filename    string `json:"filename"`
	PayloadPort int    `json:"payload_port"`
	Interaction string `json:"interaction"`

	// Mu dimension: static features of the collected sample (zero-valued
	// when the download failed entirely).
	Sample pe.Features `json:"sample"`
	// PEHash is the peHash-baseline value of the collected sample, empty
	// for corrupted samples the hash is undefined on.
	PEHash string `json:"pehash,omitempty"`
	// DownloadOutcome is "ok", "truncated", or "failed".
	DownloadOutcome string `json:"download_outcome"`

	// Ground truth (never consumed by analyses).
	TruthFamily  string `json:"truth_family,omitempty"`
	TruthVariant string `json:"truth_variant,omitempty"`
}

// HasSample reports whether the event stored any malware payload.
func (e Event) HasSample() bool {
	return e.Sample.MD5 != "" && e.DownloadOutcome != "failed"
}

// Sample aggregates per-binary state across all events that delivered it.
type Sample struct {
	MD5       string      `json:"md5"`
	FirstSeen time.Time   `json:"first_seen"`
	Features  pe.Features `json:"features"`
	// PEHash is the peHash-baseline value, empty for corrupted samples.
	PEHash string `json:"pehash,omitempty"`
	// Executable reports whether the sample parsed as a well-formed PE and
	// can therefore run in the dynamic analysis sandbox.
	Executable bool `json:"executable"`
	// Events counts the attack instances that delivered this binary.
	Events int `json:"events"`
	// AVLabel is the name a popular AV vendor assigns to the sample.
	AVLabel string `json:"av_label,omitempty"`
	// AVLabels carries the full multi-vendor label panel (vendor → label;
	// empty label = not detected).
	AVLabels map[string]string `json:"av_labels,omitempty"`
	// Profile is the behavioral profile from dynamic analysis (sorted
	// features); nil when the sample could not be executed. The
	// enrichment paths set it to an interned behavior.Set's names, shared
	// by every sample with the same profile: read it, never modify it.
	Profile []string `json:"profile,omitempty"`

	TruthFamily  string `json:"truth_family,omitempty"`
	TruthVariant string `json:"truth_variant,omitempty"`
}

// Dataset is the in-memory analysis dataset.
// eventChunkSize is the capacity of one event-store chunk. Chunking
// keeps appends O(1) without ever copying history: a flat []Event
// re-copied and re-zeroed tens of MB on every growth step at stream
// scale, and a []*Event traded that for a per-event heap object the
// garbage collector then had to track. One chunk is a few MB — big
// enough to amortize allocation, small enough not to stall.
const eventChunkSize = 4096

type Dataset struct {
	// chunks is the event log in insertion order; every chunk but the
	// last holds exactly eventChunkSize events.
	chunks   [][]Event
	count    int
	samples  map[string]*Sample
	bySample map[string][]int // MD5 -> event indices
	ids      map[string]bool
}

// at returns the stored event at log index i. The pointer aliases the
// store; callers must not mutate or retain it across AddEvent calls.
func (d *Dataset) at(i int) *Event {
	return &d.chunks[i/eventChunkSize][i%eventChunkSize]
}

// New returns an empty dataset.
func New() *Dataset {
	return &Dataset{
		samples:  make(map[string]*Sample),
		bySample: make(map[string][]int),
		ids:      make(map[string]bool),
	}
}

// AddEvent appends an attack record, updating the sample table.
func (d *Dataset) AddEvent(e Event) error {
	if e.ID == "" {
		return fmt.Errorf("dataset: event with empty ID")
	}
	if d.ids[e.ID] {
		return fmt.Errorf("dataset: duplicate event ID %q", e.ID)
	}
	d.ids[e.ID] = true
	if len(d.chunks) == 0 || len(d.chunks[len(d.chunks)-1]) == eventChunkSize {
		d.chunks = append(d.chunks, make([]Event, 0, eventChunkSize))
	}
	d.chunks[len(d.chunks)-1] = append(d.chunks[len(d.chunks)-1], e)
	d.count++

	if e.HasSample() {
		idx := d.count - 1
		d.bySample[e.Sample.MD5] = append(d.bySample[e.Sample.MD5], idx)
		s, ok := d.samples[e.Sample.MD5]
		if !ok {
			s = &Sample{
				MD5:          e.Sample.MD5,
				FirstSeen:    e.Time,
				Features:     e.Sample,
				PEHash:       e.PEHash,
				Executable:   e.Sample.IsPE,
				TruthFamily:  e.TruthFamily,
				TruthVariant: e.TruthVariant,
			}
			d.samples[e.Sample.MD5] = s
		}
		s.Events++
		if e.Time.Before(s.FirstSeen) {
			s.FirstSeen = e.Time
		}
	}
	return nil
}

// Events returns a copy of all events in insertion order. The copy is
// O(n); iterate with EachEvent where the materialized slice is not
// needed.
func (d *Dataset) Events() []Event {
	out := make([]Event, 0, d.count)
	for _, c := range d.chunks {
		out = append(out, c...)
	}
	return out
}

// EachEvent calls fn for every event in insertion order without
// materializing a copy of the store. The callee must not mutate or
// retain the pointed-to event.
func (d *Dataset) EachEvent(fn func(e *Event)) {
	for _, c := range d.chunks {
		for i := range c {
			fn(&c[i])
		}
	}
}

// EventCount returns the number of events.
func (d *Dataset) EventCount() int { return d.count }

// Sample returns the sample record for an MD5, or nil.
func (d *Dataset) Sample(md5 string) *Sample {
	return d.samples[md5]
}

// Samples returns all sample records sorted by MD5.
func (d *Dataset) Samples() []*Sample {
	out := make([]*Sample, 0, len(d.samples))
	for _, s := range d.samples {
		out = append(out, s)
	}
	slices.SortFunc(out, func(a, b *Sample) int { return strings.Compare(a.MD5, b.MD5) })
	return out
}

// SampleCount returns the number of distinct collected binaries.
func (d *Dataset) SampleCount() int { return len(d.samples) }

// ExecutableSampleCount returns the number of samples dynamic analysis can
// run (the paper's 5165 of 6353).
func (d *Dataset) ExecutableSampleCount() int {
	n := 0
	for _, s := range d.samples {
		if s.Executable {
			n++
		}
	}
	return n
}

// EventsOfSample returns the events that delivered the given MD5, in
// insertion order.
func (d *Dataset) EventsOfSample(md5 string) []Event {
	idxs := d.bySample[md5]
	out := make([]Event, 0, len(idxs))
	for _, i := range idxs {
		out = append(out, *d.at(i))
	}
	return out
}

// EPM schemas (Table 1). The feature names double as column headers in the
// reproduction of the table.
var (
	// EpsilonSchema covers the exploit dimension.
	EpsilonSchema = epm.Schema{Dimension: "epsilon", Features: []string{
		"FSM path identifier",
		"Destination port",
	}}
	// PiSchema covers the payload dimension.
	PiSchema = epm.Schema{Dimension: "pi", Features: []string{
		"Download protocol",
		"Filename in protocol interaction",
		"Port involved in protocol interaction",
		"Interaction type",
	}}
	// MuSchema covers the malware dimension.
	MuSchema = epm.Schema{Dimension: "mu", Features: []string{
		"File MD5",
		"File size in bytes",
		"File type according to libmagic signatures",
		"(PE) Machine type",
		"(PE) Number of sections",
		"(PE) Number of imported DLLs",
		"(PE) OS version",
		"(PE) Linker version",
		"(PE) Names of the sections",
		"(PE) Imported DLLs",
		"(PE) Referenced Kernel32.dll symbols",
	}}
)

// EpsilonInstance projects one event onto the ε schema. The per-event
// projections are the single source of truth for the feature encodings:
// the batch accessors below and the streaming service (internal/stream)
// both build on them, so an event projects identically whichever path
// consumes it.
func (e Event) EpsilonInstance() epm.Instance {
	return epm.Instance{
		ID:       e.ID,
		Attacker: e.Attacker,
		Sensor:   e.Sensor,
		Values:   []string{e.FSMPath, strconv.Itoa(e.DestPort)},
	}
}

// PiInstance projects one event onto the π schema.
func (e Event) PiInstance() epm.Instance {
	return epm.Instance{
		ID:       e.ID,
		Attacker: e.Attacker,
		Sensor:   e.Sensor,
		Values: []string{
			e.Protocol,
			orNone(e.Filename),
			strconv.Itoa(e.PayloadPort),
			e.Interaction,
		},
	}
}

// MuInstance projects one event onto the μ schema; ok is false when the
// event stored no sample and therefore has no μ facts.
func (e Event) MuInstance() (_ epm.Instance, ok bool) {
	if !e.HasSample() {
		return epm.Instance{}, false
	}
	f := e.Sample
	return epm.Instance{
		ID:       e.ID,
		Attacker: e.Attacker,
		Sensor:   e.Sensor,
		Values: []string{
			f.MD5,
			strconv.Itoa(f.Size),
			f.Magic,
			strconv.Itoa(f.MachineType),
			strconv.Itoa(f.NumSections),
			strconv.Itoa(f.NumImportedDLLs),
			strconv.Itoa(f.OSVersion),
			strconv.Itoa(f.LinkerVersion),
			orNone(f.SectionNames),
			orNone(f.ImportedDLLs),
			orNone(f.Kernel32Symbols),
		},
	}, true
}

// EpsilonInstances projects the events onto the ε schema.
func (d *Dataset) EpsilonInstances() []epm.Instance {
	out := make([]epm.Instance, 0, d.count)
	d.EachEvent(func(e *Event) {
		out = append(out, e.EpsilonInstance())
	})
	return out
}

// PiInstances projects the events onto the π schema.
func (d *Dataset) PiInstances() []epm.Instance {
	out := make([]epm.Instance, 0, d.count)
	d.EachEvent(func(e *Event) {
		out = append(out, e.PiInstance())
	})
	return out
}

// MuInstances projects the events that collected a sample onto the μ
// schema.
func (d *Dataset) MuInstances() []epm.Instance {
	out := make([]epm.Instance, 0, d.count)
	d.EachEvent(func(e *Event) {
		if in, ok := e.MuInstance(); ok {
			out = append(out, in)
		}
	})
	return out
}

// orNone maps the empty string to a stable placeholder: epm treats values
// opaquely, and an empty filename is itself a meaningful observation.
func orNone(s string) string {
	if s == "" {
		return "(none)"
	}
	return s
}

// jsonlRecord wraps either an event or a sample for stream serialization.
type jsonlRecord struct {
	Kind   string  `json:"kind"`
	Event  *Event  `json:"event,omitempty"`
	Sample *Sample `json:"sample,omitempty"`
}

// WriteJSONL streams the dataset as JSON lines: every event, then every
// sample (carrying enrichment state such as profiles and AV labels).
func (d *Dataset) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, c := range d.chunks {
		for i := range c {
			if err := enc.Encode(jsonlRecord{Kind: "event", Event: &c[i]}); err != nil {
				return fmt.Errorf("dataset: encoding event %s: %w", c[i].ID, err)
			}
		}
	}
	for _, s := range d.Samples() {
		if err := enc.Encode(jsonlRecord{Kind: "sample", Sample: s}); err != nil {
			return fmt.Errorf("dataset: encoding sample %s: %w", s.MD5, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL reconstructs a dataset written by WriteJSONL.
func ReadJSONL(r io.Reader) (*Dataset, error) {
	d := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		var rec jsonlRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
		switch rec.Kind {
		case "event":
			if rec.Event == nil {
				return nil, fmt.Errorf("dataset: line %d: event record without event", line)
			}
			if err := d.AddEvent(*rec.Event); err != nil {
				return nil, fmt.Errorf("dataset: line %d: %w", line, err)
			}
		case "sample":
			if rec.Sample == nil {
				return nil, fmt.Errorf("dataset: line %d: sample record without sample", line)
			}
			// Samples follow their events; merge enrichment state into the
			// reconstructed record.
			if s := d.samples[rec.Sample.MD5]; s != nil {
				s.AVLabel = rec.Sample.AVLabel
				s.AVLabels = rec.Sample.AVLabels
				s.Profile = rec.Sample.Profile
			}
		default:
			return nil, fmt.Errorf("dataset: line %d: unknown record kind %q", line, rec.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: reading: %w", err)
	}
	return d, nil
}
