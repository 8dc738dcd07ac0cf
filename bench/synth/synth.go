// Package synth is the benchmark's side of the system under test: the
// seeded event generator, the synthetic enricher the synthetic daemon
// serves with, and the backend constructor the daemon and the traced
// in-process run share.
//
// The generator draws every stochastic choice from the seed: a
// 25-family corpus, each sample carrying 0–2 noise behaviours, a 30%
// repeat-delivery tail (three repeat deliveries of an already seen
// sample for every ten new samples), and an attacker and sensor mix.
// The enricher never sees the seed: a sample's family and noise count
// are read back from the sample's own static fields, so its output is a
// pure function of the event that introduced the sample.
package synth

import (
	"crypto/md5"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/behavior"
	"repro/internal/dataset"
	"repro/internal/httpapi"
	"repro/internal/pe"
	"repro/internal/shard"
	"repro/internal/simrng"
	"repro/internal/stream"
)

const (
	// Families is the number of malware families in the corpus.
	Families = 25
	// coreFeatures is the behaviour count every sample of a family
	// shares; with at most two noise features on top, two samples of one
	// family are at least 18/22 Jaccard-similar, well above the 0.7 link
	// threshold, and two families share nothing.
	coreFeatures = 18
	// sectionPrefix tags the family in the PE section names, the field
	// the enricher reads it back from.
	sectionPrefix = ".text,.data,.fam"
)

// Gen is a seeded event stream. The same seed yields the same events in
// the same order; the stream is unbounded, so a workload can preload a
// prefix and continue it later.
type Gen struct {
	seed    uint64
	r       *rand.Rand
	base    time.Time
	next    int
	samples []string // MD5 of every sample introduced so far
	fams    []int
}

// NewGen starts the stream for seed.
func NewGen(seed uint64) *Gen {
	return &Gen{
		seed: seed,
		r:    simrng.New(seed).Stream("bench-events"),
		base: time.Date(2008, 3, 1, 0, 0, 0, 0, time.UTC),
	}
}

// Samples lists the MD5s of the samples the stream has introduced so far.
func (g *Gen) Samples() []string { return g.samples }

// Next returns the next event.
func (g *Gen) Next() dataset.Event {
	i := g.next
	g.next++
	var md5sum string
	var fam int
	if len(g.samples) > 0 && g.r.Intn(13) < 3 {
		k := g.r.Intn(len(g.samples))
		md5sum, fam = g.samples[k], g.fams[k]
	} else {
		sum := md5.Sum([]byte(fmt.Sprintf("%d/%d", g.seed, len(g.samples))))
		md5sum, fam = hex.EncodeToString(sum[:]), g.r.Intn(Families)
		g.samples = append(g.samples, md5sum)
		g.fams = append(g.fams, fam)
	}
	return dataset.Event{
		ID:   fmt.Sprintf("ev%d-%08d", g.seed, i),
		Time: g.base.Add(time.Duration(i) * time.Second),
		// A few hundred sources behind four /24s, seen by 120 sensors:
		// enough variety that attacker and sensor counts are not
		// invariant, too little for every pattern to be a singleton.
		Attacker:    fmt.Sprintf("198.51.%d.%d", g.r.Intn(4), g.r.Intn(250)),
		Sensor:      fmt.Sprintf("192.0.2.%d", g.r.Intn(120)),
		FSMPath:     fmt.Sprintf("445:s%d", fam%5),
		DestPort:    445,
		Protocol:    []string{"csend", "ftp", "http"}[fam%3],
		Filename:    fmt.Sprintf("drop%d.exe", fam%4),
		PayloadPort: 9000 + fam%6,
		Interaction: "PUSH",
		Sample: pe.Features{
			MD5:             md5sum,
			Size:            20000 + fam*512,
			Magic:           pe.MagicPEGUI,
			IsPE:            true,
			MachineType:     332,
			NumSections:     3 + fam%3,
			NumImportedDLLs: 2 + fam%4,
			OSVersion:       40,
			LinkerVersion:   60 + fam%2,
			SectionNames:    fmt.Sprintf("%s%02d", sectionPrefix, fam),
			ImportedDLLs:    fmt.Sprintf("kernel32.dll,ws2_32.dll,fam%d.dll", fam%7),
			Kernel32Symbols: "CreateFileA,WriteFile",
		},
		DownloadOutcome: "ok",
	}
}

// Events returns the next n events.
func (g *Gen) Events(n int) []dataset.Event {
	out := make([]dataset.Event, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// Batch is one pre-encoded ingest request.
type Batch struct {
	Events []dataset.Event
	Body   []byte
}

// Encode splits events into batches of size and encodes each body the
// way POST /v1/ingest expects it.
func Encode(events []dataset.Event, size int) ([]Batch, error) {
	if size <= 0 {
		return nil, fmt.Errorf("synth: batch size %d", size)
	}
	var out []Batch
	for at := 0; at < len(events); at += size {
		end := min(at+size, len(events))
		body, err := json.Marshal(events[at:end])
		if err != nil {
			return nil, fmt.Errorf("synth: encoding batch at %d: %w", at, err)
		}
		out = append(out, Batch{Events: events[at:end], Body: body})
	}
	return out, nil
}

// Enricher labels and "executes" samples from their static fields
// alone. It is safe for concurrent use.
type Enricher struct{}

// familyOf reads the family back from the section names.
func familyOf(s *dataset.Sample) (int, error) {
	tag, ok := strings.CutPrefix(s.Features.SectionNames, sectionPrefix)
	if !ok {
		return 0, fmt.Errorf("synth: sample %s carries no family tag", s.MD5)
	}
	fam, err := strconv.Atoi(tag)
	if err != nil || fam < 0 || fam >= Families {
		return 0, fmt.Errorf("synth: sample %s has family tag %q", s.MD5, tag)
	}
	return fam, nil
}

// LabelSample implements stream.Enricher.
func (Enricher) LabelSample(s *dataset.Sample) error {
	fam, err := familyOf(s)
	if err != nil {
		return err
	}
	s.AVLabel = fmt.Sprintf("Synth.Fam%02d", fam)
	return nil
}

// ExecuteSample implements stream.Enricher: the family's core
// behaviours plus 0–2 noise behaviours keyed by the sample hash.
func (Enricher) ExecuteSample(s *dataset.Sample) (*behavior.Profile, bool, error) {
	fam, err := familyOf(s)
	if err != nil {
		return nil, false, err
	}
	if len(s.MD5) < 2 {
		return nil, false, fmt.Errorf("synth: sample hash %q too short", s.MD5)
	}
	p := behavior.NewProfile()
	for k := 0; k < coreFeatures; k++ {
		p.Add(fmt.Sprintf("fam%d-f%d", fam, k))
	}
	for k := 0; k < int(s.MD5[0])%3; k++ {
		p.Add(fmt.Sprintf("%s-x%d", s.MD5, k))
	}
	return p, false, nil
}

// Backend is what a daemon hosts: the plain service at one shard, the
// coordinator above, as in landscaped.
type Backend interface {
	httpapi.Backend
	Close()
}

// OpenBackend builds (or recovers) the backend landscaped's serve path
// would build for cfg and shards, around enr. On error the Backend is a
// nil interface, not a nil pointer in one.
func OpenBackend(cfg stream.Config, shards int, enr stream.Enricher) (Backend, error) {
	if shards <= 1 {
		svc, err := stream.New(cfg, enr)
		if err != nil {
			return nil, err
		}
		return svc, nil
	}
	c, err := shard.New(shard.Config{Shards: shards, Stream: cfg}, enr)
	if err != nil {
		return nil, err
	}
	return c, nil
}
