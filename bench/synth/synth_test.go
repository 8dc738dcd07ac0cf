package synth

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/dataset"
)

func bodies(t *testing.T, seed uint64) [][]byte {
	t.Helper()
	batches, err := Encode(NewGen(seed).Events(2000), 64)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(batches))
	for i, b := range batches {
		out[i] = b.Body
	}
	return out
}

func TestSameSeedSameBodies(t *testing.T) {
	a, b := bodies(t, 7), bodies(t, 7)
	if len(a) != len(b) {
		t.Fatalf("%d vs %d batches", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("batch %d differs between two runs of seed 7", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := bodies(t, 7), bodies(t, 8)
	for i := range a {
		if bytes.Equal(a[i], b[i]) {
			t.Fatalf("batch %d identical under seeds 7 and 8", i)
		}
	}
}

func TestCorpusShape(t *testing.T) {
	g := NewGen(3)
	events := g.Events(13000)
	samples := len(g.Samples())
	// Three repeat deliveries per ten new samples.
	if repeats := len(events) - samples; repeats < 2700 || repeats > 3300 {
		t.Fatalf("%d repeat deliveries in %d events, want about 3000", repeats, len(events))
	}
	fams := map[string]bool{}
	for _, e := range events {
		fams[e.Sample.SectionNames] = true
	}
	if len(fams) != Families {
		t.Fatalf("%d families, want %d", len(fams), Families)
	}
}

func TestEnricherIsAFunctionOfTheEvent(t *testing.T) {
	e := NewGen(11).Events(40)[39]
	enrich := func(ds *dataset.Dataset) (string, []string) {
		t.Helper()
		s := ds.Sample(e.Sample.MD5)
		if err := (Enricher{}).LabelSample(s); err != nil {
			t.Fatal(err)
		}
		p, degraded, err := Enricher{}.ExecuteSample(s)
		if err != nil || degraded {
			t.Fatalf("execute: %v, degraded %v", err, degraded)
		}
		return s.AVLabel, p.Features()
	}
	one := dataset.New()
	if err := one.AddEvent(e); err != nil {
		t.Fatal(err)
	}
	// The same sample in a different dataset, delivered later and more
	// often, by another event: only the sample's own fields may matter.
	other := dataset.New()
	for i, id := range []string{"x1", "x2", "x3"} {
		d := e
		d.ID, d.Time, d.Attacker = id, e.Time.AddDate(0, 0, i+1), "203.0.113.9"
		if err := other.AddEvent(d); err != nil {
			t.Fatal(err)
		}
	}
	l1, p1 := enrich(one)
	l2, p2 := enrich(other)
	if l1 != l2 || !reflect.DeepEqual(p1, p2) {
		t.Fatalf("enrichment depends on more than the event: %q %v vs %q %v", l1, p1, l2, p2)
	}
	if n := len(p1); n < coreFeatures || n > coreFeatures+2 {
		t.Fatalf("profile has %d features, want %d to %d", n, coreFeatures, coreFeatures+2)
	}
}

func TestEnricherRejectsForeignSamples(t *testing.T) {
	s := &dataset.Sample{MD5: "abc"}
	if err := (Enricher{}).LabelSample(s); err == nil {
		t.Fatal("labelled a sample with no family tag")
	}
}
