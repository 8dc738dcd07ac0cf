package scriptgen

import (
	"fmt"
	"testing"

	"repro/internal/exploit"
	"repro/internal/simrng"
)

func testImpl(t *testing.T, vulnName string, port int, vulnSeed, implSeed uint64, implName string) *exploit.Implementation {
	t.Helper()
	v, err := exploit.NewVulnerability(vulnName, port, 3, vulnSeed)
	if err != nil {
		t.Fatal(err)
	}
	impl, err := exploit.NewImplementation(v, implName, implSeed)
	if err != nil {
		t.Fatal(err)
	}
	return impl
}

func TestPatternMatches(t *testing.T) {
	p := Pattern{
		Regions: []Region{{Offset: 0, Bytes: []byte("HEAD")}, {Offset: 8, Bytes: []byte("TOKN")}},
		MinLen:  12,
	}
	tests := []struct {
		name string
		msg  string
		want bool
	}{
		{"exact", "HEADxxxxTOKN", true},
		{"longer", "HEADxxxxTOKNpayload", true},
		{"wrong head", "DEADxxxxTOKN", false},
		{"wrong token", "HEADxxxxTOKX", false},
		{"too short", "HEADxxxxTOK", false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := p.Matches([]byte(tt.msg)); got != tt.want {
				t.Errorf("Matches(%q) = %v, want %v", tt.msg, got, tt.want)
			}
		})
	}
}

func TestGeneralize(t *testing.T) {
	exemplars := [][]byte{
		[]byte("FIXEDaaaaSUFFIXz1"),
		[]byte("FIXEDbbbbSUFFIXz2"),
		[]byte("FIXEDccccSUFFIXz3extra"),
	}
	p := generalize(exemplars)
	if p.MinLen != 17 {
		t.Errorf("MinLen = %d, want 17", p.MinLen)
	}
	if len(p.Regions) != 2 {
		t.Fatalf("regions = %+v, want 2 fixed runs", p.Regions)
	}
	if string(p.Regions[0].Bytes) != "FIXED" || p.Regions[0].Offset != 0 {
		t.Errorf("region 0 = %+v", p.Regions[0])
	}
	if string(p.Regions[1].Bytes) != "SUFFIXz" || p.Regions[1].Offset != 9 {
		t.Errorf("region 1 = %+v", p.Regions[1])
	}
	for _, e := range exemplars {
		if !p.Matches(e) {
			t.Errorf("generalized pattern must match its own exemplar %q", e)
		}
	}
	if !p.Matches([]byte("FIXEDxyzwSUFFIXz9")) {
		t.Error("pattern must match a fresh instance with different volatile bytes")
	}
	if p.Matches([]byte("BROKNaaaaSUFFIXz1")) {
		t.Error("pattern must reject a different fixed prefix")
	}
}

func TestGeneralizeIgnoresShortRuns(t *testing.T) {
	// Two exemplars agreeing only on 3 scattered bytes must produce no
	// fixed region of that run.
	a := []byte{1, 2, 3, 9, 9, 9, 9, 9}
	b := []byte{1, 2, 3, 8, 8, 8, 8, 8}
	p := generalize([][]byte{a, b})
	if len(p.Regions) != 0 {
		t.Errorf("regions = %+v, want none (run shorter than %d)", p.Regions, minRunLen)
	}
}

// randPayload returns shellcode-like bytes: random content, variable length.
func randPayload(r interface{ Read([]byte) (int, error) }, n int) []byte {
	b := make([]byte, n)
	_, _ = r.Read(b)
	return b
}

func TestFSMLearnsOneImplementation(t *testing.T) {
	impl := testImpl(t, "asn1", 445, 1, 2, "impl-a")
	r := simrng.New(5).Stream("learn")
	f := NewFSM(445, 3)

	// First two dialogs must be proxied (no matured edges yet).
	for i := 0; i < 2; i++ {
		res := f.Learn(impl.Dialog(r, randPayload(r, 60+i)).ClientMessages())
		if !res.Proxied {
			t.Fatalf("dialog %d: want proxied", i)
		}
	}
	// Third dialog matures the edges.
	res := f.Learn(impl.Dialog(r, randPayload(r, 80)).ClientMessages())
	if res.NewEdges == 0 {
		t.Fatal("third dialog should mature edges")
	}
	// Fourth dialog is handled autonomously.
	res = f.Learn(impl.Dialog(r, randPayload(r, 90)).ClientMessages())
	if res.Proxied {
		t.Error("fourth dialog should be handled by the FSM without proxying")
	}
	// And classification succeeds with a stable path.
	p1, ok1 := f.Classify(impl.Dialog(r, randPayload(r, 10)).ClientMessages())
	p2, ok2 := f.Classify(impl.Dialog(r, randPayload(r, 300)).ClientMessages())
	if !ok1 || !ok2 {
		t.Fatal("classification failed after maturity")
	}
	if p1 != p2 {
		t.Errorf("same implementation produced different paths: %q vs %q", p1, p2)
	}
}

func TestFSMSeparatesImplementations(t *testing.T) {
	implA := testImpl(t, "asn1", 445, 1, 2, "impl-a")
	implB := testImpl(t, "asn1", 445, 1, 3, "impl-b")
	r := simrng.New(5).Stream("separate")
	f := NewFSM(445, 3)
	for i := 0; i < 5; i++ {
		f.Learn(implA.Dialog(r, randPayload(r, 40+i)).ClientMessages())
		f.Learn(implB.Dialog(r, randPayload(r, 50+i)).ClientMessages())
	}
	pa, okA := f.Classify(implA.Dialog(r, randPayload(r, 33)).ClientMessages())
	pb, okB := f.Classify(implB.Dialog(r, randPayload(r, 44)).ClientMessages())
	if !okA || !okB {
		t.Fatal("classification failed")
	}
	if pa == pb {
		t.Errorf("different implementations share FSM path %q", pa)
	}
}

func TestFSMPathStableAcrossPayloads(t *testing.T) {
	impl := testImpl(t, "asn1", 445, 1, 2, "impl-a")
	r := simrng.New(6).Stream("payloads")
	f := NewFSM(445, 3)
	// Learn with varied payloads, classify with extreme lengths.
	for i := 0; i < 5; i++ {
		f.Learn(impl.Dialog(r, randPayload(r, 30+17*i)).ClientMessages())
	}
	long := make([]byte, 600)
	r.Read(long)
	p, ok := f.Classify(impl.Dialog(r, long).ClientMessages())
	if !ok {
		t.Fatal("long-payload dialog not classified")
	}
	short, okShort := f.Classify(impl.Dialog(r, []byte("s")).ClientMessages())
	if !okShort {
		t.Fatal("short-payload dialog not classified")
	}
	if p != short {
		t.Errorf("payload length changed the FSM path: %q vs %q", p, short)
	}
}

func TestClassifyUnknownFails(t *testing.T) {
	implA := testImpl(t, "asn1", 445, 1, 2, "impl-a")
	implB := testImpl(t, "asn1", 445, 1, 3, "impl-b")
	r := simrng.New(7).Stream("unknown")
	f := NewFSM(445, 3)
	for i := 0; i < 5; i++ {
		f.Learn(implA.Dialog(r, nil).ClientMessages())
	}
	if _, ok := f.Classify(implB.Dialog(r, nil).ClientMessages()); ok {
		t.Error("unlearned implementation must not classify")
	}
}

func TestRareActivityNeverMatures(t *testing.T) {
	impl := testImpl(t, "rare", 5000, 9, 10, "impl-r")
	r := simrng.New(8).Stream("rare")
	f := NewFSM(5000, 3)
	f.Learn(impl.Dialog(r, nil).ClientMessages())
	if f.Edges() != 0 {
		t.Errorf("edges = %d after a single observation, want 0", f.Edges())
	}
	if pendingBins(f) == 0 {
		t.Error("a pending bin must exist")
	}
	if _, ok := f.Classify(impl.Dialog(r, nil).ClientMessages()); ok {
		t.Error("immature activity must not classify")
	}
}

func TestSetMultiplePorts(t *testing.T) {
	impl445 := testImpl(t, "asn1", 445, 1, 2, "impl-a")
	impl135 := testImpl(t, "dcom", 135, 3, 4, "impl-c")
	r := simrng.New(9).Stream("set")
	s := NewSet(3)
	for i := 0; i < 5; i++ {
		s.Learn(445, impl445.Dialog(r, nil).ClientMessages())
		s.Learn(135, impl135.Dialog(r, nil).ClientMessages())
	}
	ports := s.Ports()
	if len(ports) != 2 || ports[0] != 135 || ports[1] != 445 {
		t.Fatalf("Ports = %v", ports)
	}
	p445, ok := s.Classify(445, impl445.Dialog(r, nil).ClientMessages())
	if !ok {
		t.Fatal("port 445 dialog not classified")
	}
	p135, ok := s.Classify(135, impl135.Dialog(r, nil).ClientMessages())
	if !ok {
		t.Fatal("port 135 dialog not classified")
	}
	if p445 == p135 {
		t.Error("paths on different ports must differ")
	}
	if _, ok := s.Classify(9999, nil); ok {
		t.Error("unknown port must not classify")
	}
}

func TestLearningDeterminism(t *testing.T) {
	build := func() *FSM {
		implA := testImpl(t, "asn1", 445, 1, 2, "impl-a")
		implB := testImpl(t, "asn1", 445, 1, 3, "impl-b")
		r := simrng.New(10).Stream("det")
		f := NewFSM(445, 3)
		for i := 0; i < 6; i++ {
			f.Learn(implA.Dialog(r, []byte{byte(i)}).ClientMessages())
			f.Learn(implB.Dialog(r, []byte{byte(i)}).ClientMessages())
		}
		return f
	}
	f1, f2 := build(), build()
	implA := testImpl(t, "asn1", 445, 1, 2, "impl-a")
	r := simrng.New(11).Stream("det2")
	d := implA.Dialog(r, []byte("probe")).ClientMessages()
	p1, ok1 := f1.Classify(d)
	p2, ok2 := f2.Classify(d)
	if !ok1 || !ok2 || p1 != p2 {
		t.Errorf("learning is not deterministic: %q/%v vs %q/%v", p1, ok1, p2, ok2)
	}
}

func TestManyImplementationsManyPaths(t *testing.T) {
	r := simrng.New(12).Stream("many")
	f := NewFSM(445, 3)
	const nImpl = 10
	impls := make([]*exploit.Implementation, nImpl)
	for i := range impls {
		impls[i] = testImpl(t, "asn1", 445, 1, uint64(100+i), fmt.Sprintf("impl-%d", i))
	}
	for round := 0; round < 5; round++ {
		for _, impl := range impls {
			f.Learn(impl.Dialog(r, []byte("p")).ClientMessages())
		}
	}
	paths := map[string]bool{}
	for _, impl := range impls {
		p, ok := f.Classify(impl.Dialog(r, []byte("q")).ClientMessages())
		if !ok {
			t.Fatalf("implementation %s not classified", impl.Name)
		}
		paths[p] = true
	}
	if len(paths) != nImpl {
		t.Errorf("distinct paths = %d, want %d", len(paths), nImpl)
	}
}

func BenchmarkLearn(b *testing.B) {
	v, _ := exploit.NewVulnerability("asn1", 445, 3, 1)
	impl, _ := exploit.NewImplementation(v, "impl-a", 2)
	r := simrng.New(13).Stream("bench")
	dialogs := make([][][]byte, 64)
	for i := range dialogs {
		dialogs[i] = impl.Dialog(r, []byte("payload")).ClientMessages()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := NewFSM(445, 3)
		for _, d := range dialogs {
			f.Learn(d)
		}
	}
}

func BenchmarkClassify(b *testing.B) {
	v, _ := exploit.NewVulnerability("asn1", 445, 3, 1)
	impl, _ := exploit.NewImplementation(v, "impl-a", 2)
	r := simrng.New(14).Stream("bench2")
	f := NewFSM(445, 3)
	for i := 0; i < 8; i++ {
		payload := make([]byte, 50+i)
		r.Read(payload)
		f.Learn(impl.Dialog(r, payload).ClientMessages())
	}
	d := impl.Dialog(r, []byte("probe")).ClientMessages()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := f.Classify(d); !ok {
			b.Fatal("classification failed")
		}
	}
}
