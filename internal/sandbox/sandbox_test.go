package sandbox

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/behavior"
	"repro/internal/netmodel"
	"repro/internal/simrng"
	"repro/internal/simtime"
)

func window(startWeek, endWeek int) simtime.Interval {
	return simtime.Interval{Start: simtime.WeekStart(startWeek), End: simtime.WeekStart(endWeek)}
}

func TestEnvironmentDNS(t *testing.T) {
	env := NewEnvironment()
	ip := netmodel.MustParseIP("203.0.113.5")
	env.AddDNS("cnc.example.net", ip, window(0, 10))

	if got, ok := env.ResolveDNS("cnc.example.net", simtime.WeekStart(5)); !ok || got != ip {
		t.Errorf("ResolveDNS in window = %v %v", got, ok)
	}
	if _, ok := env.ResolveDNS("cnc.example.net", simtime.WeekStart(20)); ok {
		t.Error("ResolveDNS after takedown must fail")
	}
	if _, ok := env.ResolveDNS("other.example.net", simtime.WeekStart(5)); ok {
		t.Error("unknown name must not resolve")
	}
}

func TestEnvironmentDefaultWindowIsStudy(t *testing.T) {
	env := NewEnvironment()
	env.AddDNS("x.example", 1)
	if _, ok := env.ResolveDNS("x.example", simtime.StudyStart); !ok {
		t.Error("default window must cover study start")
	}
	if _, ok := env.ResolveDNS("x.example", simtime.StudyEnd.Add(-time.Hour)); !ok {
		t.Error("default window must cover study end")
	}
}

func TestEnvironmentReachable(t *testing.T) {
	env := NewEnvironment()
	env.AddIRC(netmodel.MustParseIP("203.0.113.5"), 6667, "#idle", &behavior.Program{Name: "idle"}, window(0, 10))
	env.AddDNS("cnc.example.net", netmodel.MustParseIP("203.0.113.5"), window(0, 20))

	if !env.Reachable("203.0.113.5", 6667, simtime.WeekStart(5)) {
		t.Error("literal address must be reachable in window")
	}
	if env.Reachable("203.0.113.5", 6667, simtime.WeekStart(15)) {
		t.Error("endpoint must be unreachable outside window")
	}
	if !env.Reachable("cnc.example.net", 6667, simtime.WeekStart(5)) {
		t.Error("name must resolve and reach")
	}
	// Week 15: DNS alive, endpoint down.
	if env.Reachable("cnc.example.net", 6667, simtime.WeekStart(15)) {
		t.Error("endpoint down must dominate")
	}
	if env.Reachable("unknown.example.net", 6667, simtime.WeekStart(5)) {
		t.Error("unresolvable name must be unreachable")
	}
	if env.Reachable("203.0.113.9", 6667, simtime.WeekStart(5)) {
		t.Error("unregistered endpoint must be unreachable")
	}
}

func TestEnvironmentIRC(t *testing.T) {
	env := NewEnvironment()
	server := netmodel.MustParseIP("67.43.232.36")
	cmds := &behavior.Program{Name: "cmds", Ops: []behavior.Op{{Kind: behavior.OpScanNetwork, Port: 445}}}
	env.AddIRC(server, 6667, "#kok6", cmds, window(0, 8))

	got, ok := env.IRCCommands("67.43.232.36", 6667, "#kok6", simtime.WeekStart(3))
	if !ok || got != cmds {
		t.Errorf("IRCCommands = %v %v", got, ok)
	}
	if _, ok := env.IRCCommands("67.43.232.36", 6667, "#kok6", simtime.WeekStart(9)); ok {
		t.Error("IRC room must go dark outside window")
	}
	if _, ok := env.IRCCommands("67.43.232.36", 6667, "#other", simtime.WeekStart(3)); ok {
		t.Error("unknown room must fail")
	}
	// AddIRC must register the endpoint too.
	if !env.Reachable("67.43.232.36", 6667, simtime.WeekStart(3)) {
		t.Error("IRC server endpoint must be reachable in window")
	}
}

func TestEnvironmentHTTP(t *testing.T) {
	env := NewEnvironment()
	env.AddDNS("iliketay.cn", netmodel.MustParseIP("198.51.100.9"), window(0, 30))
	comp := &behavior.Program{Name: "comp1", Ops: []behavior.Op{{Kind: behavior.OpCreateFile, Path: "c:\\a.exe"}}}
	env.AddHTTP("iliketay.cn", "/one.exe", comp, window(0, 30))

	if _, ok := env.HTTPFetch("iliketay.cn", "/one.exe", simtime.WeekStart(2)); !ok {
		t.Error("fetch in window must succeed")
	}
	if _, ok := env.HTTPFetch("iliketay.cn", "/one.exe", simtime.WeekStart(40)); ok {
		t.Error("fetch after takedown must fail")
	}
	if _, ok := env.HTTPFetch("iliketay.cn", "/missing.exe", simtime.WeekStart(2)); ok {
		t.Error("unknown path must fail")
	}
}

func botProgram() *behavior.Program {
	return &behavior.Program{
		Name: "bot",
		Ops: []behavior.Op{
			{Kind: behavior.OpCreateFile, Path: `C:\WINDOWS\system32\svhost.exe`},
			{Kind: behavior.OpSetRegistry, Path: `HKLM\...\Run\svhost`},
			{Kind: behavior.OpIRCConnect, Host: "67.43.232.36", Port: 6667, Channel: "#kok6", OnFailSkip: 0},
		},
	}
}

func TestRunEmitsExpectedProfile(t *testing.T) {
	env := NewEnvironment()
	cmds := &behavior.Program{Name: "cmds", Ops: []behavior.Op{{Kind: behavior.OpScanNetwork, Port: 445}}}
	env.AddIRC(netmodel.MustParseIP("67.43.232.36"), 6667, "#kok6", cmds, window(0, 20))

	sb := New(env, 0, simrng.New(1))
	rep := sb.Run(botProgram(), simtime.WeekStart(5), "sample-1")

	want := []string{
		"file-create|C:\\WINDOWS\\system32\\svhost.exe",
		"registry-set|HKLM\\...\\Run\\svhost",
		"irc|67.43.232.36:6667|#kok6",
		"scan|tcp/445",
	}
	for _, f := range want {
		if !has(rep.Profile, f) {
			t.Errorf("profile missing %q; got %v", f, rep.Profile.Features())
		}
	}
	if rep.Degraded || rep.BudgetExhausted {
		t.Errorf("unexpected flags: %+v", rep)
	}
}

func TestRunEnvironmentChangesProfile(t *testing.T) {
	env := NewEnvironment()
	cmds := &behavior.Program{Name: "cmds", Ops: []behavior.Op{{Kind: behavior.OpScanNetwork, Port: 445}}}
	env.AddIRC(netmodel.MustParseIP("67.43.232.36"), 6667, "#kok6", cmds, window(0, 10))

	sb := New(env, 0, simrng.New(1))
	alive := sb.Run(botProgram(), simtime.WeekStart(5), "s1")
	dead := sb.Run(botProgram(), simtime.WeekStart(15), "s2")

	if !has(alive.Profile, "irc|67.43.232.36:6667|#kok6") {
		t.Error("alive run must join IRC")
	}
	if has(dead.Profile, "irc|67.43.232.36:6667|#kok6") {
		t.Error("dead run must not join IRC")
	}
	if !has(dead.Profile, "tcp-connect|67.43.232.36:6667|fail") {
		t.Errorf("dead run must record the failed connection; got %v", dead.Profile.Features())
	}
	if sim := jaccard(t, alive.Profile, dead.Profile); sim > 0.8 {
		t.Errorf("profiles too similar (%.2f) despite environment change", sim)
	}
}

func TestRunOnFailSkip(t *testing.T) {
	prog := &behavior.Program{
		Name: "dl",
		Ops: []behavior.Op{
			{Kind: behavior.OpDNSResolve, Host: "iliketay.cn", OnFailSkip: 2},
			{Kind: behavior.OpHTTPDownload, Host: "iliketay.cn", Path: "/one.exe"},
			{Kind: behavior.OpHTTPDownload, Host: "iliketay.cn", Path: "/two.exe"},
			{Kind: behavior.OpCreateMutex, Path: "done"},
		},
	}
	sb := New(NewEnvironment(), 0, simrng.New(2)) // empty env: DNS fails
	rep := sb.Run(prog, simtime.WeekStart(1), "s")
	if !has(rep.Profile, "dns-resolve|iliketay.cn|fail") {
		t.Error("missing failed dns feature")
	}
	for _, f := range rep.Profile.Features() {
		if f == "http-download|iliketay.cn/one.exe|fail" {
			t.Error("downloads must be skipped after dns failure")
		}
	}
	if !has(rep.Profile, "mutex-create|done") {
		t.Error("op after skip range must execute")
	}
}

func TestRunComponentDownloadRecursion(t *testing.T) {
	env := NewEnvironment()
	env.AddDNS("iliketay.cn", netmodel.MustParseIP("198.51.100.9"))
	inner := &behavior.Program{Name: "component-a", Ops: []behavior.Op{
		{Kind: behavior.OpSetRegistry, Path: `HKLM\...\Run\comp`},
	}}
	env.AddHTTP("iliketay.cn", "/one.exe", inner)

	prog := &behavior.Program{Name: "dropper", Ops: []behavior.Op{
		{Kind: behavior.OpHTTPDownload, Host: "iliketay.cn", Path: "/one.exe"},
	}}
	sb := New(env, 0, simrng.New(3))
	rep := sb.Run(prog, simtime.WeekStart(1), "s")
	if !has(rep.Profile, "http-download|iliketay.cn/one.exe|ok") {
		t.Error("download feature missing")
	}
	if !has(rep.Profile, "process-create|component-a") {
		t.Error("component execution feature missing")
	}
	if !has(rep.Profile, `registry-set|HKLM\...\Run\comp`) {
		t.Error("component behaviour missing from profile")
	}
}

func TestRunVolatileFeatures(t *testing.T) {
	prog := &behavior.Program{Name: "v", Ops: []behavior.Op{
		{Kind: behavior.OpCreateMutex, Path: "rnd", Volatile: true},
		{Kind: behavior.OpCreateFile, Path: "stable"},
	}}
	sb := New(nil, 0, simrng.New(4))
	a := sb.Run(prog, simtime.WeekStart(1), "run-a")
	b := sb.Run(prog, simtime.WeekStart(1), "run-b")

	if !has(a.Profile, "file-create|stable") || !has(b.Profile, "file-create|stable") {
		t.Fatal("stable feature missing")
	}
	// The volatile mutex feature must differ between runs.
	var mutexA, mutexB string
	for _, f := range a.Profile.Features() {
		if len(f) > 13 && f[:13] == "mutex-create|" {
			mutexA = f
		}
	}
	for _, f := range b.Profile.Features() {
		if len(f) > 13 && f[:13] == "mutex-create|" {
			mutexB = f
		}
	}
	if mutexA == "" || mutexB == "" || mutexA == mutexB {
		t.Errorf("volatile features must differ per run: %q vs %q", mutexA, mutexB)
	}
}

func TestRunDeterministicPerKey(t *testing.T) {
	prog := &behavior.Program{Name: "v", Fragility: 0.5, Ops: []behavior.Op{
		{Kind: behavior.OpCreateMutex, Path: "rnd", Volatile: true},
		{Kind: behavior.OpCreateFile, Path: "stable"},
	}}
	sb := New(nil, 0, simrng.New(5))
	a := sb.Run(prog, simtime.WeekStart(1), "same-key")
	b := sb.Run(prog, simtime.WeekStart(1), "same-key")
	fa, fb := a.Profile.Features(), b.Profile.Features()
	if len(fa) != len(fb) {
		t.Fatalf("profiles differ: %v vs %v", fa, fb)
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("profiles differ at %d: %v vs %v", i, fa, fb)
		}
	}
}

func TestRunFragility(t *testing.T) {
	ops := make([]behavior.Op, 10)
	for i := range ops {
		ops[i] = behavior.Op{Kind: behavior.OpCreateFile, Path: fmt.Sprintf("f%d", i)}
	}
	prog := &behavior.Program{Name: "fragile", Fragility: 1, Ops: ops}
	sb := New(nil, 0, simrng.New(6))
	rep := sb.Run(prog, simtime.WeekStart(1), "s")
	if !rep.Degraded {
		t.Fatal("fragility 1 must degrade")
	}
	noise := 0
	normal := 0
	for _, f := range rep.Profile.Features() {
		if len(f) >= 6 && f[:6] == "noise|" {
			noise++
		} else {
			normal++
		}
	}
	if noise == 0 {
		t.Error("degraded run must contain noise features")
	}
	if normal >= len(ops) {
		t.Error("degraded run must truncate the op sequence")
	}
}

func TestRunFragilityRate(t *testing.T) {
	prog := &behavior.Program{Name: "p", Fragility: 0.2, Ops: []behavior.Op{
		{Kind: behavior.OpCreateFile, Path: "f"},
		{Kind: behavior.OpCreateFile, Path: "g"},
	}}
	sb := New(nil, 0, simrng.New(7))
	degraded := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if sb.Run(prog, simtime.WeekStart(1), fmt.Sprintf("s%d", i)).Degraded {
			degraded++
		}
	}
	rate := float64(degraded) / n
	if rate < 0.15 || rate > 0.25 {
		t.Errorf("degraded rate = %.3f, want ~0.2", rate)
	}
}

func TestRunBudgetExhaustion(t *testing.T) {
	prog := &behavior.Program{Name: "sleeper", Ops: []behavior.Op{
		{Kind: behavior.OpCreateFile, Path: "before"},
		{Kind: behavior.OpSleep, Seconds: 600},
		{Kind: behavior.OpCreateFile, Path: "after"},
	}}
	sb := New(nil, 0, simrng.New(8))
	rep := sb.Run(prog, simtime.WeekStart(1), "s")
	if !rep.BudgetExhausted {
		t.Error("10-minute sleep must exhaust the 4-minute budget")
	}
	if !has(rep.Profile, "file-create|before") {
		t.Error("pre-sleep op must run")
	}
	if has(rep.Profile, "file-create|after") {
		t.Error("post-sleep op must not run")
	}
}

func TestRunCustomBudget(t *testing.T) {
	prog := &behavior.Program{Name: "sleeper", Ops: []behavior.Op{
		{Kind: behavior.OpSleep, Seconds: 30},
		{Kind: behavior.OpCreateFile, Path: "after"},
	}}
	sb := New(nil, time.Hour, simrng.New(9))
	rep := sb.Run(prog, simtime.WeekStart(1), "s")
	if rep.BudgetExhausted || !has(rep.Profile, "file-create|after") {
		t.Errorf("hour budget must allow completion: %+v", rep)
	}
}

func TestRunRecursionDepthBounded(t *testing.T) {
	env := NewEnvironment()
	env.AddDNS("loop.example", 1)
	// A component that downloads itself forever.
	self := &behavior.Program{Name: "self"}
	self.Ops = []behavior.Op{{Kind: behavior.OpHTTPDownload, Host: "loop.example", Path: "/self"}}
	env.AddHTTP("loop.example", "/self", self)

	sb := New(env, time.Hour, simrng.New(10))
	rep := sb.Run(self, simtime.WeekStart(1), "s")
	if rep.OpsExecuted > 20 {
		t.Errorf("recursion not bounded: %d ops", rep.OpsExecuted)
	}
}

func BenchmarkRun(b *testing.B) {
	env := NewEnvironment()
	cmds := &behavior.Program{Name: "cmds", Ops: []behavior.Op{{Kind: behavior.OpScanNetwork, Port: 445}}}
	env.AddIRC(netmodel.MustParseIP("67.43.232.36"), 6667, "#kok6", cmds)
	sb := New(env, 0, simrng.New(11))
	prog := botProgram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sb.Run(prog, simtime.WeekStart(5), "bench")
	}
}

// has reports whether the profile holds the feature.
func has(p *behavior.Profile, feature string) bool {
	return slices.Contains(p.Features(), feature)
}

// jaccard is the Jaccard similarity of two profiles' interned sets.
func jaccard(t *testing.T, a, b *behavior.Profile) float64 {
	t.Helper()
	sa, err := behavior.Intern(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := behavior.Intern(b)
	if err != nil {
		t.Fatal(err)
	}
	return sa.Hashes().Jaccard(sb.Hashes())
}
