package repro

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// keptUnreached lists the internal packages that no non-test file
// imports, and the functions and methods under internal/ and cmd/ that
// no binary reaches, which are kept on purpose. Each entry says why.
// Packages are named by their directory ("internal/chaos"); functions
// and methods by package and name ("julisch.Run", "faultfs.Faulty.ReadFile"),
// with a command's package named by its directory ("cmd/epm.run").
//
// Every function entry is a root of the walk, so what only it calls is
// not reported too; an entry that a binary's own roots reach is.
var keptUnreached = map[string]string{
	"internal/julisch":         "baseline of BenchmarkEPMvsJulisch, the ablation of EPM against the attribute-oriented induction it simplifies",
	"julisch.Run":              "entry point of the BenchmarkEPMvsJulisch ablation",
	"julisch.SizeBuckets":      "the file-size hierarchy BenchmarkEPMvsJulisch gives the Julisch baseline",
	"julisch.Result.ClusterOf": "the per-event cluster lookup BenchmarkEPMvsJulisch scores the Julisch partition with",
	"pehash.Run":               "baseline of BenchmarkPeHashBaseline, the ablation of EPM against peHash clustering",
	"pehash.Result.ClusterOf":  "the per-sample cluster lookup BenchmarkPeHashBaseline scores the peHash partition with",

	"internal/chaos":  "disk-fault soak run by its own test and make smoke-chaos, until one seeded operation scheduler subsumes it",
	"chaos.Corpus":    "event corpus of the chaos soak",
	"chaos.Schedules": "fault schedules of the chaos soak",
	"chaos.Soak":      "the chaos soak itself",

	"faultfs.Faulty.ReadFile": "faultfs.FS declares ReadFile because bench/trace.go's timing wrapper calls it through the interface",
	"faultfs.osFS.ReadFile":   "faultfs.FS declares ReadFile because bench/trace.go's timing wrapper calls it through the interface",

	"enrich.NewFaulty":                "fault injector that the stream retry and checkpoint tests and landscaped's convergence test wrap around an enricher",
	"enrich.FaultyEnricher.Injected":  "lets those tests check how many faults the injector raised",
	"epm.Clustering.TotalInvariants":  "the per-dimension Table 1 total that bench_test.go's invariant benchmarks report",
	"stream.Service.EPMClustering":    "the member lists that the stream ≡ batch and admission convergence tests compare; the served EPMClusters view carries only sizes",
	"shard.Coordinator.EPMClustering": "the member lists that the N-shard ≡ 1-shard tests compare; the served EPMClusters view carries only sizes",
	"shard.Coordinator.BResult":       "the merged B partition that the N-shard ≡ 1-shard and loadgen flood tests compare; the served BClusters view carries only sizes",
	"behavior.Profile.Features":       "the sorted feature list bench/synth's TestEnricherIsAFunctionOfTheEvent compares; binaries read an interned Set's names instead",
}

// stdlibMethods are method names that the standard library calls
// through its interfaces (fmt.Stringer, error, io.Reader, sort.Interface,
// http.Handler, json.Marshaler, flag.Value, fs.FS, ...). A method with
// one of these names counts as reached: passing its value to the
// library is enough to call it.
var stdlibMethods = []string{
	"String", "GoString", "Format", "Error", "Unwrap", "Is", "As",
	"Timeout", "Temporary",
	"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText",
	"MarshalBinary", "UnmarshalBinary",
	"Read", "Write", "Close", "Seek", "ReadAt", "WriteAt", "ReadFrom",
	"WriteTo", "ReadByte", "WriteByte", "UnreadByte", "ReadRune",
	"WriteString", "Sync", "Flush",
	"Len", "Less", "Swap", "Push", "Pop",
	"ServeHTTP", "RoundTrip",
	"Set", "Get", "IsBoolFlag",
	"Open", "Stat", "ReadDir", "Name", "Size", "Mode", "ModTime", "IsDir",
	"Sys", "Type", "Info",
	"Deadline", "Done", "Err", "Value",
	"Accept", "Addr", "LocalAddr", "RemoteAddr",
	"SetDeadline", "SetReadDeadline", "SetWriteDeadline",
}

// TestEveryFunctionIsReached type-checks the module and bench/ and walks
// them from every binary's entry points. It fails on an internal package
// that no non-test file imports, or on a function or method under
// internal/ or cmd/ that no binary reaches, unless keptUnreached names
// it. Test files are skipped, so code that only tests call counts as
// unreached.
//
// The roots are every main function, every init function, every
// package-level var initializer, and every method named in
// stdlibMethods. From there, a call, function value or method value
// reaches the one function it names; through an interface method, it
// reaches that method on every program type that implements the
// interface. A field read names no function.
func TestEveryFunctionIsReached(t *testing.T) {
	for _, f := range loadProgram(t, ".", "repro").findings(keptUnreached) {
		t.Error(f)
	}
}

// TestReachIgnoresFieldReads runs the walk over a fixture whose binary
// reads a struct field that shares its name with a method nothing
// calls: the field read must leave the method unreached.
func TestReachIgnoresFieldReads(t *testing.T) {
	prog := loadProgram(t, "testdata/reach", "fixture")
	reached := prog.reach(nil)
	if !reached[prog.funcs["lib.Run"]] {
		t.Fatal("the fixture's main does not reach lib.Run; the walk is broken")
	}
	if reached[prog.funcs["lib.Counter.Count"]] {
		t.Error("a read of the field Stats.Count reached the method Counter.Count")
	}
	if !reached[prog.funcs["lib.Counter.Reset"]] {
		t.Error("the method value c.Reset did not reach Counter.Reset")
	}
}

// TestReachFixtureFindings compares the walk's findings over the fixture
// with the dead code the fixture plants, with and without an allowlist.
func TestReachFixtureFindings(t *testing.T) {
	prog := loadProgram(t, "testdata/reach", "fixture")
	for _, tc := range []struct {
		name string
		kept map[string]string
		want []string
	}{{
		name: "no allowlist",
		want: []string{
			"lib.Counter.Count is declared but no binary reaches it",
			"lib.Gauge.Add is declared but no binary reaches it", // hidden by Counter.Add under a walk by name
			"lib.helper is declared but no binary reaches it",
			"lib.unused is declared but no binary reaches it",
		},
	}, {
		name: "allowlist",
		kept: map[string]string{
			"lib.unused":        "a root: its callee lib.helper is not reported",
			"lib.Counter.Count": "kept",
			"lib.Clock.Tick":    "reached through the interface Ticker",
			"lib.Gone":          "names nothing",
		},
		want: []string{
			"keptUnreached names lib.Clock.Tick, which is in use",
			"keptUnreached names lib.Gone, which does not exist",
			"lib.Gauge.Add is declared but no binary reaches it",
		},
	}} {
		if got := prog.findings(tc.kept); !slices.Equal(got, tc.want) {
			t.Errorf("%s: findings\n\t%s\nwant\n\t%s", tc.name, strings.Join(got, "\n\t"), strings.Join(tc.want, "\n\t"))
		}
	}
}

// program is the type-checked non-test source of a module, bench/
// included: bench/ is its own module, repro/bench, so it falls under the
// same mapping from directory to import path.
type program struct {
	mod      string                         // module path
	pkgs     map[string]bool                // import paths of the loaded packages
	imported map[string]bool                // import paths some non-test file imports
	funcs    map[string]*types.Func         // by name, as keptUnreached spells it
	bodies   map[*types.Func]*ast.BlockStmt // the declared functions' bodies
	named    []types.Type                   // the declared non-interface types
	roots    []ast.Node                     // main and init bodies, package-level var initializers
	uses     map[*ast.Ident]types.Object
}

// loadProgram parses every non-test .go file under root, whose import
// path is modPath, and type-checks it. The standard library is
// type-checked from its source.
func loadProgram(t *testing.T, root, modPath string) *program {
	t.Helper()
	prog := &program{
		mod:      modPath,
		pkgs:     map[string]bool{},
		imported: map[string]bool{},
		funcs:    map[string]*types.Func{},
		bodies:   map[*types.Func]*ast.BlockStmt{},
	}
	fset := token.NewFileSet()
	files := map[string][]*ast.File{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		ip := path.Join(modPath, filepath.ToSlash(rel))
		files[ip] = append(files[ip], f)
		prog.pkgs[ip] = true
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			prog.imported[p] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	std := importer.ForCompiler(fset, "source", nil)
	checked := map[string]*types.Package{}
	var imp importerFunc
	imp = func(ip string) (*types.Package, error) {
		if pkg, ok := checked[ip]; ok {
			return pkg, nil
		}
		if !prog.pkgs[ip] {
			return std.Import(ip)
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(ip, fset, files[ip], info)
		if err != nil {
			return nil, err
		}
		checked[ip] = pkg
		return pkg, nil
	}
	for ip, pkgFiles := range files {
		pkg, err := imp(ip)
		if err != nil {
			t.Fatal(err)
		}
		prog.declare(t, pkg, pkgFiles, info)
	}
	prog.uses = info.Uses
	return prog
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// declare records one package's functions, roots and types.
func (prog *program) declare(t *testing.T, pkg *types.Package, files []*ast.File, info *types.Info) {
	qual := pkg.Name()
	if qual == "main" {
		qual = strings.TrimPrefix(pkg.Path(), prog.mod+"/")
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, v := range spec.Values {
							prog.roots = append(prog.roots, v)
						}
					case *ast.TypeSpec:
						if tn := info.Defs[spec.Name].(*types.TypeName); !tn.IsAlias() && !types.IsInterface(tn.Type()) {
							prog.named = append(prog.named, tn.Type())
						}
					}
				}
			case *ast.FuncDecl:
				fn := info.Defs[d.Name].(*types.Func)
				name := d.Name.Name
				switch recv := fn.Type().(*types.Signature).Recv(); {
				case recv != nil:
					rt := recv.Type()
					if p, ok := rt.(*types.Pointer); ok {
						rt = p.Elem()
					}
					name = rt.(*types.Named).Obj().Name() + "." + name
				case name == "init", name == "main" && pkg.Name() == "main":
					prog.roots = append(prog.roots, d.Body)
					continue
				}
				name = qual + "." + name
				if prog.funcs[name] != nil {
					t.Fatalf("two functions are named %s", name)
				}
				prog.funcs[name] = fn
				prog.bodies[fn] = d.Body
			}
		}
	}
}

// reach returns every function and method reachable from the program's
// roots and from extra.
func (prog *program) reach(extra []*types.Func) map[*types.Func]bool {
	reached := map[*types.Func]bool{}
	work := append([]ast.Node(nil), prog.roots...)
	mark := func(fn *types.Func) {
		if fn = fn.Origin(); !reached[fn] {
			reached[fn] = true
			if body := prog.bodies[fn]; body != nil {
				work = append(work, body)
			}
		}
	}
	// use marks the function an identifier names. An interface method
	// stands for the method of that name on every program type that
	// implements the interface.
	use := func(fn *types.Func) {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil || !types.IsInterface(recv.Type()) {
			mark(fn)
			return
		}
		if reached[fn] {
			return
		}
		reached[fn] = true
		iface := recv.Type().Underlying().(*types.Interface)
		for _, t := range prog.named {
			if ptr := types.NewPointer(t); types.Implements(ptr, iface) {
				obj, _, _ := types.LookupFieldOrMethod(ptr, false, fn.Pkg(), fn.Name())
				mark(obj.(*types.Func))
			}
		}
	}
	for _, fn := range prog.funcs {
		if slices.Contains(stdlibMethods, fn.Name()) && fn.Type().(*types.Signature).Recv() != nil {
			mark(fn)
		}
	}
	for _, fn := range extra {
		mark(fn)
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := prog.uses[id].(*types.Func); ok {
					use(fn)
				}
			}
			return true
		})
	}
	return reached
}

// findings lists what the walk reports: a package under internal/ that
// no non-test file imports, a function or method under internal/ or
// cmd/ that no binary reaches, and an allowlist entry that is in use or
// names nothing. The allowlist's functions are roots, but whether an
// entry is in use is judged from the binaries' roots alone.
func (prog *program) findings(kept map[string]string) []string {
	var extra []*types.Func
	for name := range kept {
		if fn := prog.funcs[name]; fn != nil {
			extra = append(extra, fn)
		}
	}
	used, reached := prog.reach(nil), prog.reach(extra)
	var out []string
	judge := func(name string, used, reached bool, why string) {
		_, isKept := kept[name]
		switch {
		case used && isKept:
			out = append(out, "keptUnreached names "+name+", which is in use")
		case !reached && !isKept:
			out = append(out, name+why)
		}
	}
	for ip := range prog.pkgs {
		if dir := strings.TrimPrefix(ip, prog.mod+"/"); strings.HasPrefix(dir, "internal/") {
			judge(dir, prog.imported[ip], prog.imported[ip], " has no non-test importer")
		}
	}
	for name, fn := range prog.funcs {
		if dir := strings.TrimPrefix(fn.Pkg().Path(), prog.mod+"/"); strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/") {
			judge(name, used[fn], reached[fn], " is declared but no binary reaches it")
		}
	}
	for name := range kept {
		if !prog.pkgs[prog.mod+"/"+name] && prog.funcs[name] == nil {
			out = append(out, "keptUnreached names "+name+", which does not exist")
		}
	}
	sort.Strings(out)
	return out
}
