package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// keptUnreached lists the internal packages that no non-test file
// imports, and the exported functions and methods under internal/ that no
// binary reaches, which are kept on purpose. Each entry says why.
// Packages are named by their directory ("internal/chaos"); functions
// and methods by package and name ("julisch.Run", "faultfs.Faulty.ReadFile").
var keptUnreached = map[string]string{
	"internal/julisch":    "baseline of BenchmarkEPMvsJulisch, the ablation of EPM against the attribute-oriented induction it simplifies",
	"julisch.Run":         "entry point of the BenchmarkEPMvsJulisch ablation",
	"julisch.SizeBuckets": "the file-size hierarchy BenchmarkEPMvsJulisch gives the Julisch baseline",
	"pehash.Run":          "baseline of BenchmarkPeHashBaseline, the ablation of EPM against peHash clustering",

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

// TestEveryExportedFunctionIsReached walks the module and bench/ from
// every binary's entry points and fails on an internal package that no
// non-test file imports, or on an exported function or method under
// internal/ that no binary reaches, unless keptUnreached names it. Test
// files are skipped, so code that only tests call counts as unreached.
//
// The walk reads syntax only, with no type checking, so it
// over-approximates what a binary reaches:
//   - the roots are every main function, every init function and every
//     package-level var or const initializer;
//   - pkg.F resolves through the file's imports, and a bare F within its
//     own package;
//   - x.M reaches every method named M, so a method an interface call
//     could reach is never reported.
func TestEveryExportedFunctionIsReached(t *testing.T) {
	prog := loadProgram(t, ".", "repro")
	reached := prog.reach()

	var problems []string
	check := func(name string, used bool, unused string) {
		_, kept := keptUnreached[name]
		switch {
		case !used && !kept:
			problems = append(problems, name+unused)
		case used && kept:
			problems = append(problems, "keptUnreached names "+name+", which is in use")
		}
	}
	for ipath := range prog.pkgs {
		if name, ok := strings.CutPrefix(ipath, "repro/"); ok && strings.HasPrefix(name, "internal/") {
			check(name, prog.imported[ipath], " has no non-test importer")
		}
	}
	for key, fn := range prog.funcs {
		if strings.HasPrefix(key, "repro/internal/") && ast.IsExported(fn.decl.Name.Name) {
			check(fn.name, reached[key], " is exported but no binary reaches it")
		}
	}
	for name := range keptUnreached {
		if !prog.pkgs["repro/"+name] && !prog.names[name] {
			problems = append(problems, "keptUnreached names "+name+", which does not exist")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// program is the parsed non-test source of the module and bench/.
type program struct {
	pkgs     map[string]bool      // import paths of the parsed packages
	imported map[string]bool      // import paths some non-test file imports
	funcs    map[string]*funcDecl // by import path + "." + [receiver type + "."] + name
	names    map[string]bool      // the funcDecl names, as keptUnreached spells them
	methods  map[string][]string  // method name -> keys
	roots    []code               // main and init bodies, package-level initializers
}

// code is a syntax tree to walk and the file it belongs to.
type code struct {
	node ast.Node
	file *srcFile
}

type srcFile struct {
	pkg     string            // import path
	imports map[string]string // local name -> import path
}

type funcDecl struct {
	name string // package name + "." + [receiver type + "."] + function
	decl *ast.FuncDecl
	file *srcFile
}

// loadProgram parses every non-test .go file under root, whose import
// path is modPath. bench/ is its own module, repro/bench, so it falls
// under the same mapping.
func loadProgram(t *testing.T, root, modPath string) *program {
	t.Helper()
	prog := &program{
		pkgs:     map[string]bool{},
		imported: map[string]bool{},
		funcs:    map[string]*funcDecl{},
		names:    map[string]bool{},
		methods:  map[string][]string{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		sf := &srcFile{pkg: path.Join(modPath, filepath.ToSlash(filepath.Dir(p))), imports: map[string]string{}}
		prog.pkgs[sf.pkg] = true
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			prog.imported[ip] = true
			local := path.Base(ip)
			if imp.Name != nil {
				local = imp.Name.Name
			}
			sf.imports[local] = ip
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.GenDecl:
				if d.Tok == token.VAR || d.Tok == token.CONST {
					for _, spec := range d.Specs {
						for _, v := range spec.(*ast.ValueSpec).Values {
							prog.roots = append(prog.roots, code{v, sf})
						}
					}
				}
			case *ast.FuncDecl:
				name := d.Name.Name
				switch {
				case d.Recv != nil:
					name = recvType(d.Recv.List[0].Type) + "." + name
					prog.methods[d.Name.Name] = append(prog.methods[d.Name.Name], sf.pkg+"."+name)
				case name == "init", name == "main" && f.Name.Name == "main":
					prog.roots = append(prog.roots, code{d.Body, sf})
					continue
				}
				fn := &funcDecl{name: f.Name.Name + "." + name, decl: d, file: sf}
				prog.funcs[sf.pkg+"."+name] = fn
				prog.names[fn.name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// recvType names a receiver's type without pointer or type parameters.
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// reach returns the keys of every function and method reachable from the
// program's roots.
func (prog *program) reach() map[string]bool {
	reached := map[string]bool{}
	work := append([]code(nil), prog.roots...)
	markKey := func(key string) {
		if fn, ok := prog.funcs[key]; ok && !reached[key] {
			reached[key] = true
			if fn.decl.Body != nil {
				work = append(work, code{fn.decl.Body, fn.file})
			}
		}
	}
	markedMethods := map[string]bool{}
	markMethod := func(name string) {
		if !markedMethods[name] {
			markedMethods[name] = true
			for _, key := range prog.methods[name] {
				markKey(key)
			}
		}
	}
	var walk func(n ast.Node, sf *srcFile)
	walk = func(n ast.Node, sf *srcFile) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok && id.Obj == nil && sf.imports[id.Name] != "" {
					markKey(sf.imports[id.Name] + "." + x.Sel.Name)
					return false
				}
				markMethod(x.Sel.Name)
				walk(x.X, sf)
				return false
			case *ast.Ident:
				if x.Obj == nil || x.Obj.Kind == ast.Fun {
					markKey(sf.pkg + "." + x.Name)
				}
			}
			return true
		})
	}
	for _, name := range stdlibMethods {
		markMethod(name)
	}
	for len(work) > 0 {
		c := work[len(work)-1]
		work = work[:len(work)-1]
		walk(c.node, c.file)
	}
	return reached
}
