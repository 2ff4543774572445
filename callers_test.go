package crowdselect_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// callerAllowlist is the internal code kept although no program calls
// it, each entry with its reason. A key is a package directory (the
// whole package), "dir.Func", "dir.Type" (every method of Type) or
// "dir.Type.Method".
var callerAllowlist = map[string]string{
	"internal/faultfs":                                         "test infrastructure: the fault-injecting filesystem of the crash and chaos drills",
	"internal/faultnet":                                        "test infrastructure: the fault-injecting TCP proxy of the chaos drills",
	"internal/core.TrainMCEM":                                  "the Monte-Carlo EM engine of the root variational-vs-MCEM ablation",
	"internal/core.NewMCEMConfig":                              "the configuration of that ablation's engine",
	"internal/core.Model.SelectTopKScored":                     "test oracle of the golden and cold selection tests",
	"internal/core.ConcurrentModel.SetProjectionCacheCapacity": "test hook: the cache tests shrink the cache to force evictions",
	"internal/core.ConcurrentModel.LabelKernelForTest":         "test hook: stands a two-kernel fleet up in one process",
	"internal/optimize.NumericalGradient":                      "test oracle: central differences against every analytic gradient",
	"internal/corpus.MustGenerate":                             "the dataset fixture of thirteen packages' tests; corpus.Generate plus an error check at each of 35 call sites is more code",
	"internal/crowdclient.Router":                              "the fleet client of DESIGN §11 and §13; its counters are what the fleet tests read",
	"internal/crowdclient.Multi":                               "the failover client of DESIGN §10 and §12; its counters are what the fleet tests read",
	"internal/crowdclient.Client.ResilienceStats":              "the breaker and retry-budget counters the resilience and chaos tests read",
}

// stdInterfaceMethods are method names that standard-library interfaces
// declare and this module's types implement — error, fmt.Stringer,
// sort.Interface, heap.Interface, io's readers, writers and closers,
// http.Handler and the json (un)marshalers — so they are called through
// the interface, never by name.
var stdInterfaceMethods = map[string]bool{
	"Error": true, "String": true, "Len": true, "Less": true, "Swap": true,
	"Push": true, "Pop": true, "Read": true, "Write": true, "Close": true,
	"ReadFrom": true, "WriteTo": true, "ServeHTTP": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
}

// TestInternalFuncsHaveCallers fails, naming file:line, on any function
// or method declared in non-test internal/... code that no non-test code
// references outside the declaration's own body: a function as pkg.Name
// from another package or as a bare Name in its own, a method as any
// .Name selector. It matches by name, so it is a lower bound on dead
// code. Programs are every non-test file of the module and of bench/,
// which compiles against internal/crowddb. main, init, methods whose
// name an interface declares and callerAllowlist are exempt.
func TestInternalFuncsHaveCallers(t *testing.T) {
	type use struct {
		file *ast.File
		pos  token.Pos
	}
	type decl struct {
		dir, recv string // recv is the receiver's type name, "" for a function
		fn        *ast.FuncDecl
		file      *ast.File
	}
	var (
		fset     = token.NewFileSet()
		decls    []decl
		bare     = map[string][]use{} // "dir.Name": an identifier Name in dir
		imported = map[string][]use{} // "dir.Name": pkg.Name, dir the package's
		selected = map[string][]use{} // "Name": any x.Name
		ifaces   = map[string]bool{}  // method names an interface declares
	)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		imports := map[string]string{} // local name → module directory
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			rel, ok := strings.CutPrefix(p, "crowdselect/")
			if !ok {
				continue
			}
			name := rel[strings.LastIndex(rel, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = rel
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if strings.HasPrefix(dir, "internal/") {
					dc := decl{dir: dir, fn: n, file: f}
					if n.Recv != nil {
						dc.recv = receiverName(n.Recv.List[0].Type)
					}
					decls = append(decls, dc)
				}
				// Everything but the declared name, which is no use of it.
				if n.Recv != nil {
					ast.Inspect(n.Recv, visit)
				}
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						ifaces[id.Name] = true
					}
				}
			case *ast.SelectorExpr:
				u := use{f, n.Sel.Pos()}
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						imported[p+"."+n.Sel.Name] = append(imported[p+"."+n.Sel.Name], u)
						return false
					}
				}
				selected[n.Sel.Name] = append(selected[n.Sel.Name], u)
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				bare[dir+"."+n.Name] = append(bare[dir+"."+n.Name], use{f, n.Pos()})
			}
			return true
		}
		ast.Inspect(f, visit)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// called reports whether some use lies outside d's own body.
	called := func(d decl, uses []use) bool {
		body := d.fn.Body
		for _, u := range uses {
			if u.file != d.file || body == nil || u.pos < body.Pos() || u.pos >= body.End() {
				return true
			}
		}
		return false
	}
	allowed := func(keys ...string) bool {
		for _, k := range keys {
			if _, ok := callerAllowlist[k]; ok {
				return true
			}
		}
		return false
	}
	var dead []string
	for _, d := range decls {
		name := d.fn.Name.Name
		if d.recv != "" {
			if allowed(d.dir, d.dir+"."+d.recv, d.dir+"."+d.recv+"."+name) ||
				ifaces[name] || stdInterfaceMethods[name] || called(d, selected[name]) {
				continue
			}
			name = d.recv + "." + name
		} else if allowed(d.dir, d.dir+"."+name) || name == "main" || name == "init" ||
			called(d, bare[d.dir+"."+name]) || called(d, imported[d.dir+"."+name]) {
			continue
		}
		dead = append(dead, fset.Position(d.fn.Pos()).String()+": "+name+" has no caller outside tests")
	}
	sort.Strings(dead)
	for _, msg := range dead {
		t.Error(msg)
	}
	if len(callerAllowlist) > 12 {
		t.Errorf("the allowlist has %d entries; keep it to 12", len(callerAllowlist))
	}
}

// receiverName is the type name of a method receiver: T for T, *T,
// T[P] and *T[P].
func receiverName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}
