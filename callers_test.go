package crowdselect_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// callerAllowlist is the internal code kept although no program calls
// it, each entry with its reason. A key is a package directory (the
// whole package), "dir.Func", "dir.Type" (every method of Type) or
// "dir.Type.Method".
var callerAllowlist = map[string]string{
	"internal/faultfs":  "test infrastructure: the fault-injecting filesystem of the crash and chaos drills",
	"internal/faultnet": "test infrastructure: the fault-injecting TCP proxy of the chaos drills",
	"internal/core.ConcurrentModel.SetProjectionCacheCapacity": "test hook: the cache tests shrink the cache to force evictions",
	"internal/core.ConcurrentModel.LabelKernelForTest":         "test hook: stands a two-kernel fleet up in one process",
	"internal/corpus.MustGenerate":                             "the dataset fixture of thirteen packages' tests; corpus.Generate plus an error check at each of 35 call sites is more code",
	"internal/crowdclient.Router":                              "the fleet client of DESIGN §11 and §13; its counters are what the fleet tests read",
	"internal/crowdclient.Multi":                               "the failover client of DESIGN §10 and §12; its counters are what the fleet tests read",
	"internal/crowdclient.Client.ResilienceStats":              "the breaker and retry-budget counters the resilience and chaos tests read",
}

// fieldAllowlist is the configuration kept although no program sets it,
// each entry with its reason. A key is "dir.Type.Field".
var fieldAllowlist = map[string]string{
	"internal/core.Config.InnerIter":           "the golden tests train at 2 rounds; re-cutting their digests at 1 is a change of its own",
	"internal/crowddb.Options.Clock":           "tests step a manual clock",
	"internal/crowddb.Options.OpenJournalFile": "the crash and chaos drills open the journal on a fault-injecting filesystem",
	"internal/crowddb.Options.Probe":           "the degraded-mode and chaos tests stand in a failing disk probe",
	"internal/eval.ExpConfig.LDABurn":          "the runner test's training budget",
	"internal/eval.ExpConfig.PLSAIters":        "the runner test's training budget",
	"internal/fleet.Options.Clock":             "tests step a manual clock",
}

// wireFieldAllowlist is the JSON-tagged fields of unexported structs
// kept although no program reads them, each entry with its reason. A key
// is "dir.Type.Field".
var wireFieldAllowlist = map[string]string{
	"internal/crowddb.replSidecar.Digest": "DESIGN §14's at-rest stamp of the generation's combined digest, for operators reading repl-*.json",
}

// stdInterfaces are the standard-library interfaces through which the
// standard library, not this module, calls a method this module
// declares: the last is what http.ResponseController unwraps a
// middleware's ResponseWriter with.
const stdInterfaces = `package std

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

type (
	_ interface{ error }
	_ interface{ fmt.Stringer }
	_ interface{ io.Reader }
	_ interface{ io.Writer }
	_ interface{ io.Closer }
	_ interface{ io.ReaderFrom }
	_ interface{ io.WriterTo }
	_ interface{ http.Handler }
	_ interface{ http.ResponseWriter }
	_ interface{ json.Marshaler }
	_ interface{ json.Unmarshaler }
	_ interface{ Unwrap() error }
	_ interface{ Is(error) bool }
	_ interface{ Unwrap() http.ResponseWriter }
)
`

// loadedPackage is one type-checked package of non-test files.
type loadedPackage struct {
	dir   string // slash-separated, relative to the module root
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
}

// moduleImporter type-checks the module's packages from source, on
// first import, and takes the standard library from the compiler's
// export data, which the go command builds on a cache miss.
type moduleImporter struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*loadedPackage // by import path
	errs []error
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	p, ok := im.pkgs[path]
	if !ok {
		return im.std.Import(path)
	}
	if p.pkg == nil {
		p.pkg = types.NewPackage(path, "")
		conf := &types.Config{Importer: im, Error: func(err error) { im.errs = append(im.errs, err) }}
		types.NewChecker(conf, im.fset, p.pkg, p.info).Files(p.files)
	}
	return p.pkg, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// loadProgram type-checks every non-test file of the module and of
// bench/, which compiles against the module's internal packages, as
// the build for this platform selects them.
func loadProgram(t *testing.T) (*token.FileSet, []*loadedPackage, []*types.Interface) {
	t.Helper()
	fset := token.NewFileSet()
	im := &moduleImporter{
		fset: fset,
		std:  importer.ForCompiler(fset, "gc", nil),
		pkgs: map[string]*loadedPackage{},
	}
	var paths []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(path, 0)
		if errors.As(err, new(*build.NoGoError)) {
			return nil
		} else if err != nil {
			return err
		}
		p := &loadedPackage{dir: filepath.ToSlash(path), info: newInfo()}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(path, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		importPath := "crowdselect"
		if p.dir != "." {
			importPath += "/" + p.dir
		}
		im.pkgs[importPath] = p
		paths = append(paths, importPath)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*loadedPackage
	for _, path := range paths {
		im.Import(path)
		pkgs = append(pkgs, im.pkgs[path])
	}
	std, err := parser.ParseFile(fset, "std.go", stdInterfaces, 0)
	if err != nil {
		t.Fatal(err)
	}
	stdInfo := newInfo()
	if _, err := (&types.Config{Importer: im}).Check("std", fset, []*ast.File{std}, stdInfo); err != nil {
		t.Fatal(err)
	}
	for _, err := range im.errs {
		t.Error(err)
	}
	ifaces := interfacesOf(std, stdInfo)
	for _, p := range pkgs {
		for _, f := range p.files {
			ifaces = append(ifaces, interfacesOf(f, p.info)...)
		}
	}
	return fset, pkgs, ifaces
}

// interfacesOf returns every interface type f spells out.
func interfacesOf(f *ast.File, info *types.Info) []*types.Interface {
	var out []*types.Interface
	ast.Inspect(f, func(n ast.Node) bool {
		if it, ok := n.(*ast.InterfaceType); ok {
			if i, ok := info.TypeOf(it).(*types.Interface); ok && i.NumMethods() > 0 {
				out = append(out, i)
			}
		}
		return true
	})
	return out
}

// TestInternalFuncsHaveCallers fails, naming file:line, on internal code
// and configuration that no program uses. Programs are every non-test
// file of the module and of bench/, type-checked, so a use is of one
// object, never of a name.
//
// A function or method declared in non-test internal/... code must be
// used by non-test code outside its own body, or, for a method, its
// receiver must implement an interface that declares the method: one
// this module spells out, or one of stdInterfaces. init and
// callerAllowlist are exempt.
//
// Every field of an internal/... struct type named *Config or *Options
// must be set by non-test code: in a composite literal to a value that
// is not a constant, or by any statement outside the struct's package.
// A constant in its own package's literal and any assignment statement
// of its own package are defaults (opts.Clock = cmp.Or(opts.Clock,
// clock.Real) fills in a default however little constant it is), and a field nothing else sets
// is a constant. fieldAllowlist is exempt.
func TestInternalFuncsHaveCallers(t *testing.T) {
	fset, pkgs, ifaces := loadProgram(t)

	// uses is every position at which non-test code uses a function.
	uses := map[*types.Func][]token.Pos{}
	// set is the fields assigned by some program.
	set := map[*types.Var]bool{}
	for _, p := range pkgs {
		for id, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				uses[fn.Origin()] = append(uses[fn.Origin()], id.Pos())
			}
		}
		assign := func(field types.Object, value ast.Expr) {
			v, ok := field.(*types.Var)
			if !ok || !v.IsField() {
				return
			}
			if value == nil || v.Pkg() != p.pkg {
				set[v] = true
			} else if tv := p.info.Types[value]; tv.Value == nil && !tv.IsNil() {
				set[v] = true
			}
		}
		fieldOf := func(x ast.Expr) types.Object {
			if sel, ok := ast.Unparen(x).(*ast.SelectorExpr); ok {
				if s := p.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					return s.Obj()
				}
			}
			return nil
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					typ := p.info.TypeOf(n)
					if ptr, ok := typ.(*types.Pointer); ok { // an element of []*T{{…}}
						typ = ptr.Elem()
					}
					st, ok := typ.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							assign(p.info.Uses[kv.Key.(*ast.Ident)], kv.Value)
						} else {
							assign(st.Field(i), elt)
						}
					}
				case *ast.AssignStmt: // its own package's is a default, whatever the value
					for _, lhs := range n.Lhs {
						if field := fieldOf(lhs); field != nil && field.Pkg() != p.pkg {
							assign(field, nil)
						}
					}
				case *ast.IncDecStmt:
					if field := fieldOf(n.X); field != nil {
						assign(field, nil)
					}
				case *ast.UnaryExpr: // &x.Field: a flag or a decoder sets it
					if field := fieldOf(n.X); n.Op == token.AND && field != nil {
						assign(field, nil)
					}
				}
				return true
			})
		}
	}

	implemented := func(recv types.Type, method string) bool {
		for _, i := range ifaces {
			for m := 0; m < i.NumMethods(); m++ {
				if i.Method(m).Name() == method && (types.Implements(recv, i) || types.Implements(types.NewPointer(recv), i)) {
					return true
				}
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
	stale := map[string]bool{} // fieldAllowlist keys naming no field
	for key := range fieldAllowlist {
		stale[key] = true
	}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				name, keys := fd.Name.Name, []string{p.dir, p.dir + "." + fd.Name.Name}
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					named := derefNamed(recv.Type())
					if implemented(named, name) {
						continue
					}
					typ := named.Obj().Name()
					name = typ + "." + name
					keys = []string{p.dir, p.dir + "." + typ, p.dir + "." + name}
				}
				if allowed(keys...) || usedOutside(uses[fn], fd.Body) {
					continue
				}
				dead = append(dead, fset.Position(fd.Pos()).String()+": "+name+" has no caller outside tests")
			}
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					name := ts.Name.Name
					st, ok := p.info.Defs[ts.Name].Type().Underlying().(*types.Struct)
					if !ok || !strings.HasSuffix(name, "Config") && !strings.HasSuffix(name, "Options") {
						continue
					}
					for i := 0; i < st.NumFields(); i++ {
						field := st.Field(i)
						key := p.dir + "." + name + "." + field.Name()
						_, exempt := fieldAllowlist[key]
						delete(stale, key)
						switch {
						case exempt && set[field]:
							dead = append(dead, fset.Position(field.Pos()).String()+": "+name+"."+field.Name()+" is set by a program; drop its fieldAllowlist entry")
						case !exempt && !set[field]:
							dead = append(dead, fset.Position(field.Pos()).String()+": "+name+"."+field.Name()+" is set by no program")
						}
					}
				}
			}
		}
	}
	for key := range stale {
		dead = append(dead, "fieldAllowlist entry "+key+" names no field")
	}
	sort.Strings(dead)
	for _, msg := range dead {
		t.Error(msg)
	}
	if len(callerAllowlist) > 8 {
		t.Errorf("the allowlist has %d entries; keep it to 8", len(callerAllowlist))
	}
	if len(fieldAllowlist) > 7 {
		t.Errorf("the field allowlist has %d entries; keep it to 7", len(fieldAllowlist))
	}
}

// usedOutside reports whether some use lies outside body, the using
// function's own.
func usedOutside(uses []token.Pos, body *ast.BlockStmt) bool {
	for _, pos := range uses {
		if body == nil || pos < body.Pos() || pos >= body.End() {
			return true
		}
	}
	return false
}

// derefNamed is the named type of a method receiver, T or *T.
func derefNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// TestInternalWireFieldsAreRead fails, naming file:line, on a
// JSON-tagged field of an unexported struct in non-test internal/...
// code that no program reads: a field only written — a composite-literal
// key or an assignment target — is on the wire or at rest for no
// decision. Reads are uses of the field object in non-test code of the
// module and of bench/, type-checked. wireFieldAllowlist is exempt.
func TestInternalWireFieldsAreRead(t *testing.T) {
	fset, pkgs, _ := loadProgram(t)

	read := map[*types.Var]bool{}
	for _, p := range pkgs {
		for _, f := range p.files {
			written := map[*ast.SelectorExpr]bool{}
			target := func(x ast.Expr) {
				if sel, ok := ast.Unparen(x).(*ast.SelectorExpr); ok {
					written[sel] = true
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						target(lhs)
					}
				case *ast.IncDecStmt:
					target(n.X)
				case *ast.SelectorExpr:
					if s := p.info.Selections[n]; s != nil && s.Kind() == types.FieldVal && !written[n] {
						read[s.Obj().(*types.Var)] = true
					}
				}
				return true
			})
		}
	}

	var dead []string
	stale := map[string]bool{} // wireFieldAllowlist keys naming no field
	for key := range wireFieldAllowlist {
		stale[key] = true
	}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					st, ok := p.info.Defs[ts.Name].Type().Underlying().(*types.Struct)
					if !ok || ts.Name.IsExported() {
						continue
					}
					for i := 0; i < st.NumFields(); i++ {
						field := st.Field(i)
						if tag, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); !ok || tag == "-" {
							continue
						}
						name := ts.Name.Name + "." + field.Name()
						key := p.dir + "." + name
						_, exempt := wireFieldAllowlist[key]
						delete(stale, key)
						switch {
						case exempt && read[field]:
							dead = append(dead, fset.Position(field.Pos()).String()+": "+name+" is read by a program; drop its wireFieldAllowlist entry")
						case !exempt && !read[field]:
							dead = append(dead, fset.Position(field.Pos()).String()+": "+name+" is read by no program")
						}
					}
				}
			}
		}
	}
	for key := range stale {
		dead = append(dead, "wireFieldAllowlist entry "+key+" names no field")
	}
	sort.Strings(dead)
	for _, msg := range dead {
		t.Error(msg)
	}
	if len(wireFieldAllowlist) > 1 {
		t.Errorf("the wire field allowlist has %d entries; keep it to 1", len(wireFieldAllowlist))
	}
}
