package dpspark

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportsKeptWithoutCallers are the exported functions and methods under
// internal/ that no non-test file calls by name but that stay: references
// and test instruments other behaviour is checked with, and methods the
// standard library calls through an interface. The key is "pkg.Name" for
// a function and "pkg.Recv.Name" for a method.
var exportsKeptWithoutCallers = map[string]string{
	"semiring.RunGEP":                       "reference: the Fig. 1 loop every implementation is checked against",
	"semiring.FloydWarshallReference":       "reference: the Fig. 5 loop, written apart from RunGEP to cross-check it",
	"semiring.GaussianEliminationReference": "reference: the Fig. 2 loop, written apart from RunGEP to cross-check it",
	"semimat.Closure":                       "reference: closure by repeated squaring, checked against the GEP solvers",
	"semimat.Power":                         "reference: semiring matrix powers, part of the semimat reference",
	"kernels.Loop":                          "reference: the plain loop every kernel form is compared with",
	"kernels.Derive":                        "reference: the Fig. 4 derivation the built schedules are compared with",
	"kernels.Schedule.Validate":             "reference: checks a derived Fig. 4 schedule",
	"kernels.Schedule.Parallelism":          "reference: a derived schedule's parallelism, asserted by the Fig. 4 tests",
	"kernels.Schedule.GridDim":              "reference: the operand grid a derived Fig. 4 schedule addresses",
	"kernels.WorkCount":                     "reference: a derived schedule's work, asserted by the Fig. 4 tests",
	"autotune.EstimateBest":                 "kept after measurement: the analytic best cell the tuning tests compare",
	"rdd.CollectMap":                        "test instrument: reads a pair RDD back as a map",
	"rdd.ReduceByKey":                       "test instrument: a value-form combine for the shuffle tests",
	"rdd.Context.CountStages":               "test instrument: stage counts the DAG-shape tests assert",
	"rdd.Context.WriteTimeline":             "test instrument: the stage timeline the structure tests read",
	"rdd.Context.Canceled":                  "test instrument: cancellation state the cancel tests read",
	"rdd.FaultPlan.WithRandomCorruptions":   "test instrument: seeded corruption plans",
	"sim.Sim.RunStage":                      "test instrument: drives one modelled stage",
	"sim.Sim.DiskUsed":                      "test instrument: the modelled staging disk a node holds",
	"store.Store.InMemory":                  "test instrument: which tier holds a block",
	"matrix.FromSlice":                      "test instrument: a dense matrix from literals",
	"apsp.PathLength":                       "test instrument: the length of a reconstructed path",
	"obs.Registry.CounterTotal":             "test instrument: a counter summed over its label sets",
	"obs.Histogram.Sum":                     "test instrument: a histogram's sum",
	"obs.Observer.Spans":                    "test instrument: the recorded trace spans",
	"kernels.Schedule.Equal":                "test instrument: compares a built Fig. 4 schedule with its derivation",
	"matrix.Dense.Checksum":                 "reference: the dense checksum Blocked.Checksum is pinned to",
	"mpifw.Solve":                           "reference: the MPI baseline run for real, checked against plain FW",
	"matrix.Blocked.Clone":                  "test instrument: a deep copy of a grid",
	"matrix.Dense.Equal":                    "test instrument: compares dense results within a tolerance",
	"matrix.Tile.At":                        "test instrument: reads one element of a tile",
	"matrix.View.Set":                       "test instrument: writes one element of a view",
	"obs.Histogram.Count":                   "test instrument: a histogram's sample count",
	"rdd.Breakdown.Total":                   "test instrument: the breakdown sum the clock tests compare",
	"rdd.Broadcast.Bytes":                   "test instrument: a broadcast's staged payload",
	"rdd.Context.Store":                     "test instrument: the durable tests inspect the context's block store",
	"rdd.RDD.NumPartitions":                 "test instrument: the partition count the narrow-op tests assert",
	"simtime.Microsecond":                   "unit: the timing tests write modelled durations in it",
	"store.Store.Has":                       "test instrument: whether a block is held",
	"store.Store.Spill":                     "test instrument: forces a block to the disk tier",
	"semiring.MaxPlus":                      "used by the root facade test",
	"graph.WriteDIMACS":                     "its round trip is what tests the live DIMACS reader",
	"graph.WriteEdgeList":                   "its round trip is what tests the live edge-list reader",
	"serve.errInternal.Unwrap":              "called by errors.Is and errors.As",
}

// TestInternalExportsHaveCallers fails for an exported function, method,
// constant or variable under internal/ that no non-test file of the
// module uses. Uses are resolved by type checking (go/types), so a method
// that shares its name with something live is still found. A concrete
// method also counts as used when a used interface method of the same
// name is one its type implements (a call through kernels.Exec, error or
// io.Writer); methods only the standard library calls need an allowlist
// entry.
func TestInternalExportsHaveCallers(t *testing.T) {
	pkgs, std := typeCheckModule(t)
	used := map[types.Object]bool{}
	var ifaceMethods []*types.Func
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			obj = origin(obj)
			if !used[obj] {
				if fn, ok := obj.(*types.Func); ok && isInterfaceMethod(fn) {
					ifaceMethods = append(ifaceMethods, fn)
				}
			}
			used[obj] = true
		}
	}
	// The standard library calls these through an interface on values the
	// module hands it: fmt prints a Stringer, container/heap orders a
	// heap.Interface, encoding/json decodes into an Unmarshaler.
	for _, name := range []struct{ pkg, iface string }{
		{"fmt", "Stringer"}, {"container/heap", "Interface"}, {"encoding/json", "Unmarshaler"},
	} {
		pkg, err := std.Import(name.pkg)
		if err != nil {
			t.Fatal(err)
		}
		iface := pkg.Scope().Lookup(name.iface).Type().Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			ifaceMethods = append(ifaceMethods, iface.Method(i))
		}
	}
	implementsUsed := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		for _, im := range ifaceMethods {
			iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if im.Name() == fn.Name() && iface.IsMethodSet() &&
				(types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)) {
				return true
			}
		}
		return false
	}
	var orphans []string
	declared := map[string]bool{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		for _, obj := range p.exported() {
			key := p.types.Name() + "." + obj.Name()
			fn, method := obj.(*types.Func)
			if method = method && fn.Type().(*types.Signature).Recv() != nil; method {
				key = p.types.Name() + "." + methodRecv(fn) + "." + obj.Name()
			}
			declared[key] = true
			if used[obj] || method && implementsUsed(fn) || exportsKeptWithoutCallers[key] != "" {
				continue
			}
			orphans = append(orphans, key+" ("+p.fset.Position(obj.Pos()).String()+")")
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("no non-test use: %s", o)
	}
	for key := range exportsKeptWithoutCallers {
		if !declared[key] {
			t.Errorf("allowlist entry %s names no declaration", key)
		}
	}
}

// checkedPackage is one type-checked package of the module; dir is
// slash-separated and relative to the module root.
type checkedPackage struct {
	dir   string
	fset  *token.FileSet
	types *types.Package
	info  *types.Info
	files []*ast.File
}

// exported lists the package-level functions, constants and variables
// and the methods of package-level named types the package exports.
func (p *checkedPackage) exported() []types.Object {
	var objs []types.Object
	scope := p.types.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Func, *types.Const, *types.Var:
			if obj.Exported() {
				objs = append(objs, obj)
			}
		case *types.TypeName:
			named, ok := obj.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					objs = append(objs, m)
				}
			}
		}
	}
	return objs
}

// typeCheckModule type-checks every non-test package of the module for
// this platform's build constraints — the nested benchmark module,
// examples and commands included — importing the standard library from
// its export data through the returned importer.
func typeCheckModule(t *testing.T) ([]*checkedPackage, types.Importer) {
	t.Helper()
	fset := token.NewFileSet()
	byPath := map[string]*checkedPackage{}
	var all []*checkedPackage
	std := importer.ForCompiler(fset, "gc", nil)
	var check func(path string) (*types.Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if path == "dpspark" || strings.HasPrefix(path, "dpspark/") {
			return check(path)
		}
		return std.Import(path)
	})
	check = func(path string) (*types.Package, error) {
		if p := byPath[path]; p != nil {
			return p.types, nil
		}
		dir := "."
		if path != "dpspark" {
			dir = strings.TrimPrefix(path, "dpspark/")
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		p := &checkedPackage{dir: dir, fset: fset, info: &types.Info{Uses: map[*ast.Ident]types.Object{}}}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, f)
		}
		conf := types.Config{Importer: imp}
		if p.types, err = conf.Check(path, fset, p.files, p.info); err != nil {
			return nil, err
		}
		byPath[path] = p
		all = append(all, p)
		return p.types, nil
	}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		switch d.Name() {
		case ".git", ".bench_build", "testdata":
			return filepath.SkipDir
		}
		path := "dpspark"
		if dir != "." {
			path += "/" + filepath.ToSlash(dir)
		}
		if _, err := check(path); err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return all, std
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// isInterfaceMethod reports whether fn is a method of an interface.
func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// origin is the generic declaration behind an instantiated method or
// field, obj itself otherwise.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// methodRecv is the name of a method's receiver type, without pointer or
// type arguments.
func methodRecv(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	return recv.(*types.Named).Obj().Name()
}

// sourceFile is one parsed non-test file; path is slash-separated and
// relative to the module root.
type sourceFile struct {
	path string
	file *ast.File
}

// nonTestFiles parses every non-test .go file of the module, the nested
// benchmark module, examples and commands included.
func nonTestFiles(t *testing.T, fset *token.FileSet) []sourceFile {
	t.Helper()
	var files []sourceFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "testdata":
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
		files = append(files, sourceFile{filepath.ToSlash(path), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// configStructs are the settings a program hands the engine and the
// server, keyed "pkg.Struct" with the directory that declares each.
var configStructs = map[string]string{
	"rdd.Conf":          "internal/rdd",
	"rdd.SubstrateConf": "internal/rdd",
	"core.Config":       "internal/core",
	"serve.Config":      "internal/serve",
}

// configFieldsSetOnlyByTests are the exported fields of configStructs
// that no non-test file outside the declaring package sets but that stay,
// keyed "pkg.Struct.Field".
var configFieldsSetOnlyByTests = map[string]string{
	"core.Config.Base": "the recursive kernels' base-case size; its sweep is an open roadmap item",
}

// TestConfigFieldsHaveSetters fails for an exported field of a config
// struct that only tests set: a setting no program can change is a
// constant, and belongs behind an unexported seam or gone. A field counts
// as set by a non-test file outside its package when it is a key of a
// composite literal that names the struct (through a type alias too), or,
// matched by field name in a file that sees the struct, an assignment
// target x.F = … or an &x.F argument (a flag binder). Matching by name
// can miss a test-only field; a literal element that elides its type
// (inside a slice or map literal) is not counted, and no program writes
// one.
func TestConfigFieldsHaveSetters(t *testing.T) {
	fset := token.NewFileSet()
	files := nonTestFiles(t, fset)

	// Declared fields and the aliases that name a config struct.
	type field struct{ key, dir, pos string }
	var fields []field
	alias := map[string]string{}
	for _, sf := range files {
		imports := importNames(sf.file)
		for _, dl := range sf.file.Decls {
			gd, ok := dl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, sp := range gd.Specs {
				ts, ok := sp.(*ast.TypeSpec)
				if !ok {
					continue
				}
				key := sf.file.Name.Name + "." + ts.Name.Name
				if ts.Assign.IsValid() {
					if target := typeKey(ts.Type, sf.file.Name.Name, imports); configStructs[target] != "" {
						alias[key] = target
					}
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || configStructs[key] != path.Dir(sf.path) {
					continue
				}
				for _, fl := range st.Fields.List {
					for _, name := range fl.Names {
						if name.IsExported() {
							fields = append(fields, field{key + "." + name.Name, path.Dir(sf.path), fset.Position(name.Pos()).String()})
						}
					}
				}
			}
		}
	}

	// What non-test files set: literal keys per struct, and the files that
	// assign or take the address of a field name.
	type site struct {
		dir  string
		pkgs map[string]bool // the file's package and the ones it imports
	}
	keyed := map[string]bool{}
	namedAt := map[string][]site{}
	for _, sf := range files {
		pkg, dir, imports := sf.file.Name.Name, path.Dir(sf.path), importNames(sf.file)
		here := site{dir, map[string]bool{pkg: true}}
		for _, p := range imports {
			here.pkgs[p] = true
		}
		named := func(e ast.Expr) {
			if s, ok := e.(*ast.SelectorExpr); ok {
				namedAt[s.Sel.Name] = append(namedAt[s.Sel.Name], here)
			}
		}
		resolve := func(e ast.Expr) string {
			key := typeKey(e, pkg, imports)
			if a := alias[key]; a != "" {
				key = a
			}
			if d := configStructs[key]; d == "" || d == dir {
				return ""
			}
			return key
		}
		ast.Inspect(sf.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				key := resolve(n.Type)
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok && key != "" {
						keyed[key+"."+kv.Key.(*ast.Ident).Name] = true
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					named(lhs)
				}
			case *ast.CallExpr:
				for _, arg := range n.Args {
					if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
						named(u.X)
					}
				}
			}
			return true
		})
	}

	// A file can name a struct's field only if it sees the struct: it is
	// in or imports the declaring package, or one aliasing the struct.
	sees := map[string][]string{}
	for key := range configStructs {
		sees[key] = []string{key[:strings.IndexByte(key, '.')]}
	}
	for a, target := range alias {
		sees[target] = append(sees[target], a[:strings.IndexByte(a, '.')])
	}
	declared := map[string]bool{}
	for _, f := range fields {
		declared[f.key] = true
		set := keyed[f.key]
		structKey, name := f.key[:strings.LastIndexByte(f.key, '.')], f.key[strings.LastIndexByte(f.key, '.')+1:]
		for _, s := range namedAt[name] {
			if s.dir == f.dir {
				continue
			}
			for _, p := range sees[structKey] {
				set = set || s.pkgs[p]
			}
		}
		switch reason := configFieldsSetOnlyByTests[f.key]; {
		case !set && reason == "":
			t.Errorf("no non-test file outside %s sets %s (%s)", f.dir, f.key, f.pos)
		case set && reason != "":
			t.Errorf("allowlist entry %s is set by a program; drop the entry", f.key)
		}
	}
	for key := range configFieldsSetOnlyByTests {
		if !declared[key] {
			t.Errorf("allowlist entry %s names no declared field", key)
		}
	}
}

// importNames maps each import's local name in f to its package name,
// taken as the last element of the import path.
func importNames(f *ast.File) map[string]string {
	names := map[string]string{}
	for _, im := range f.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		local := path.Base(p)
		if im.Name != nil {
			local = im.Name.Name
		}
		names[local] = path.Base(p)
	}
	return names
}

// typeKey is "pkg.Name" for a type written T in package pkg or q.T with
// q imported, after a pointer; "" for anything else.
func typeKey(e ast.Expr, pkg string, imports map[string]string) string {
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	switch x := e.(type) {
	case *ast.Ident:
		return pkg + "." + x.Name
	case *ast.SelectorExpr:
		if q, ok := x.X.(*ast.Ident); ok && imports[q.Name] != "" {
			return imports[q.Name] + "." + x.Sel.Name
		}
	}
	return ""
}
