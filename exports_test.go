package dpspark

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
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
	"rdd.FaultPlan.WithRandomPartitions":    "test instrument: seeded network-partition plans",
	"sim.Sim.RunStage":                      "test instrument: drives one modelled stage",
	"sim.Sim.DiskUsed":                      "test instrument: the modelled staging disk a node holds",
	"store.Store.InMemory":                  "test instrument: which tier holds a block",
	"matrix.FromSlice":                      "test instrument: a dense matrix from literals",
	"apsp.PathLength":                       "test instrument: the length of a reconstructed path",
	"obs.Registry.CounterTotal":             "test instrument: a counter summed over its label sets",
	"obs.Histogram.Sum":                     "test instrument: a histogram's sum",
	"obs.Observer.Spans":                    "test instrument: the recorded trace spans",
	"semiring.MaxPlus":                      "used by the root facade test",
	"graph.WriteDIMACS":                     "its round trip is what tests the live DIMACS reader",
	"graph.WriteEdgeList":                   "its round trip is what tests the live edge-list reader",
	"graph.dijkstraPQ.Less":                 "called by container/heap",
	"graph.dijkstraPQ.Swap":                 "called by container/heap",
	"rdd.waiterQueue.Less":                  "called by container/heap",
	"rdd.waiterQueue.Swap":                  "called by container/heap",
	"rdd.EngineState.UnmarshalJSON":         "called by encoding/json",
	"serve.errInternal.Unwrap":              "called by errors.Is and errors.As",
}

// TestInternalExportsHaveCallers fails for an exported function or method
// under internal/ whose name no non-test file in the module uses. Matching
// is by name, so it can miss dead code but never flags live code.
func TestInternalExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	type decl struct{ key, pos string }
	var decls []decl
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
		declared := map[*ast.Ident]bool{}
		inInternal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		for _, dl := range f.Decls {
			fn, ok := dl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if !inInternal || !fn.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "."
			if fn.Recv != nil {
				key += recvName(fn.Recv.List[0].Type) + "."
			}
			decls = append(decls, decl{key + fn.Name.Name, fset.Position(fn.Pos()).String()})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var orphans []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		name := d.key[strings.LastIndexByte(d.key, '.')+1:]
		if !used[name] && exportsKeptWithoutCallers[d.key] == "" {
			orphans = append(orphans, d.key+" ("+d.pos+")")
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("no non-test caller: %s", o)
	}
	for key := range exportsKeptWithoutCallers {
		if !declared[key] {
			t.Errorf("allowlist entry %s names no declaration", key)
		}
	}
}

// recvName is the type name of a method receiver, without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
