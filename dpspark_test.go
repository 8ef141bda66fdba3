package dpspark

import (
	"math"
	"testing"

	"dpspark/internal/graph"
	"dpspark/internal/semiring"
)

func TestFacadeAPSP(t *testing.T) {
	s := NewSession(Local(4))
	t.Cleanup(s.Close)
	g := RandomGraph(40, 0.2, 1, 9, 1)
	dist, stats, err := s.APSP(g, Config{BlockSize: 16, Driver: IM})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Time <= 0 {
		t.Fatal("no modelled time")
	}
	ref := g.APSPReference()
	if diff := dist.MaxAbsDiff(ref); diff > 1e-9 {
		t.Fatalf("diff %v", diff)
	}
	// Reconstruct a few paths.
	for u := 0; u < 5; u++ {
		for v := 0; v < 5; v++ {
			if math.IsInf(dist.At(u, v), 1) {
				continue
			}
			if p := ShortestPath(g, dist, u, v); p == nil || p[0] != u || p[len(p)-1] != v {
				t.Fatalf("bad path %d→%d: %v", u, v, p)
			}
		}
	}
}

// TestFacadeKernelThreads: the parallel-kernel session reproduces the
// serial session's APSP result exactly, bit for bit.
func TestFacadeKernelThreads(t *testing.T) {
	g := RandomGraph(200, 0.1, 1, 9, 5)
	cfg := Config{BlockSize: 64, Driver: IM}
	serial, _, err := NewSession(Local(8)).APSP(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, stats, err := NewSessionKernelThreads(Local(8), 4).APSP(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range par.Data {
		if math.Float64bits(v) != math.Float64bits(serial.Data[i]) {
			t.Fatalf("element %d: parallel kernels diverge from serial bits", i)
		}
	}
	if stats.KernelSpawned+stats.KernelInlined == 0 {
		t.Fatal("threaded session never consulted its kernel pools")
	}
}

func TestFacadeLinearSolve(t *testing.T) {
	s := NewSession(Local(4))
	t.Cleanup(s.Close)
	a, b := RandomSystem(30, 2)
	x, _, err := s.SolveLinear(a, b, Config{BlockSize: 8, Driver: CB})
	if err != nil {
		t.Fatal(err)
	}
	if r := Residual(a, x, b); r > 1e-6 {
		t.Fatalf("residual %v", r)
	}
}

func TestFacadeTransitiveClosure(t *testing.T) {
	s := NewSession(Local(2))
	t.Cleanup(s.Close)
	g := GridGraph(2, 3, 1, 2, 3)
	tc, _, err := s.TransitiveClosure(g, Config{BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.N; i++ {
		for j := 0; j < g.N; j++ {
			if tc.At(i, j) != 1 { // grid is strongly connected
				t.Fatalf("closure[%d,%d] = %v", i, j, tc.At(i, j))
			}
		}
	}
}

func TestFacadeWidestPaths(t *testing.T) {
	s := NewSession(Local(2))
	t.Cleanup(s.Close)
	n := 3
	d0 := &Matrix{N: n, Data: make([]float64, n*n)}
	sr := MaxMin()
	for i := range d0.Data {
		d0.Data[i] = sr.Zero
	}
	for i := 0; i < n; i++ {
		d0.Set(i, i, sr.One)
	}
	d0.Set(0, 1, 5)
	d0.Set(1, 2, 3)
	d0.Set(0, 2, 2)
	out, _, err := s.APSPSemiring(d0, sr, Config{BlockSize: 2, Driver: CB})
	if err != nil {
		t.Fatal(err)
	}
	if out.At(0, 2) != 3 {
		t.Fatalf("widest 0→2 = %v", out.At(0, 2))
	}
}

func TestFacadeLongestPathOnDAG(t *testing.T) {
	// Critical-path analysis: max-plus GEP over a diamond DAG
	// 0 → {1,2} → {3,4} → 5 with one heavy arm.
	dag := graph.New(6)
	dag.AddEdge(0, 1, 1)
	dag.AddEdge(0, 2, 3)
	dag.AddEdge(1, 3, 1)
	dag.AddEdge(2, 4, 4)
	dag.AddEdge(3, 5, 1)
	dag.AddEdge(4, 5, 1)

	sr := semiring.MaxPlus()
	n := dag.N
	d0 := &Matrix{N: n, Data: make([]float64, n*n)}
	for i := range d0.Data {
		d0.Data[i] = sr.Zero
	}
	for i := 0; i < n; i++ {
		d0.Set(i, i, sr.One)
	}
	for _, es := range dag.Adj {
		for _, e := range es {
			d0.Set(e.From, e.To, e.Weight)
		}
	}
	s := NewSession(Local(2))
	t.Cleanup(s.Close)
	out, _, err := s.APSPSemiring(d0, sr, Config{BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The critical path 0→5 picks the heavier arm: 3 + 4 + 1 = 8.
	if got := out.At(0, 5); got != 8 {
		t.Fatalf("critical path length = %v, want 8", got)
	}
}

// TestFacadeSessionClose: solves on one reused session — whose context
// recycles its stage and shuffle buffers from the second solve on — return
// the bits a fresh session returns, and Close may be called twice.
func TestFacadeSessionClose(t *testing.T) {
	g := RandomGraph(60, 0.2, 1, 9, 3)
	cfg := Config{BlockSize: 8, Driver: IM}
	want, _, err := NewSession(Local(4)).APSP(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(Local(4))
	for solve := 0; solve < 3; solve++ {
		got, _, err := s.APSP(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got.Data {
			if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
				t.Fatalf("solve %d, element %d: reused session diverges from a fresh one", solve, i)
			}
		}
	}
	s.Close()
	s.Close()
}

func TestFacadeSymbolicSession(t *testing.T) {
	s := NewSessionExecutorCores(Skylake16(), 16)
	t.Cleanup(s.Close)
	if s.Context().ExecutorCores() != 16 {
		t.Fatal("executor cores not applied")
	}
}

func TestFacadeSCC(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 0, 1)
	g.AddEdge(2, 3, 1)
	labels, stats, err := NewSession(Local(2)).StronglyConnectedComponents(g, Config{BlockSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Time <= 0 {
		t.Fatal("no time")
	}
	if labels[0] != labels[1] || labels[2] == labels[3] || labels[0] == labels[2] {
		t.Fatalf("labels = %v", labels)
	}
}

func TestFacadeLCS(t *testing.T) {
	n, stats, err := NewSession(Local(2)).LCS([]byte("ABCBDAB"), []byte("BDCABA"), 4)
	if err != nil || n != 4 {
		t.Fatalf("LCS = %d, %v", n, err)
	}
	if stats.Iterations != 3 { // 2×2 tile grid → 3 waves
		t.Fatalf("waves = %d", stats.Iterations)
	}
}

func TestFacadeSemiringExportsAndGenerators(t *testing.T) {
	if MinPlus().Name() != "min-plus" || MaxMin().Name() != "max-min" {
		t.Fatal("semiring exports")
	}
	if g := GridGraph(3, 4, 1, 2, 9); g.N != 12 {
		t.Fatal("GridGraph")
	}
	a, b := RandomSystem(10, 3)
	if a.N != 10 || len(b) != 10 {
		t.Fatal("RandomSystem")
	}
	if ShortestPath(graph.New(2), &Matrix{N: 2, Data: make([]float64, 4)}, 0, 0) == nil {
		t.Fatal("trivial self path")
	}
}

func TestFacadeEliminate(t *testing.T) {
	a, _ := RandomSystem(12, 4)
	elim, _, err := NewSession(Local(2)).Eliminate(a.Clone(), Config{BlockSize: 4, Driver: CB})
	if err != nil {
		t.Fatal(err)
	}
	// Pivots survive on the diagonal.
	for i := 0; i < elim.N; i++ {
		if elim.At(i, i) == 0 {
			t.Fatalf("zero pivot at %d", i)
		}
	}
}

// TestFacadeObservedSession: a session built on a caller's observer
// reports into it — Session.Observer returns it, and a solve's kernel
// calls land in its registry, one per tile update (an r=4 FW solve runs
// 4 iterations of 16). A plain session has an observer of its own.
func TestFacadeObservedSession(t *testing.T) {
	o := NewObserver()
	s := NewSessionObserved(Local(2), 0, o)
	t.Cleanup(s.Close)
	if s.Observer() != o {
		t.Fatal("Session.Observer is not the observer the session was built on")
	}
	if _, _, err := s.APSP(RandomGraph(32, 0.2, 1, 9, 1), Config{BlockSize: 8, Driver: IM}); err != nil {
		t.Fatal(err)
	}
	if got := o.Metrics().CounterTotal("dpspark_kernel_calls_total"); got != 4*16 {
		t.Fatalf("observer counted %d kernel calls, want %d", got, 4*16)
	}
	plain := NewSession(Local(2))
	t.Cleanup(plain.Close)
	if plain.Observer() == nil || plain.Observer() == o {
		t.Fatal("a plain session must have an observer of its own")
	}
}
