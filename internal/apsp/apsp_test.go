package apsp

import (
	"math"
	"math/rand"
	"testing"

	"dpspark/internal/cluster"
	"dpspark/internal/core"
	"dpspark/internal/graph"
	"dpspark/internal/matrix"
	"dpspark/internal/rdd"
	"dpspark/internal/semimat"
	"dpspark/internal/semiring"
)

func newCtx() *rdd.Context {
	return rdd.NewContext(rdd.Conf{Cluster: cluster.Local(4)})
}

func TestSolveMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, cfgs := range []core.Config{
		{BlockSize: 8, Driver: core.IM},
		{BlockSize: 8, Driver: core.CB, RecursiveKernel: true, RShared: 2, Base: 4, Threads: 2},
	} {
		g := graph.Random(30, 0.2, 1, 10, rng)
		s := New(cfgs)
		got, stats, err := s.Solve(newCtx(), g)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Time <= 0 {
			t.Fatal("no virtual time")
		}
		want := g.APSPReference()
		if diff := got.MaxAbsDiff(want); diff > 1e-9 {
			t.Fatalf("APSP vs Dijkstra diff %v", diff)
		}
	}
}

func TestSolveDirectedAsymmetric(t *testing.T) {
	// A 3-cycle with one-way edges: the directed generalization must not
	// symmetrize distances.
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 0, 1)
	s := New(core.Config{BlockSize: 2, Driver: core.IM})
	d, _, err := s.Solve(newCtx(), g)
	if err != nil {
		t.Fatal(err)
	}
	if d.At(0, 1) != 1 || d.At(1, 0) != 2 {
		t.Fatalf("directed distances wrong: %v / %v", d.At(0, 1), d.At(1, 0))
	}
}

func TestSolveOverMaxMinSemiring(t *testing.T) {
	// Widest-path (bottleneck) APSP over the max-min semiring.
	g := graph.New(3)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 3)
	g.AddEdge(0, 2, 2)
	rule := semiring.SemiringRule{S: semiring.MaxMin()}
	s := New(core.Config{Rule: rule, BlockSize: 2, Driver: core.CB})
	n := 3
	capacities := make([]float64, n*n)
	for i := range capacities {
		capacities[i] = math.Inf(-1)
	}
	for i := 0; i < n; i++ {
		capacities[i*n+i] = math.Inf(1)
	}
	capacities[0*n+1] = 5
	capacities[1*n+2] = 3
	capacities[0*n+2] = 2
	got, _, err := s.SolveMatrix(newCtx(), matrix.FromSlice(n, capacities))
	if err != nil {
		t.Fatal(err)
	}
	if got.At(0, 2) != 3 { // widest 0→2 path is via 1: min(5,3)=3 > direct 2
		t.Fatalf("widest path 0→2 = %v, want 3", got.At(0, 2))
	}
	_ = g
}

func TestPathReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	g := graph.Grid(4, 5, 1, 10, rng)
	s := New(core.Config{BlockSize: 8, Driver: core.IM})
	d, _, err := s.Solve(newCtx(), g)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		u, v := rng.Intn(g.N), rng.Intn(g.N)
		path := ReconstructPath(g, d, u, v)
		if path == nil {
			t.Fatalf("grid is connected; no path %d→%d", u, v)
		}
		if path[0] != u || path[len(path)-1] != v {
			t.Fatalf("path endpoints wrong: %v", path)
		}
		if got := PathLength(g, path); math.Abs(got-d.At(u, v)) > 1e-9 {
			t.Fatalf("path length %v != distance %v", got, d.At(u, v))
		}
	}
}

func TestReconstructPathUnreachable(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, 1)
	s := New(core.Config{BlockSize: 2, Driver: core.IM})
	d, _, err := s.Solve(newCtx(), g)
	if err != nil {
		t.Fatal(err)
	}
	if ReconstructPath(g, d, 1, 0) != nil {
		t.Fatal("unreachable pair must yield nil path")
	}
	if ReconstructPath(g, d, -1, 0) != nil {
		t.Fatal("bad vertex must yield nil path")
	}
}

// TestSolveMatchesRepeatedSquaring cross-validates the GEP solver against
// the independent semiring matrix-closure oracle (R-Kleene style).
func TestSolveMatchesRepeatedSquaring(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	g := graph.Random(28, 0.2, 1, 9, rng)
	got, _, err := New(core.Config{BlockSize: 7, Driver: core.CB}).Solve(newCtx(), g)
	if err != nil {
		t.Fatal(err)
	}
	want := semimat.Closure(semiring.MinPlus(), g.DistanceMatrix())
	if diff := got.MaxAbsDiff(want); diff > 1e-9 {
		t.Fatalf("GEP vs repeated-squaring closure diff %v", diff)
	}
}

func TestSolveSymbolic(t *testing.T) {
	ctx := rdd.NewContext(rdd.Conf{Cluster: cluster.Skylake16()})
	s := New(core.Config{BlockSize: 512, Driver: core.IM})
	_, stats, err := core.Run(ctx, matrix.NewSymbolicBlocked(2048, s.Config.BlockSize), s.Config)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Time <= 0 || stats.Iterations != 4 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestMissingBlockSize(t *testing.T) {
	s := New(core.Config{Driver: core.IM})
	if _, _, err := s.Solve(newCtx(), graph.New(2)); err == nil {
		t.Fatal("expected BlockSize error")
	}
}
