package closure

import (
	"math/rand"
	"testing"

	"dpspark/internal/cluster"
	"dpspark/internal/core"
	"dpspark/internal/graph"
	"dpspark/internal/matrix"
	"dpspark/internal/rdd"
)

func newCtx() *rdd.Context {
	return rdd.NewContext(rdd.Conf{Cluster: cluster.Local(4)})
}

// bruteClosure computes reachability by DFS from every vertex.
func bruteClosure(g *graph.Graph) *matrix.Dense {
	out := matrix.NewDense(g.N)
	for s := 0; s < g.N; s++ {
		stack := []int{s}
		seen := make([]bool, g.N)
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			out.Set(s, u, 1)
			for _, e := range g.Adj[u] {
				if !seen[e.To] {
					seen[e.To] = true
					stack = append(stack, e.To)
				}
			}
		}
	}
	return out
}

func TestClosureMatchesDFS(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 5; trial++ {
		g := graph.Random(30, 0.08, 1, 2, rng)
		for _, driver := range []core.DriverKind{core.IM, core.CB} {
			got, stats, err := New(core.Config{BlockSize: 8, Driver: driver}).Solve(newCtx(), g)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Time <= 0 {
				t.Fatal("no virtual time")
			}
			want := bruteClosure(g)
			if diff := got.MaxAbsDiff(want); diff != 0 {
				t.Fatalf("trial %d driver %v: closure differs from DFS (%v)", trial, driver, diff)
			}
		}
	}
}

func TestComponentsOnKnownGraph(t *testing.T) {
	// Two 2-cycles joined by a one-way edge, plus an isolated vertex:
	// components {0,1}, {2,3}, {4}.
	g := graph.New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 0, 1)
	g.AddEdge(1, 2, 1) // bridge, one-way
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 2, 1)
	c, _, err := New(core.Config{BlockSize: 2}).Solve(newCtx(), g)
	if err != nil {
		t.Fatal(err)
	}
	labels := Components(c)
	if labels[0] != labels[1] || labels[2] != labels[3] {
		t.Fatalf("labels = %v", labels)
	}
	if labels[0] == labels[2] || labels[4] == labels[0] || labels[4] == labels[2] {
		t.Fatalf("labels = %v", labels)
	}
	if c.At(0, 3) == 0 || c.At(3, 0) != 0 {
		t.Fatal("reachability wrong across the bridge")
	}
}

func TestComponentsPermutationInvariance(t *testing.T) {
	// Property: component partition sizes are invariant under vertex
	// relabelling.
	rng := rand.New(rand.NewSource(62))
	g := graph.Random(24, 0.1, 1, 2, rng)
	perm := rng.Perm(g.N)
	pg := graph.New(g.N)
	for _, es := range g.Adj {
		for _, e := range es {
			pg.AddEdge(perm[e.From], perm[e.To], e.Weight)
		}
	}
	sizes := func(gr *graph.Graph) map[int]int {
		c, _, err := New(core.Config{BlockSize: 8}).Solve(newCtx(), gr)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[int]int{}
		for _, l := range Components(c) {
			counts[l]++
		}
		hist := map[int]int{} // size → how many components of that size
		for _, n := range counts {
			hist[n]++
		}
		return hist
	}
	a, b := sizes(g), sizes(pg)
	if len(a) != len(b) {
		t.Fatalf("component size histograms differ: %v vs %v", a, b)
	}
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("component size histograms differ: %v vs %v", a, b)
		}
	}
}

func TestMissingBlockSize(t *testing.T) {
	if _, _, err := New(core.Config{}).Solve(newCtx(), graph.New(2)); err == nil {
		t.Fatal("expected BlockSize error")
	}
}
