package baseline

import (
	"math/rand"
	"testing"

	"dpspark/internal/cluster"
	"dpspark/internal/graph"
	"dpspark/internal/rdd"
	"dpspark/internal/simtime"
)

func newCtx() *rdd.Context {
	return rdd.NewContext(rdd.Conf{Cluster: cluster.Local(4)})
}

func TestDirectedMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	g := graph.Random(25, 0.25, 1, 9, rng)
	got, stats, err := Solve(newCtx(), g.DistanceMatrix(), Config{BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Time <= 0 {
		t.Fatal("no virtual time")
	}
	if diff := got.MaxAbsDiff(g.APSPReference()); diff > 1e-9 {
		t.Fatalf("baseline vs Dijkstra diff %v", diff)
	}
}

func TestUndirectedMatchesDirected(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	g := graph.Grid(5, 5, 1, 10, rng) // grid generator is not symmetric per edge pair
	// Symmetrize: same weight both directions.
	sym := graph.New(g.N)
	for _, es := range g.Adj {
		for _, e := range es {
			if e.From < e.To {
				sym.AddEdge(e.From, e.To, e.Weight)
				sym.AddEdge(e.To, e.From, e.Weight)
			}
		}
	}
	d := sym.DistanceMatrix()
	directed, _, err := Solve(newCtx(), d, Config{BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	undirected, _, err := Solve(newCtx(), d, Config{BlockSize: 8, Undirected: true})
	if err != nil {
		t.Fatal(err)
	}
	if diff := undirected.MaxAbsDiff(directed); diff > 1e-9 {
		t.Fatalf("undirected optimization changed the answer: diff %v", diff)
	}
}

func TestUndirectedHalvesComputeAndTraffic(t *testing.T) {
	n := 2048
	full := rdd.NewContext(rdd.Conf{Cluster: cluster.Skylake16()})
	if _, err := SolveSymbolic(full, n, Config{BlockSize: 256}); err != nil {
		t.Fatal(err)
	}
	half := rdd.NewContext(rdd.Conf{Cluster: cluster.Skylake16()})
	if _, err := SolveSymbolic(half, n, Config{BlockSize: 256, Undirected: true}); err != nil {
		t.Fatal(err)
	}
	fullC := full.Ledger().Snapshot()[simtime.Compute]
	halfC := half.Ledger().Snapshot()[simtime.Compute]
	if halfC >= fullC {
		t.Fatalf("undirected compute %v not below directed %v", halfC, fullC)
	}
	if half.Breakdown().ShuffleWriteBytes >= full.Breakdown().ShuffleWriteBytes {
		t.Fatal("undirected mode must shuffle fewer bytes")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := SolveSymbolic(newCtx(), 64, Config{}); err == nil {
		t.Fatal("expected BlockSize error")
	}
}
