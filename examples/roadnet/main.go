// Roadnet: an APSP workload in the style of the transportation
// applications the paper cites for Floyd-Warshall — a grid road network
// with asymmetric per-direction travel times. Solves shortest distances
// and widest (maximum-capacity) routes over two different semirings,
// prints a route, and cross-checks against the independent
// Schoeneman–Zola-style baseline solver.
//
//	go run ./examples/roadnet
package main

import (
	"fmt"
	"log"

	"dpspark"
	"dpspark/internal/baseline"
	"dpspark/internal/rdd"
)

func main() {
	const rows, cols = 24, 24
	g := dpspark.GridGraph(rows, cols, 1, 10, 11)
	fmt.Printf("road network: %d intersections, %d road segments\n", g.N, g.Edges())

	session := dpspark.NewSession(dpspark.Local(4))
	cfg := dpspark.Config{
		BlockSize:       96,
		Driver:          dpspark.IM,
		RecursiveKernel: true,
		RShared:         4,
		Threads:         4,
	}
	dist, stats, err := session.APSP(g, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("travel times solved in %v wall (modelled %v)\n", stats.Wall.Round(1e6), stats.Time)

	// A corner-to-corner route.
	src, dst := 0, g.N-1
	route := dpspark.ShortestPath(g, dist, src, dst)
	fmt.Printf("fastest route %d→%d takes %.1f, via %d intersections\n",
		src, dst, dist.At(src, dst), len(route))

	// Widest paths (bottleneck capacity) over the max-min semiring: build
	// the capacity matrix from the same topology.
	sr := dpspark.MaxMin()
	capMat := &dpspark.Matrix{N: g.N, Data: make([]float64, g.N*g.N)}
	for i := range capMat.Data {
		capMat.Data[i] = sr.Zero
	}
	for i := 0; i < g.N; i++ {
		capMat.Set(i, i, sr.One)
	}
	for _, es := range g.Adj {
		for _, e := range es {
			capMat.Set(e.From, e.To, 11-e.Weight) // fast roads are wide
		}
	}
	capacity := dpspark.NewSession(dpspark.Local(4))
	widest, _, err := capacity.APSPSemiring(capMat, sr, dpspark.Config{BlockSize: 96})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("widest route %d→%d sustains capacity %.1f\n", src, dst, widest.At(src, dst))

	// Cross-check distances against the independent baseline solver
	// (Schoeneman–Zola style blocked FW with iterative kernels).
	ctx := rdd.NewContext(rdd.Conf{Cluster: dpspark.Local(4)})
	baseDist, baseStats, err := baseline.Solve(ctx, g.DistanceMatrix(), baseline.Config{BlockSize: 96})
	if err != nil {
		log.Fatal(err)
	}
	if diff := baseDist.MaxAbsDiff(dist); diff > 1e-9 {
		log.Fatalf("baseline disagrees: %v", diff)
	}
	fmt.Printf("baseline solver agrees ✓ (baseline modelled time %v vs this work %v)\n",
		baseStats.Time, stats.Time)
}
