// Quickstart: solve all-pairs shortest paths on a small random directed
// graph with the distributed Floyd-Warshall solver, compare iterative and
// recursive kernels, and verify against Dijkstra.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"dpspark"
)

func main() {
	// A directed graph: 400 vertices, ~5% edge density, weights in [1,10).
	g := dpspark.RandomGraph(400, 0.05, 1, 10, 7)
	fmt.Printf("graph: %d vertices, %d edges\n", g.N, g.Edges())

	// The engine simulates a small local "cluster"; the computation runs
	// for real on goroutines.
	session := dpspark.NewSession(dpspark.Local(4))

	// Iterative kernels (the baseline configuration).
	distIter, statsIter, err := session.APSP(g, dpspark.Config{
		BlockSize: 100,
		Driver:    dpspark.IM,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("iterative kernels: wall %v (modelled cluster time %v)\n",
		statsIter.Wall.Round(1e6), statsIter.Time)

	// Recursive 4-way R-DP kernels with 4 worker threads — the paper's
	// OpenMP-offload configuration.
	recursive := dpspark.NewSession(dpspark.Local(4))
	distRec, statsRec, err := recursive.APSP(g, dpspark.Config{
		BlockSize:       100,
		Driver:          dpspark.IM,
		RecursiveKernel: true,
		RShared:         4,
		Threads:         4,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recursive kernels: wall %v (modelled cluster time %v)\n",
		statsRec.Wall.Round(1e6), statsRec.Time)

	// Both must agree with each other (up to FP association order — the
	// kernel families add path weights in different orders) and with
	// Dijkstra.
	if diff := distIter.MaxAbsDiff(distRec); diff > 1e-9 {
		log.Fatalf("kernel families disagree: %v", diff)
	}
	if diff := distIter.MaxAbsDiff(g.APSPReference()); diff > 1e-9 {
		log.Fatalf("APSP does not match Dijkstra: %v", diff)
	}
	fmt.Println("validated against Dijkstra ✓")

	// Reconstruct one shortest path.
	if p := dpspark.ShortestPath(g, distIter, 0, g.N-1); p != nil {
		fmt.Printf("shortest path 0→%d (length %.2f): %v\n", g.N-1, distIter.At(0, g.N-1), p)
	}
}
