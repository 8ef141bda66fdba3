// Components: transitive closure — the third canonical GEP instance the
// paper names (Warshall) — as an application: find the strongly connected
// components of a sparse directed graph and answer reachability queries,
// all through the distributed boolean-semiring solver.
//
//	go run ./examples/components
package main

import (
	"fmt"
	"log"

	"dpspark"
)

func main() {
	// A sparse directed graph: below the strong-connectivity threshold,
	// so it decomposes into many components.
	g := dpspark.RandomGraph(300, 0.006, 1, 2, 17)
	fmt.Printf("graph: %d vertices, %d edges\n", g.N, g.Edges())

	session := dpspark.NewSession(dpspark.Local(4))
	cfg := dpspark.Config{BlockSize: 75, Driver: dpspark.IM}

	labels, stats, err := session.StronglyConnectedComponents(g, cfg)
	if err != nil {
		log.Fatal(err)
	}
	counts := map[int]int{}
	for _, l := range labels {
		counts[l]++
	}
	largest := 0
	for _, n := range counts {
		if n > largest {
			largest = n
		}
	}
	fmt.Printf("found %d strongly connected components (largest has %d vertices)\n",
		len(counts), largest)
	fmt.Printf("solved in %v wall (modelled cluster time %v)\n", stats.Wall.Round(1e6), stats.Time)

	// Reachability via the closure matrix directly.
	closure := dpspark.NewSession(dpspark.Local(4))
	tc, _, err := closure.TransitiveClosure(g, cfg)
	if err != nil {
		log.Fatal(err)
	}
	reachable := 0
	for _, v := range tc.Data {
		if v != 0 {
			reachable++
		}
	}
	fmt.Printf("%d of %d ordered pairs are reachable (%.1f%%)\n",
		reachable, g.N*g.N, 100*float64(reachable)/float64(g.N*g.N))
}
