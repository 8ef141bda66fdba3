// Tuning: the paper's central practical message is that the block
// decomposition r, the kernel fan-out r_shared, OMP_NUM_THREADS and
// executor-cores must be tuned per cluster (§V-C, Fig. 8). This example
// uses the analytic cluster model to autotune FW-APSP for the paper's
// two clusters and shows that the best configuration differs — and that
// carrying cluster #1's configuration to cluster #2 is expensive.
//
//	go run ./examples/tuning
package main

import (
	"fmt"
	"log"

	"dpspark/internal/autotune"
	"dpspark/internal/cluster"
	"dpspark/internal/core"
	"dpspark/internal/experiments"
)

func main() {
	const n = 16384
	space := autotune.Space{
		Drivers:          []core.DriverKind{core.IM, core.CB},
		BlockSizes:       []int{256, 512, 1024, 2048},
		RShared:          []int{4, 16},
		Threads:          []int{2, 8, 32},
		IncludeIterative: true,
	}

	clusters := []*cluster.Cluster{cluster.Skylake16(), cluster.Haswell16()}
	best := make([]experiments.Result, len(clusters))
	for i, cl := range clusters {
		outs, b, err := autotune.Search(cl, experiments.FW, n, space)
		if err != nil {
			log.Fatal(err)
		}
		best[i] = b
		fmt.Printf("%s — %d candidates, top 3:\n", cl, len(outs))
		for j := 0; j < 3 && j < len(outs); j++ {
			fmt.Printf("  %d. %-38s %7.0fs\n", j+1, outs[j].Cell, outs[j].Time.Seconds())
		}
	}

	// What happens if cluster #1's winner is carried to cluster #2
	// unchanged (the paper's Fig. 8 experiment)?
	moved := best[0].Cell
	moved.Cluster = clusters[1]
	carried := experiments.Run(moved)
	fmt.Printf("\ncluster #1's best (%s) on cluster #2: %.0fs vs tuned %.0fs → %.1f× slower untuned\n",
		best[0].Cell, carried.Time.Seconds(), best[1].Time.Seconds(),
		carried.Time.Seconds()/best[1].Time.Seconds())
}
