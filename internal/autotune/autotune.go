// Package autotune searches the paper's tuning space — block size r,
// kernel type, r_shared, OMP_NUM_THREADS, executor-cores and driver — by
// enumerating experiments.Cells and pricing them on the cluster model (the
// paper §IV-C: "the decomposition parameter can be tuned ... using
// estimates from hardware/software parameters based on analytical
// models"). Each cell is priced by experiments.Run, a full symbolic run of
// the actual drivers, so the search sees every modelled effect: cache
// cliffs, oversubscription, shuffle versus broadcast traffic, timeouts and
// staging-disk failures. Estimate is the closed-form alternative.
package autotune

import (
	"fmt"
	"sort"

	"dpspark/internal/cluster"
	"dpspark/internal/core"
	"dpspark/internal/experiments"
)

// Space enumerates candidate cells. Zero-value fields fall back to
// the paper's sweep (§V-C).
type Space struct {
	// Drivers to try (default: IM and CB).
	Drivers []core.DriverKind
	// BlockSizes to try (default: 256, 512, 1024, 2048, 4096).
	BlockSizes []int
	// RShared fan-outs for recursive kernels (default: 2, 4, 8, 16).
	RShared []int
	// Threads values for recursive kernels (default: 2, 4, 8, 16, 32).
	Threads []int
	// ExecutorCores settings (default: all physical cores).
	ExecutorCores []int
	// KernelThreads widths for iterative kernels (default: 1, serial).
	// Each width > 1 co-tunes the cell's ExecutorCores down to
	// cores/threads so task slots × kernel threads covers the node once —
	// the paper's cores×threads trade-off.
	KernelThreads []int
	// IncludeIterative adds the iterative-kernel cells (default on
	// via DefaultSpace).
	IncludeIterative bool
}

// DefaultSpace returns the paper's sweep.
func DefaultSpace(c *cluster.Cluster) Space {
	return Space{
		Drivers:          []core.DriverKind{core.IM, core.CB},
		BlockSizes:       []int{256, 512, 1024, 2048, 4096},
		RShared:          []int{2, 4, 8, 16},
		Threads:          []int{2, 4, 8, 16, 32},
		ExecutorCores:    []int{c.Node.Cores},
		KernelThreads:    []int{1, 2, 4, 8},
		IncludeIterative: true,
	}
}

// Search prices every cell of the space for an n×n problem of the
// benchmark on the cluster with experiments.Run and returns all results
// (fastest first, failures last, by experiments.Better) plus the best.
// It errors only if no cell completes.
func Search(cl *cluster.Cluster, bench experiments.Benchmark, n int, space Space) ([]experiments.Result, experiments.Result, error) {
	cells, err := enumerate(cl, bench, n, space)
	if err != nil {
		return nil, experiments.Result{}, fmt.Errorf("autotune: %w (n=%d)", err, n)
	}

	results := make([]experiments.Result, 0, len(cells))
	for _, c := range cells {
		results = append(results, experiments.Run(c))
	}
	sort.SliceStable(results, func(i, j int) bool { return experiments.Better(results[i], results[j]) })
	if results[0].Note() != "" {
		return results, results[0], fmt.Errorf("autotune: no candidate completed within bounds")
	}
	return results, results[0], nil
}
