package experiments

import (
	"fmt"

	"dpspark/internal/baseline"
	"dpspark/internal/cluster"
	"dpspark/internal/core"
	"dpspark/internal/matrix"
	"dpspark/internal/mpifw"
	"dpspark/internal/rdd"
	"dpspark/internal/report"
	"dpspark/internal/simtime"
)

// AblationPartitioner compares Spark's default hash partitioner against
// the custom grid partitioner the paper proposes as future work (§VI),
// for both benchmarks. n=0 runs the paper size.
func AblationPartitioner(n int) (*report.Table, []Result) {
	if n == 0 {
		n = PaperN
	}
	benches := []Benchmark{FW, GE}
	parts := []string{"hash (default)", "grid (custom)"}
	t := report.NewTable("Ablation: partitioner (seconds, block 1K, 4-way recursive, omp 8)",
		"benchmark", []string{benches[0].String(), benches[1].String()}, parts)
	// The grid partitioner takes the hash default's partition count.
	nParts := cluster.Skylake16().DefaultPartitions()
	var results []Result
	for bi, bench := range benches {
		driver := core.IM
		if bench == GE {
			driver = core.CB
		}
		for pi, grid := range []bool{false, true} {
			cell := Cell{Bench: bench, N: n, Driver: driver, Block: 1024,
				Recursive: true, RShared: 4, Threads: 8}
			var p rdd.Partitioner
			if grid {
				p = rdd.NewGridPartitioner(nParts, matrix.Grid(n, cell.Block))
			}
			r := run(cell, p)
			results = append(results, r)
			t.Set(bi, pi, report.Seconds(r.Time, r.TimedOut))
		}
	}
	return t, results
}

// AblationPartitions sweeps the RDD-partition multiplier (the paper
// fixes 2× total cores per Spark's guideline, §V-B).
func AblationPartitions(n int) (*report.Table, []Result) {
	if n == 0 {
		n = PaperN
	}
	cl := cluster.Skylake16()
	mults := []int{1, 2, 4}
	cols := make([]string, len(mults))
	for i, m := range mults {
		cols[i] = fmt.Sprintf("%d× cores", m)
	}
	t := report.NewTable("Ablation: RDD partitions (seconds, FW-APSP IM, block 1K, 4-way rec, omp 8)",
		"", []string{"time"}, cols)
	var results []Result
	for i, m := range mults {
		r := Run(Cell{Bench: FW, N: n, Driver: core.IM, Block: 1024,
			Recursive: true, RShared: 4, Threads: 8,
			Partitions: m * cl.TotalCores()})
		results = append(results, r)
		t.Set(0, i, report.Seconds(r.Time, r.TimedOut))
	}
	return t, results
}

// AblationRShared sweeps the recursive fan-out at fixed block size and
// threads, isolating the r_shared tunable.
func AblationRShared(n int) (*report.Table, []Result) {
	if n == 0 {
		n = PaperN
	}
	rs := []int{2, 4, 8, 16}
	cols := make([]string, len(rs))
	for i, r := range rs {
		cols[i] = fmt.Sprintf("r=%d", r)
	}
	t := report.NewTable("Ablation: r_shared (seconds, block 1K, omp 8)",
		"benchmark", []string{FW.String(), GE.String()}, cols)
	var results []Result
	for bi, bench := range []Benchmark{FW, GE} {
		driver := core.IM
		if bench == GE {
			driver = core.CB
		}
		for ci, r := range rs {
			res := Run(Cell{Bench: bench, N: n, Driver: driver, Block: 1024,
				Recursive: true, RShared: r, Threads: 8})
			results = append(results, res)
			t.Set(bi, ci, report.Seconds(res.Time, res.TimedOut))
		}
	}
	return t, results
}

// AblationBaseline compares this work's FW solver against the
// Schoeneman–Zola baseline (iterative kernels), the baseline's
// undirected optimization, and the MPI-style BSP solver of the related
// work — the comparisons framing the paper.
func AblationBaseline(n int) (*report.Table, []Result) {
	if n == 0 {
		n = PaperN
	}
	cl := cluster.Skylake16()
	rows := []string{
		"baseline (S-Z, iterative, directed)",
		"baseline (S-Z, iterative, undirected)",
		"this work (IM, iterative)",
		"this work (IM, 16-way recursive, omp 8)",
		"MPI-style BSP (16-way recursive, omp 8)",
	}
	t := report.NewTable("Baseline comparison: FW-APSP, block 1K (seconds)", "configuration",
		rows, []string{"time"})
	var results []Result

	runBaseline := func(und bool) Result {
		ctx := rdd.NewContext(rdd.Conf{Cluster: cl, Observer: obsv})
		stats, err := baseline.SolveSymbolic(ctx, n, baseline.Config{BlockSize: 1024, Undirected: und})
		return result(Cell{Bench: FW, N: n, Block: 1024, Cluster: cl}, ctx, stats, err)
	}
	mpiTime := mpifw.ModelTime(cl, n, mpifw.Config{
		BlockSize: 1024, Recursive: true, RShared: 16, Threads: 8,
	})
	all := []Result{
		runBaseline(false),
		runBaseline(true),
		Run(Cell{Bench: FW, N: n, Driver: core.IM, Block: 1024}),
		Run(Cell{Bench: FW, N: n, Driver: core.IM, Block: 1024, Recursive: true, RShared: 16, Threads: 8}),
		{Cell: Cell{Bench: FW, N: n, Block: 1024, Cluster: cl}, Time: mpiTime},
	}
	for i, r := range all {
		results = append(results, r)
		t.Set(i, 0, report.Seconds(r.Time, r.TimedOut))
	}
	return t, results
}

// AblationSummary renders all ablations into one string-producing bundle
// for the CLI.
type AblationSummary struct {
	Tables  []*report.Table
	Results []Result
}

// Ablations runs every ablation at the given size (0 = paper size).
func Ablations(n int) AblationSummary {
	var s AblationSummary
	for _, f := range []func(int) (*report.Table, []Result){
		AblationPartitioner, AblationPartitions, AblationRShared, AblationBaseline,
	} {
		t, r := f(n)
		s.Tables = append(s.Tables, t)
		s.Results = append(s.Results, r...)
	}
	return s
}

// BreakdownString renders a result's cost breakdown compactly.
func (r Result) BreakdownString() string {
	return fmt.Sprintf("compute=%v disk=%v net=%v shared=%v overhead=%v",
		r.Breakdown[simtime.Compute], r.Breakdown[simtime.LocalDisk],
		r.Breakdown[simtime.Network], r.Breakdown[simtime.SharedFS],
		r.Breakdown[simtime.Overhead])
}
