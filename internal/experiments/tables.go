package experiments

import (
	"fmt"

	"dpspark/internal/core"
	"dpspark/internal/report"
)

// tableGridCores and tableGridThreads are the axes of Tables I–II.
var (
	tableGridCores   = []int{32, 16, 8, 4, 2, 1}
	tableGridThreads = []int{2, 4, 8, 16, 32}
)

// TableI regenerates Table I: GE on the Skylake cluster, CB driver,
// 4-way recursive kernels, 32K problem with 1K blocks, swept over
// executor-cores × OMP_NUM_THREADS. n=0 runs the paper size.
func TableI(n int) (*report.Table, []Result) {
	return threadGrid("Table I: GE, CB driver, 4-way recursive kernels, block 1K (seconds)",
		Cell{Bench: GE, N: n, Driver: core.CB, Block: 1024, Recursive: true, RShared: 4})
}

// TableII regenerates Table II: FW-APSP, IM driver, 16-way recursive
// kernels, 32K problem with 1K blocks, over the same grid.
func TableII(n int) (*report.Table, []Result) {
	return threadGrid("Table II: FW-APSP, IM driver, 16-way recursive kernels, block 1K (seconds)",
		Cell{Bench: FW, N: n, Driver: core.IM, Block: 1024, Recursive: true, RShared: 16})
}

// threadGrid sweeps the shared grid of the two tables, pricing it from
// the run of its first cell (sweep).
func threadGrid(title string, base Cell) (*report.Table, []Result) {
	rows := make([]string, len(tableGridThreads))
	for i, th := range tableGridThreads {
		rows[i] = fmt.Sprintf("%d", th)
	}
	cols := make([]string, len(tableGridCores))
	for i, c := range tableGridCores {
		cols[i] = fmt.Sprintf("%d", c)
	}
	t := report.NewTable(title, "OMP\\cores", rows, cols)
	var results []Result
	var sw sweep
	for ri, th := range tableGridThreads {
		for ci, cores := range tableGridCores {
			cell := base
			cell.Threads = th
			cell.ExecutorCores = cores
			r := run(cell, nil, &sw)
			results = append(results, r)
			if note := r.Note(); note != "" {
				t.Set(ri, ci, note)
			} else {
				t.Set(ri, ci, report.Seconds(r.Time, false))
			}
		}
	}
	return t, results
}
