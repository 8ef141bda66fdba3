package main

import (
	"fmt"
	"runtime"
	"time"

	"dpspark/internal/core"
	"dpspark/internal/experiments"
)

// modelWorkload regenerates Tables I and II at n=8192 in model mode: the
// drivers run their real code path over symbolic tiles and the cluster
// simulator prices every stage. Its inputs are the paper's configuration
// grid, so the seed changes nothing here.
type modelWorkload struct {
	batch
	mem   [2]runtime.MemStats // around the last traced regeneration
	bests [2]float64          // its best modelled seconds, Table I and II
}

const modelN = 8192

// The best (lowest valid) modelled seconds of each table at n=8192, as
// committed: the virtual clock is a pure function of the configuration,
// so a regeneration must reproduce them exactly.
const (
	goldenBestTableI  = 29.956025784769395
	goldenBestTableII = 25.006681726069793
)

func newModel() *modelWorkload {
	w := &modelWorkload{}
	w.batch = batch{
		setup:   func(*env) error { _, err := w.regenerate(); return err }, // warm-up, discarded
		prepare: func(*env) error { return nil },
		solve:   w.solve,
		report:  w.report,
	}
	return w
}

// best returns the lowest modelled time among the valid results.
func best(results []experiments.Result) (float64, error) {
	bestS := 0.0
	for _, r := range results {
		if r.Err != nil {
			return 0, r.Err
		}
		if s := r.Time.Seconds(); !r.TimedOut && (bestS == 0 || s < bestS) {
			bestS = s
		}
	}
	return bestS, nil
}

func checkGolden(bestI, bestII float64) error {
	if bestI != goldenBestTableI || bestII != goldenBestTableII {
		return fmt.Errorf("best modelled seconds %v (Table I) and %v (Table II) differ from the committed %v and %v",
			bestI, bestII, goldenBestTableI, goldenBestTableII)
	}
	return nil
}

func (w *modelWorkload) regenerate() (float64, error) {
	t0 := time.Now()
	_, r1 := experiments.TableI(modelN)
	_, r2 := experiments.TableII(modelN)
	d := time.Since(t0).Seconds()
	b1, err := best(r1)
	if err != nil {
		return 0, err
	}
	b2, err := best(r2)
	if err != nil {
		return 0, err
	}
	return d, checkGolden(b1, b2)
}

// The grid of Tables I-II (internal/experiments/tables.go), repeated here
// so that the traced pass can time one cell at a time.
var (
	gridCores   = []int{32, 16, 8, 4, 2, 1}
	gridThreads = []int{2, 4, 8, 16, 32}
)

func (w *modelWorkload) solve(_ *env, tr *tracer, id int) (float64, error) {
	if tr == nil {
		return w.regenerate()
	}
	root := tr.begin("solve", "harness", id, -1)
	runtime.ReadMemStats(&w.mem[0])
	for t, base := range []experiments.Cell{
		{Bench: experiments.GE, N: modelN, Driver: core.CB, Block: 1024, Recursive: true, RShared: 4},
		{Bench: experiments.FW, N: modelN, Driver: core.IM, Block: 1024, Recursive: true, RShared: 16},
	} {
		var results []experiments.Result
		for _, th := range gridThreads {
			for _, cores := range gridCores {
				cell := base
				cell.Threads, cell.ExecutorCores = th, cores
				sp := tr.begin("cell", "model", id, root)
				results = append(results, experiments.Run(cell))
				tr.end(sp)
			}
		}
		b, err := best(results)
		if err != nil {
			tr.end(root)
			return 0, err
		}
		w.bests[t] = b
	}
	runtime.ReadMemStats(&w.mem[1])
	tr.end(root)
	d := tr.durations("solve")
	return d[len(d)-1], checkGolden(w.bests[0], w.bests[1])
}

func (w *modelWorkload) report(_ *env, tr *tracer, solves int, m map[string]float64) error {
	cells := tr.durations("cell")
	perSolve := float64(len(cells)) / float64(solves)
	m["model.cells"] = perSolve
	m["model.cell_ms_p50"] = 1e3 * median(cells)
	// Allocation of the last traced regeneration, per cell.
	m["model.allocs_per_cell"] = float64(w.mem[1].Mallocs-w.mem[0].Mallocs) / perSolve
	m["model.alloc_mb_per_cell"] = float64(w.mem[1].TotalAlloc-w.mem[0].TotalAlloc) / 1e6 / perSolve
	m["model.best_model_s_tableI"] = w.bests[0]
	m["model.best_model_s_tableII"] = w.bests[1]
	return nil
}
