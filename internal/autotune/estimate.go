package autotune

import (
	"dpspark/internal/cluster"
	"dpspark/internal/core"
	"dpspark/internal/costmodel"
	"dpspark/internal/experiments"
	"dpspark/internal/semiring"
	"dpspark/internal/simtime"
)

// Estimate prices a cell with a closed-form analytic model — no
// driver replay — the paper's "estimates from hardware/software
// parameters using analytical models" path for on-the-fly configuration
// selection (§I, §IV-C). It combines core.Explain's per-iteration
// structure with the kernel/transfer cost model and a coarse utilization
// term. Orders of magnitude faster than experiments.Run (microseconds
// per cell), at the cost of accuracy: TestEstimateTracksPrice pins it to
// within a small factor of the replayed model, which is enough to rank
// configurations. Zero cluster and size default as in Run.
func Estimate(cand experiments.Cell) (simtime.Duration, error) {
	cand = cand.Defaulted()
	cl, rule, n := cand.Cluster, cand.Bench.Rule(), cand.N
	cfg := core.Config{
		Rule:            rule,
		BlockSize:       cand.Block,
		Driver:          cand.Driver,
		RecursiveKernel: cand.Recursive,
		RShared:         cand.RShared,
		Threads:         cand.Threads,
	}
	plan, err := core.Explain(n, cfg)
	if err != nil {
		return 0, err
	}
	m := costmodel.New(cl)
	execCores := cand.ExecutorCores
	if execCores <= 0 {
		execCores = cl.Node.Cores
	}
	kcThreads := cand.Threads
	if !cand.Recursive {
		kcThreads = cand.KernelThreads
	}
	kc := costmodel.KernelConfig{
		Recursive: cand.Recursive,
		RShared:   cand.RShared,
		Threads:   kcThreads,
		CoTasks:   execCores,
	}
	b := cand.Block
	tileBytes := int64(b) * int64(b) * 8

	kernelTime := func(kind semiring.Kind) simtime.Duration {
		return m.KernelTime(rule, kind, b, kc)
	}
	occupancy := func(kind semiring.Kind) int { return m.Occupancy(kind, kc) }

	// Node compute capacity in busy-thread units.
	clusterThreads := float64(cl.TotalCores())

	var total simtime.Duration
	for _, it := range plan.Iterations {
		// Kernel compute: thread-seconds spread over the cluster, floored
		// by the serial pivot update (kernel A gates every iteration).
		threadSec := kernelTime(semiring.KindA).Seconds()*float64(occupancy(semiring.KindA)) +
			float64(it.B)*kernelTime(semiring.KindB).Seconds()*float64(occupancy(semiring.KindB)) +
			float64(it.C)*kernelTime(semiring.KindC).Seconds()*float64(occupancy(semiring.KindC)) +
			float64(it.D)*kernelTime(semiring.KindD).Seconds()*float64(occupancy(semiring.KindD))
		compute := simtime.Duration(threadSec / clusterThreads)
		if a := kernelTime(semiring.KindA); a > compute {
			compute = a
		}

		// Communication: the iteration's moved bytes through the relevant
		// channels, spread over the nodes.
		moved := int64(it.MovedTiles) * tileBytes
		perNode := moved / int64(cl.Nodes)
		var comm simtime.Duration
		if cand.Driver == core.CB {
			comm = m.SharedReadTime(moved) + m.SharedWriteTime(moved/int64(cl.Nodes)) +
				m.DiskWriteTime(perNode) + m.DiskReadTime(perNode) + m.NetTime(perNode)
		} else {
			comm = m.DiskWriteTime(perNode) + m.DiskReadTime(perNode) +
				m.NetTime(perNode) + m.SerializeTime(2*perNode/int64(cl.Node.Cores))
		}

		// Framework overheads: stages and jobs per iteration.
		stages := 4.0 // a, panel, interior, checkpoint (IM) / 1 shuffle + 3 jobs (CB)
		jobs := 1.0
		if cand.Driver == core.CB {
			jobs = 3
		}
		overhead := simtime.Duration(stages)*m.StageOverhead() +
			simtime.Duration(jobs)*m.JobOverhead() + m.DriverIterOverhead()

		total += compute + comm + overhead
	}
	return total, nil
}

// EstimateBest ranks the space analytically and returns the winner —
// the on-the-fly selection the paper envisions (microseconds per
// cell instead of a symbolic replay).
func EstimateBest(cl *cluster.Cluster, bench experiments.Benchmark, n int, space Space) (experiments.Cell, simtime.Duration, error) {
	cells, err := enumerate(cl, bench, n, space)
	if err != nil {
		return experiments.Cell{}, 0, err
	}
	var best experiments.Cell
	var bestTime simtime.Duration
	first := true
	for _, c := range cells {
		est, err := Estimate(c)
		if err != nil {
			continue
		}
		if first || est < bestTime {
			best, bestTime, first = c, est, false
		}
	}
	if first {
		return experiments.Cell{}, 0, errNoCandidates
	}
	return best, bestTime, nil
}

var errNoCandidates = matrixError("autotune: no candidate could be estimated")

type matrixError string

func (e matrixError) Error() string { return string(e) }

// enumerate expands the space into cells of the benchmark at size n on
// the cluster (shared with Search).
func enumerate(cl *cluster.Cluster, bench experiments.Benchmark, n int, space Space) ([]experiments.Cell, error) {
	if len(space.Drivers) == 0 {
		space.Drivers = []core.DriverKind{core.IM, core.CB}
	}
	if len(space.BlockSizes) == 0 {
		space.BlockSizes = []int{256, 512, 1024, 2048, 4096}
	}
	if len(space.RShared) == 0 {
		space.RShared = []int{2, 4, 8, 16}
	}
	if len(space.Threads) == 0 {
		space.Threads = []int{2, 4, 8, 16, 32}
	}
	if len(space.ExecutorCores) == 0 {
		space.ExecutorCores = []int{cl.Node.Cores}
	}
	if len(space.KernelThreads) == 0 {
		space.KernelThreads = []int{1}
	}
	var cells []experiments.Cell
	for _, d := range space.Drivers {
		for _, b := range space.BlockSizes {
			if b > n {
				continue
			}
			for _, cores := range space.ExecutorCores {
				if space.IncludeIterative {
					for _, kt := range space.KernelThreads {
						// Widening the kernel shrinks the task slots: the
						// cell carries the co-tuned cores×threads
						// split explicitly so pricing sees it.
						ec := cores
						if kt > 1 {
							ec = cores / kt
							if ec < 1 {
								ec = 1
							}
						}
						cells = append(cells, experiments.Cell{
							Cluster: cl, Bench: bench, N: n,
							Driver: d, Block: b,
							ExecutorCores: ec, KernelThreads: kt,
						})
					}
				}
				for _, rs := range space.RShared {
					for _, th := range space.Threads {
						cells = append(cells, experiments.Cell{
							Cluster: cl, Bench: bench, N: n,
							Driver: d, Block: b, Recursive: true,
							RShared: rs, Threads: th, ExecutorCores: cores,
						})
					}
				}
			}
		}
	}
	if len(cells) == 0 {
		return nil, errEmptySpace
	}
	return cells, nil
}

var errEmptySpace = matrixError("autotune: empty candidate space")
