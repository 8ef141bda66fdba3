// Package baseline is an independent implementation of the blocked
// Floyd-Warshall APSP solver of Schoeneman & Zola (ICPP'19) — the
// state-of-the-art Spark FW-APSP solver the paper benchmarks against. It
// uses iterative kernels only and, in its original form, exploits
// undirected symmetry by storing just the upper block triangle of the
// distance matrix and transposing panel tiles on demand; directed mode is
// the generalization the paper contributes.
//
// The solver is written directly against the engine (collect/broadcast
// tile movement, one partitionBy per iteration) so benchmark comparisons
// against internal/core are code-vs-code, not configuration-vs-
// configuration.
package baseline

import (
	"fmt"

	"dpspark/internal/core"
	"dpspark/internal/costmodel"
	"dpspark/internal/kernels"
	"dpspark/internal/matrix"
	"dpspark/internal/rdd"
	"dpspark/internal/semiring"
	"dpspark/internal/simtime"
)

// Config tunes the baseline solver.
type Config struct {
	// BlockSize is the tile dimension.
	BlockSize int
	// Partitions is the RDD partition count (default 2× total cores).
	Partitions int
	// Undirected enables the symmetric upper-triangle optimization of
	// the original solver. The input matrix must be symmetric.
	Undirected bool
}

// Block is a tile record.
type Block = rdd.Pair[matrix.Coord, *matrix.Tile]

// Solve runs blocked FW-APSP on a dense distance matrix.
func Solve(ctx *rdd.Context, d *matrix.Dense, cfg Config) (*matrix.Dense, *core.Stats, error) {
	if cfg.BlockSize < 1 {
		return nil, nil, fmt.Errorf("baseline: BlockSize must be set")
	}
	rule := semiring.NewFloydWarshall()
	bl := matrix.Block(d, cfg.BlockSize, rule.Pad(), rule.PadDiag())
	out, stats, err := run(ctx, bl, cfg)
	if err != nil {
		return nil, stats, err
	}
	return out.ToDense(), stats, nil
}

// SolveSymbolic prices an n-vertex run without computing distances.
func SolveSymbolic(ctx *rdd.Context, n int, cfg Config) (*core.Stats, error) {
	if cfg.BlockSize < 1 {
		return nil, fmt.Errorf("baseline: BlockSize must be set")
	}
	bl := matrix.NewSymbolicBlocked(n, cfg.BlockSize)
	_, stats, err := run(ctx, bl, cfg)
	return stats, err
}

func run(ctx *rdd.Context, bl *matrix.Blocked, cfg Config) (*matrix.Blocked, *core.Stats, error) {
	if cfg.Partitions < 1 {
		cfg.Partitions = ctx.Cluster().DefaultPartitions()
	}
	mark := core.MarkRun(ctx)
	rule := semiring.NewFloydWarshall()
	exec := kernels.NewIterative(rule)
	kc := costmodel.KernelConfig{CoTasks: ctx.ExecutorCores()}
	part := rdd.NewHashPartitioner(cfg.Partitions)
	r := bl.R

	blocks := make([]Block, 0, r*r)
	for _, c := range bl.Coords() {
		if cfg.Undirected && c.I > c.J {
			continue // keep only the upper block triangle
		}
		blocks = append(blocks, rdd.KV(c, bl.Tile(c)))
	}
	dp := rdd.ParallelizePairs(ctx, blocks, part)

	var cost [4]simtime.Duration
	for kind := range cost {
		cost[kind] = ctx.Model().KernelTime(rule, semiring.Kind(kind), bl.B, kc)
	}
	apply := func(tc *rdd.TaskContext, kind semiring.Kind, x, u, v, w *matrix.Tile) *matrix.Tile {
		out := x.Clone()
		tc.ChargeCompute(cost[kind], 1)
		if !out.Symbolic() {
			exec.Apply(kind, out, u, v, w)
		}
		return out
	}

	for k := 0; k < r; k++ {
		k := k

		// Phase 1: diagonal block.
		ctx.SetPhase("pivot")
		diag := rdd.Map(dp.Filter(func(b Block) bool { return b.Key.I == k && b.Key.J == k }),
			func(tc *rdd.TaskContext, b Block) Block {
				return rdd.KV(b.Key, apply(tc, semiring.KindA, b.Value, nil, nil, nil))
			})
		diagCollected, err := diag.Collect()
		if err != nil {
			return nil, mark.StatsSince(ctx, r), err
		}
		diagBC := rdd.NewBroadcast(ctx, diagCollected)
		pivot := func() *matrix.Tile { return diagCollected[0].Value }

		// Phase 2: row and column panels (only kept blocks in
		// undirected mode; the missing strip is the transpose).
		isPanel := func(c matrix.Coord) bool {
			return (c.I == k) != (c.J == k)
		}
		ctx.SetPhase("row-col")
		panels := rdd.Map(dp.Filter(func(b Block) bool { return isPanel(b.Key) }),
			func(tc *rdd.TaskContext, b Block) Block {
				diagBC.Get(tc)
				if b.Key.I == k {
					return rdd.KV(b.Key, apply(tc, semiring.KindB, b.Value, pivot(), nil, pivot()))
				}
				return rdd.KV(b.Key, apply(tc, semiring.KindC, b.Value, nil, pivot(), pivot()))
			})
		panelsCollected, err := panels.Collect()
		if err != nil {
			return nil, mark.StatsSince(ctx, r), err
		}
		panelBC := rdd.NewBroadcast(ctx, panelsCollected)
		panelIdx := make(map[matrix.Coord]*matrix.Tile, len(panelsCollected))
		for _, b := range panelsCollected {
			panelIdx[b.Key] = b.Value
		}
		// lookup serves (i,k)/(k,j) tiles, transposing the mirror tile
		// when only the other triangle is stored.
		lookup := func(c matrix.Coord) *matrix.Tile {
			if t, ok := panelIdx[c]; ok {
				return t
			}
			if cfg.Undirected {
				if t, ok := panelIdx[matrix.Coord{I: c.J, J: c.I}]; ok {
					return t.Transpose()
				}
			}
			panic(fmt.Sprintf("baseline: panel tile %v missing", c))
		}

		// Phase 3: remaining blocks. The min-plus D update never reads
		// the pivot tile, so phase 3 only fetches the panel broadcast.
		ctx.SetPhase("update")
		interior := rdd.Map(dp.Filter(func(b Block) bool { return b.Key.I != k && b.Key.J != k }),
			func(tc *rdd.TaskContext, b Block) Block {
				panelBC.Get(tc)
				u := lookup(matrix.Coord{I: b.Key.I, J: k})
				v := lookup(matrix.Coord{I: k, J: b.Key.J})
				return rdd.KV(b.Key, apply(tc, semiring.KindD, b.Value, u, v, nil))
			})

		dp = rdd.PartitionBy(diag.Union(panels, interior), part)
		ctx.SetPhase("checkpoint")
		if err := dp.Checkpoint(); err != nil {
			return nil, mark.StatsSince(ctx, r), err
		}
		ctx.AdvanceDriver(ctx.Model().DriverIterOverhead(), simtime.Overhead)
	}

	ctx.SetPhase("")
	stats := mark.StatsSince(ctx, r)
	if bl.Symbolic() {
		if _, err := dp.Count(); err != nil {
			return nil, mark.StatsSince(ctx, r), err
		}
		return nil, mark.StatsSince(ctx, r), nil
	}
	final, err := dp.Collect()
	if err != nil {
		return nil, stats, err
	}
	out := matrix.NewSymbolicBlocked(bl.N, bl.B)
	for _, b := range final {
		out.SetTile(b.Key, b.Value)
		if cfg.Undirected && b.Key.I != b.Key.J {
			out.SetTile(matrix.Coord{I: b.Key.J, J: b.Key.I}, b.Value.Transpose())
		}
	}
	return out, mark.StatsSince(ctx, r), nil
}
