package core

import (
	"fmt"

	"dpspark/internal/matrix"
	"dpspark/internal/rdd"
	"dpspark/internal/semiring"
	"dpspark/internal/simtime"
)

// collectBroadcast is the CB driver — Listing 2. Instead of shuffling
// tile copies, each stage's outputs are collected to the driver and
// redistributed through the shared filesystem; consumer kernels read them
// from there (once per executor per stage). Only the end-of-iteration
// partitionBy moves RDD data. Like the listing (which never caches), the
// A and B/C kernels are recomputed by the closing shuffle's map stage —
// the engine replays lineage exactly as Spark would.
func (run *runner) collectBroadcast(dp *rdd.RDD[Block]) (*rdd.RDD[Block], error) {
	ctx := run.ctx
	part := run.cfg.Partitioner
	kr := run.newKernelRunner()
	rule := run.cfg.Rule

	for k := run.startK; k < run.r; k++ {
		k := k
		f := newFilters(rule, k, run.r)
		pivotKey := matrix.Coord{I: k, J: k}
		iterStart := ctx.Clock()
		// Captured ownership tag; see the IM driver.
		gen := uint32(k) + 1

		// Stage 1: A, collected and staged on shared storage.
		ctx.SetPhase("pivot")
		aBlock := rdd.Map(dp.Filter(func(b Block) bool { return f.A(b.Key) }),
			func(tc *rdd.TaskContext, b Block) Block {
				return rdd.KV(b.Key, kr.apply(tc, gen, semiring.KindA, b.Value, nil, nil, nil))
			})
		aCollected, err := aBlock.Collect()
		if err != nil {
			return dp, err
		}
		bcA := rdd.NewBroadcast(ctx, aCollected)
		aIdx := indexBlocks(aCollected)

		// Stage 2: B and C read the pivot from shared storage.
		ctx.SetPhase("row-col")
		bcBlocks := rdd.Map(dp.Filter(func(b Block) bool { return f.B(b.Key) || f.C(b.Key) }),
			func(tc *rdd.TaskContext, b Block) Block {
				bcA.Get(tc)
				pivot := mustTile(aIdx, pivotKey)
				if b.Key.I == k {
					return rdd.KV(b.Key, kr.apply(tc, gen, semiring.KindB, b.Value, pivot, nil, pivot))
				}
				return rdd.KV(b.Key, kr.apply(tc, gen, semiring.KindC, b.Value, nil, pivot, pivot))
			})
		bcCollected, err := bcBlocks.Collect()
		if err != nil {
			return dp, err
		}
		bcPanels := rdd.NewBroadcast(ctx, bcCollected)
		panelIdx := indexBlocks(bcCollected)

		// Stage 3: D reads the row and column panels — plus the pivot,
		// when the rule divides by it — from shared storage; computed
		// lazily by the closing shuffle.
		ctx.SetPhase("update")
		usesPivot := rule.UsesPivot()
		dBlocks := rdd.Map(dp.Filter(func(b Block) bool { return f.D(b.Key) }),
			func(tc *rdd.TaskContext, b Block) Block {
				var pivot *matrix.Tile
				if usesPivot {
					bcA.Get(tc)
					pivot = mustTile(aIdx, pivotKey)
				}
				bcPanels.Get(tc)
				row := mustTile(panelIdx, matrix.Coord{I: k, J: b.Key.J})
				col := mustTile(panelIdx, matrix.Coord{I: b.Key.I, J: k})
				return rdd.KV(b.Key, kr.apply(tc, gen, semiring.KindD, b.Value, col, row, pivot))
			})

		prev := dp.Filter(func(b Block) bool { return !f.Touched(b.Key) })
		dp = rdd.PartitionBy(prev.Union(aBlock, bcBlocks, dBlocks), part)

		// Truncate lineage per generation (see the IM driver); durable
		// checkpoints follow the CheckpointEvery cadence.
		ctx.SetPhase("checkpoint")
		stop := run.cfg.StopRequested != nil && run.cfg.StopRequested()
		stopping := stop || (run.cfg.StopAfter > 0 && k+1 >= run.cfg.StopAfter)
		// A requested stop makes the boundary durable even off-cadence,
		// so the graceful-shutdown path never loses a finished iteration.
		durable := (k+1)%run.cfg.CheckpointEvery == 0 || k == run.r-1 || stop
		if err := run.checkpoint(dp, k, durable, stopping); err != nil {
			return dp, err
		}
		ctx.AdvanceDriver(ctx.Model().DriverIterOverhead(), simtime.Overhead)
		ctx.EmitDriverSpan(fmt.Sprintf("CB iter %d", k), "iteration", iterStart, nil)
		if err := ctx.Err(); err != nil {
			return dp, err
		}
		if stopping {
			break
		}
	}
	ctx.SetPhase("")
	return dp, nil
}

// indexBlocks builds a coordinate index over collected blocks.
func indexBlocks(blocks []Block) map[matrix.Coord]*matrix.Tile {
	idx := make(map[matrix.Coord]*matrix.Tile, len(blocks))
	for _, b := range blocks {
		idx[b.Key] = b.Value
	}
	return idx
}

// mustTile fetches a staged tile, failing loudly on driver bugs.
func mustTile(idx map[matrix.Coord]*matrix.Tile, c matrix.Coord) *matrix.Tile {
	t, ok := idx[c]
	if !ok {
		panic(fmt.Sprintf("core: staged tile %v missing from broadcast", c))
	}
	return t
}
