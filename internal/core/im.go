package core

import (
	"fmt"

	"dpspark/internal/matrix"
	"dpspark/internal/rdd"
	"dpspark/internal/semiring"
	"dpspark/internal/simtime"
)

// inMemory is the IM driver — Listing 1. Per iteration k it runs three
// stages. Every kernel emits, besides its updated tile (RoleDone), copies
// of that tile addressed to the consumers of the next stage; partitionBy
// moves the copies (a shuffle: flatMap discards the partitioner) and a
// co-partitioned combineByKey assembles each target's operand set without
// further movement.
func (run *runner) inMemory(dp *rdd.RDD[Block]) (*rdd.RDD[Block], error) {
	ctx := run.ctx
	part := run.cfg.Partitioner
	kr := run.newKernelRunner()
	rule := run.cfg.Rule

	for k := run.startK; k < run.r; k++ {
		k := k
		f := newFilters(rule, k, run.r)
		rest := rule.Restricted(k, run.r)
		iterStart := ctx.Clock()
		// The iteration's ownership tag, captured by the kernel closures:
		// replays (retries, CB recompute, recovery resubmission) must see
		// the generation the kernel belongs to, not the driver's current
		// one.
		gen := uint32(k) + 1

		// Stage 1: A updates the pivot tile and replicates it to its
		// consumers: the B and C panels always, and the D blocks only
		// when the update rule reads the pivot value (GE's division —
		// the paper's (r−k−1)² extra copies; FW's min-plus update never
		// reads c[k,k], the "lighter dependencies" of Fig. 7).
		ctx.SetPhase("pivot")
		aIn := dp.Filter(func(b Block) bool { return f.A(b.Key) })
		pivotToD := rule.UsesPivot()
		aBlocks := rdd.PartitionBy(
			rdd.FlatMap(aIn, func(tc *rdd.TaskContext, b Block) []rdd.Pair[matrix.Coord, Msg] {
				updated := kr.apply(tc, gen, semiring.KindA, b.Value, nil, nil, nil)
				// One Done record, a pivot copy per B and per C panel, and
				// the (r−k−1)² D-addressed copies only when the rule reads
				// the pivot (FW's min-plus never does — reserving for them
				// would quadruple the emit slice for nothing).
				emits := 1 + 2*len(rest)
				if pivotToD {
					emits += len(rest) * len(rest)
				}
				out := make([]rdd.Pair[matrix.Coord, Msg], 0, emits)
				out = append(out, rdd.KV(b.Key, Msg{RoleDone, updated}))
				for _, j := range rest {
					out = append(out, rdd.KV(matrix.Coord{I: k, J: j}, Msg{RolePivot, updated}))
				}
				for _, i := range rest {
					out = append(out, rdd.KV(matrix.Coord{I: i, J: k}, Msg{RolePivot, updated}))
				}
				if pivotToD {
					for _, i := range rest {
						for _, j := range rest {
							out = append(out, rdd.KV(matrix.Coord{I: i, J: j}, Msg{RolePivot, updated}))
						}
					}
				}
				return out
			}),
			part)

		// Stage 2: B and C update the panels using the pivot copies and
		// replicate their outputs to the D blocks of their column/row.
		// Pivot copies addressed to D blocks pass through.
		ctx.SetPhase("row-col")
		bcSelf := rdd.MapValues(
			dp.Filter(func(b Block) bool { return f.B(b.Key) || f.C(b.Key) }),
			func(_ *rdd.TaskContext, _ matrix.Coord, t *matrix.Tile) Msg { return Msg{RoleSelf, t} })
		abcBlocks := rdd.PartitionBy(
			rdd.FlatMap(combineMsgs(bcSelf.Union(aBlocks), part),
				func(tc *rdd.TaskContext, p rdd.Pair[matrix.Coord, Operands]) []rdd.Pair[matrix.Coord, Msg] {
					key, ops := p.Key, p.Value
					switch {
					case key.I == k && key.J == k:
						return []rdd.Pair[matrix.Coord, Msg]{rdd.KV(key, Msg{RoleDone, ops.Done})}
					case key.I == k:
						updated := kr.apply(tc, gen, semiring.KindB, ops.Self, ops.Pivot, nil, ops.Pivot)
						out := make([]rdd.Pair[matrix.Coord, Msg], 0, 1+len(rest))
						out = append(out, rdd.KV(key, Msg{RoleDone, updated}))
						for _, i := range rest {
							out = append(out, rdd.KV(matrix.Coord{I: i, J: key.J}, Msg{RoleRow, updated}))
						}
						return out
					case key.J == k:
						updated := kr.apply(tc, gen, semiring.KindC, ops.Self, nil, ops.Pivot, ops.Pivot)
						out := make([]rdd.Pair[matrix.Coord, Msg], 0, 1+len(rest))
						out = append(out, rdd.KV(key, Msg{RoleDone, updated}))
						for _, j := range rest {
							out = append(out, rdd.KV(matrix.Coord{I: key.I, J: j}, Msg{RoleCol, updated}))
						}
						return out
					default:
						// D-addressed pivot copy: forward to stage 3.
						return []rdd.Pair[matrix.Coord, Msg]{rdd.KV(key, Msg{RolePivot, ops.Pivot})}
					}
				}),
			part)

		// Stage 3: D updates the interior from its assembled operand set;
		// the already-updated A/B/C tiles pass through. mapPartitions, as
		// in Listing 1.
		ctx.SetPhase("update")
		dSelf := rdd.MapValues(
			dp.Filter(func(b Block) bool { return f.D(b.Key) }),
			func(_ *rdd.TaskContext, _ matrix.Coord, t *matrix.Tile) Msg { return Msg{RoleSelf, t} })
		abcdBlocks := rdd.PartitionBy(
			rdd.MapPartitions(combineMsgs(dSelf.Union(abcBlocks), part),
				func(tc *rdd.TaskContext, recs []rdd.Pair[matrix.Coord, Operands]) []Block {
					out := make([]Block, 0, len(recs))
					for _, p := range recs {
						ops := p.Value
						if ops.Self != nil {
							updated := kr.apply(tc, gen, semiring.KindD, ops.Self, ops.Col, ops.Row, ops.Pivot)
							out = append(out, rdd.KV(p.Key, updated))
						} else {
							out = append(out, rdd.KV(p.Key, ops.Done))
						}
					}
					return out
				}, false),
			part)

		// Prepare the next generation: untouched blocks plus this
		// iteration's outputs (the union is partitioner-aware, so the
		// closing partitionBy is the no-op Spark would also skip).
		prev := dp.Filter(func(b Block) bool { return !f.Touched(b.Key) })
		dp = rdd.PartitionBy(prev.Union(abcdBlocks), part)

		// Truncate lineage every CheckpointEvery iterations (and after the
		// last): without this every later action would replay all earlier
		// generations' shuffle files (the Spark FW-APSP implementations
		// checkpoint per generation for the same reason). A longer cadence
		// trades checkpoint stages against deeper recompute under failure.
		// With DurableDir set the same materialization is also persisted
		// for checkpoint–restart.
		stop := run.cfg.StopRequested != nil && run.cfg.StopRequested()
		stopping := stop || (run.cfg.StopAfter > 0 && k+1 >= run.cfg.StopAfter)
		if (k+1)%run.cfg.CheckpointEvery == 0 || k == run.r-1 || stop {
			// A requested stop forces the checkpoint even off-cadence, so
			// the graceful-shutdown path never loses a finished iteration.
			ctx.SetPhase("checkpoint")
			if err := run.checkpoint(dp, k, true, stopping); err != nil {
				return dp, err
			}
		}
		ctx.AdvanceDriver(ctx.Model().DriverIterOverhead(), simtime.Overhead)
		ctx.EmitDriverSpan(fmt.Sprintf("IM iter %d", k), "iteration", iterStart, nil)
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

// combineMsgs assembles tagged tiles into per-key operand sets — the
// combineByKey(..) calls of Listing 1. The inputs are co-partitioned, so
// this aggregates in place (Spark skips the shuffle too, §II footnote 1).
func combineMsgs(in *rdd.RDD[rdd.Pair[matrix.Coord, Msg]], part rdd.Partitioner) *rdd.RDD[rdd.Pair[matrix.Coord, Operands]] {
	return rdd.CombineByKeyInPlace(in,
		func(m Msg) (o Operands) {
			o.absorb(m)
			return o
		},
		(*Operands).absorb,
		func(o *Operands, other Operands) {
			for _, m := range [...]Msg{{RoleSelf, other.Self}, {RoleDone, other.Done},
				{RolePivot, other.Pivot}, {RoleRow, other.Row}, {RoleCol, other.Col}} {
				if m.Tile != nil {
					o.absorb(m)
				}
			}
		},
		part)
}
