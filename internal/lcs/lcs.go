// Package lcs extends the framework beyond the GEP class — the paper's
// first future-work item (§VI: "extend the framework to include other
// data-intensive DP algorithms (beyond GEP)"). It implements the longest
// common subsequence DP, the archetype of the sequence-alignment family
// the paper's introduction cites (Smith-Waterman on Spark [30]), as a
// blocked wavefront computation on the same engine:
//
//   - the DP table L[i,j] = LCS length of prefixes a[:i], b[:j] is tiled
//     into an rA×rB grid;
//   - tile (i,j) depends on its left, upper and upper-left neighbours,
//     but only through its incoming boundary row/column — so each
//     anti-diagonal wave is one parallel stage, and only O(b) boundary
//     vectors move between stages (a much lighter communication pattern
//     than GEP's panels, which is the point of the comparison);
//   - boundaries travel through the same pair-RDD machinery
//     (flatMap + partitionBy) as the GEP drivers' tiles.
package lcs

import (
	"fmt"
	"time"

	"dpspark/internal/matrix"
	"dpspark/internal/rdd"
	"dpspark/internal/simtime"
)

// Config tunes the distributed LCS.
type Config struct {
	// BlockSize is the tile edge (cells per tile side).
	BlockSize int
	// Partitions is the RDD partition count (0 → 2× total cores).
	Partitions int
}

// Result reports the run.
type Result struct {
	// Length is the LCS length.
	Length int
	// Time is the modelled cluster time.
	Time simtime.Duration
	// Wall is the real elapsed time.
	Wall time.Duration
	// Waves is the number of anti-diagonal stages.
	Waves int
}

// boundary carries a tile's outgoing edge values to its consumers.
type boundary struct {
	// Row is the tile's last row (consumed by the tile below), Col its
	// last column (consumed by the tile to the right); Corner is the
	// bottom-right cell (consumed by the diagonal neighbour).
	Row, Col []int32
	Corner   int32
}

// SizeBytes implements the engine sizer hook.
func (b boundary) SizeBytes() int64 {
	return int64(len(b.Row)+len(b.Col))*4 + 4
}

// msg is a tagged boundary addressed to a consumer tile: from the upper
// neighbour (row boundary), the left neighbour (column boundary) or the
// diagonal neighbour (corner only — the L[i-1,j-1] a match reads).
type msg struct {
	FromRow  bool
	FromCol  bool
	FromDiag bool
	B        boundary
}

// SizeBytes implements the engine sizer hook.
func (m msg) SizeBytes() int64 { return m.B.SizeBytes() + 2 }

// Solve computes the LCS length of a and b on the engine.
func Solve(ctx *rdd.Context, a, b []byte, cfg Config) (*Result, error) {
	if cfg.BlockSize < 1 {
		return nil, fmt.Errorf("lcs: BlockSize must be ≥1")
	}
	if len(a) == 0 || len(b) == 0 {
		return &Result{}, nil
	}
	if cfg.Partitions < 1 {
		cfg.Partitions = ctx.Cluster().DefaultPartitions()
	}
	start := time.Now()
	clock0 := ctx.Clock()
	bs := cfg.BlockSize
	rA := (len(a) + bs - 1) / bs
	rB := (len(b) + bs - 1) / bs
	part := rdd.NewHashPartitioner(cfg.Partitions)

	// State: per-tile incoming boundaries, keyed by tile coordinate.
	// Wave w computes tiles with i+j == w.
	pending := rdd.ParallelizePairs(ctx, nil2[msg](), part)
	var lastCorner int32
	waves := rA + rB - 1
	for w := 0; w < waves; w++ {
		w := w
		// Assemble each wave tile's inputs from the pending boundaries.
		grouped := rdd.GroupByKey(pending, part)

		// Seed the origin tile (every other tile has at least one
		// incoming boundary message).
		wave := grouped
		if w == 0 {
			seed := rdd.ParallelizePairs(ctx,
				[]rdd.Pair[matrix.Coord, []msg]{rdd.KV(matrix.Coord{I: 0, J: 0}, []msg(nil))}, part)
			wave = grouped.Union(seed)
		}

		// Compute the wave: each tile runs the local DP given its
		// boundaries and emits boundaries for its right/lower/diagonal
		// neighbours.
		out := rdd.FlatMap(wave,
			func(tc *rdd.TaskContext, p rdd.Pair[matrix.Coord, []msg]) []rdd.Pair[matrix.Coord, msg] {
				i, j := p.Key.I, p.Key.J
				if i+j != w || i >= rA || j >= rB {
					// Boundary for a later wave: forward unchanged.
					var fwd []rdd.Pair[matrix.Coord, msg]
					for _, m := range p.Value {
						fwd = append(fwd, rdd.KV(p.Key, m))
					}
					return fwd
				}
				var top, left boundary
				var haveTop, haveLeft bool
				var diagCorner int32
				for _, m := range p.Value {
					switch {
					case m.FromRow:
						top = m.B
						haveTop = true
					case m.FromCol:
						left = m.B
						haveLeft = true
					case m.FromDiag:
						diagCorner = m.B.Corner
					}
				}
				bnd := computeTile(a, b, bs, i, j, top, haveTop, left, haveLeft, diagCorner)
				tc.ChargeCompute(tileCost(tc, bs), 1)
				var outs []rdd.Pair[matrix.Coord, msg]
				if j+1 < rB {
					outs = append(outs, rdd.KV(matrix.Coord{I: i, J: j + 1}, msg{FromCol: true, B: bnd}))
				}
				if i+1 < rA {
					outs = append(outs, rdd.KV(matrix.Coord{I: i + 1, J: j}, msg{FromRow: true, B: bnd}))
				}
				if i+1 < rA && j+1 < rB {
					outs = append(outs, rdd.KV(matrix.Coord{I: i + 1, J: j + 1},
						msg{FromDiag: true, B: boundary{Corner: bnd.Corner}}))
				}
				if i == rA-1 && j == rB-1 {
					// Final tile: keep the corner readable by the driver.
					outs = append(outs, rdd.KV(matrix.Coord{I: rA, J: rB}, msg{B: boundary{Corner: bnd.Corner}}))
				}
				return outs
			})
		pending = rdd.PartitionBy(out, part)
		if err := pending.Checkpoint(); err != nil {
			return nil, err
		}
	}

	final, err := pending.Collect()
	if err != nil {
		return nil, err
	}
	for _, p := range final {
		if p.Key.I == rA && p.Key.J == rB {
			lastCorner = p.Value.B.Corner
		}
	}
	return &Result{
		Length: int(lastCorner),
		Time:   ctx.Clock() - clock0,
		Wall:   time.Since(start),
		Waves:  waves,
	}, nil
}

// nil2 works around Go's inference for an empty typed pair slice.
func nil2[V any]() []rdd.Pair[matrix.Coord, V] { return nil }

// tileCost prices one b×b tile of LCS cells (two comparisons and a max
// per cell ≈ one GEP update).
func tileCost(tc *rdd.TaskContext, bs int) simtime.Duration {
	m := tc.Ctx().Model()
	perUpdate := m.P.IterUpdateNs / m.C.Node.ClockGHz * 1e-9
	return simtime.Duration(float64(bs) * float64(bs) * perUpdate)
}

// computeTile runs the classic LCS recurrence on tile (ti, tj) given the
// incoming boundaries, returning the outgoing boundary. Missing
// boundaries mean table edges (zeros). diagCorner is L[iLo-1][jLo-1]
// from the diagonal neighbour (0 on the edges).
func computeTile(a, b []byte, bs, ti, tj int, top boundary, haveTop bool, left boundary, haveLeft bool, diagCorner int32) boundary {
	iLo, jLo := ti*bs, tj*bs
	iHi, jHi := min(iLo+bs, len(a)), min(jLo+bs, len(b))
	rows := iHi - iLo
	cols := jHi - jLo

	// prev and cur are DP rows including a left border cell:
	// prev = L[iLo-1][jLo-1 .. jHi-1], with the corner from the diagonal
	// neighbour and the rest from the upper neighbour's row boundary.
	prev := make([]int32, cols+1)
	cur := make([]int32, cols+1)
	prev[0] = diagCorner
	if haveTop {
		copy(prev[1:], top.Row[:cols])
	}

	out := boundary{Row: make([]int32, cols), Col: make([]int32, rows)}
	for r := 0; r < rows; r++ {
		if haveLeft {
			cur[0] = left.Col[r]
		} else {
			cur[0] = 0
		}
		for c := 0; c < cols; c++ {
			if a[iLo+r] == b[jLo+c] {
				cur[c+1] = prev[c] + 1
			} else if prev[c+1] >= cur[c] {
				cur[c+1] = prev[c+1]
			} else {
				cur[c+1] = cur[c]
			}
		}
		out.Col[r] = cur[cols]
		prev, cur = cur, prev
	}
	copy(out.Row, prev[1:cols+1])
	out.Corner = prev[cols]
	return out
}

func min(x, y int) int {
	if x < y {
		return x
	}
	return y
}
