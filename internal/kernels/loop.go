package kernels

import (
	"sync"

	"dpspark/internal/matrix"
	"dpspark/internal/semiring"
)

// Loop runs the iterative (loop-based) GEP kernel of the given kind on the
// b×b views, updating x in place:
//
//	for k; for i ≥ rule.ILow(kind,k); for j ≥ rule.JLow(kind,k):
//	    x[i,j] = f(x[i,j], u[i,k], v[k,j], w[k,k])
//
// Aliasing follows Fig. 4's kernel signatures: for kind A the caller
// passes u = v = w = x; for kind B the v operand is x itself (the row
// panel reads its own pivot row); for kind C the u operand is x itself.
// Exec.Apply wires these automatically.
//
// All views must have equal dimension. This is the base case of the
// recursive kernels and, used directly on whole tiles, the paper's
// "iterative kernel" configuration.
func Loop(rule semiring.Rule, kind semiring.Kind, x, u, v, w matrix.View) {
	LoopPool(nil, rule, kind, x, u, v, w)
}

// loopFunc is one rule's iterative kernel, LoopPool with the rule fixed.
// Iterative and Recursive resolve it once, when they are built, so a
// kernel call pays no dispatch on the rule.
type loopFunc func(pool *Pool, kind semiring.Kind, x, u, v, w matrix.View)

// resolveLoop picks the rule's loop. Specialized inner loops serve the
// two benchmark rules: the generic path pays an interface call per
// element update, which dominates real-mode runs. The fast paths are
// semantically identical (TestLoopFastPathsMatchGeneric pins this).
func resolveLoop(rule semiring.Rule) loopFunc {
	if isMinPlus(rule) {
		return loopMinPlus
	}
	if _, ok := rule.(semiring.GaussianRule); ok {
		return loopGaussian
	}
	return func(pool *Pool, kind semiring.Kind, x, u, v, w matrix.View) {
		loopGeneric(rule, pool, kind, x, u, v, w)
	}
}

// isMinPlus reports whether rule is the min-plus semiring's, which runs
// loopMinPlus.
func isMinPlus(rule semiring.Rule) bool {
	r, ok := rule.(semiring.SemiringRule)
	return ok && r.S.Name() == "min-plus"
}

// loopGeneric is the per-element update through the rule's interface.
// Rules that never read the pivot operand must not load it either: when
// the engine carries no pivot tile for them (FW's kind D has lighter
// dependencies, Fig. 7) normalize wires w back to x, and the recursive
// kernels run sibling quadrant updates concurrently — a load of the
// aliased w[k,k] would race with the (k,k) quadrant's writer. Apply
// ignores the argument, so skipping the load is bit-identical. For the
// same reason an aliased w forces the ordered loop only on rules that
// read it.
func loopGeneric(rule semiring.Rule, pool *Pool, kind semiring.Kind, x, u, v, w matrix.View) {
	n := x.N
	usesW := rule.UsesPivot()
	if bands(pool, n) && !sameView(x, u) && !sameView(x, v) && (!usesW || !sameView(x, w)) {
		bandParallel(pool, n, func(i0, i1 int) {
			genericBand(rule, kind, x, u, v, w, i0, i1)
		})
		return
	}
	for k := 0; k < n; k++ {
		var wkk float64
		if usesW {
			wkk = w.At(k, k)
		}
		for i := rule.ILow(kind, k); i < n; i++ {
			uik := u.At(i, k)
			xrow := x.Data[i*x.Stride:]
			vrow := v.Data[k*v.Stride:]
			for j := rule.JLow(kind, k); j < n; j++ {
				xrow[j] = rule.Apply(xrow[j], uik, vrow[j], wkk)
			}
		}
	}
}

// loopMinPlus is the Floyd-Warshall inner loop: x[i,j] = min(x, u[i,k] +
// v[k,j]) over the full cube (semiring rules have zero loop lower bounds
// and ignore the pivot operand). When x aliases neither u nor v (kind D,
// and the recursive kernels' interior sub-updates) the k loop is a pure
// min-reduction over fixed operands and runs cache-blocked, in row bands
// on the pool; min is exact, so the result is bit-identical to the
// ordered loop.
//
// The aliased shapes keep each element's operands in the ordered kij
// loop's ascending k, a pivot's rows handed to the vectorised row
// primitive in one call (inside a row every j is independent; see
// minPlusPanel). Kind B (x = v) runs k-blocks over captured pivot rows
// (loopMinPlusPivotRows), and so does kind A (x = u = v) from b = aMinDim
// on, on hosts with the bricks. Below that the ordered loop streams a
// tile that stays in L1 or close to it, and the k-blocks' extra passes
// read 1.1–1.6× slower (b = 40 to 72); without the bricks they read
// 1.06–1.18× slower at every size (EXPERIMENTS.md, "Kind A on the
// bricks"). Kind C (x = u) reads no other row of x, so it runs the
// ordered loop over row bands that stay in L1, all pivots per band;
// capturing its scalars for the bricks instead read 1.05–1.44× slower at
// b = 128 and 256.
func loopMinPlus(pool *Pool, _ semiring.Kind, x, u, v, _ matrix.View) {
	xu, xv := sameView(x, u), sameView(x, v)
	n := x.N
	if !xu && !xv {
		switch {
		case n <= kBlock:
			minPlusBricks(x.Data, u.Data, v.Data, x.Stride, u.Stride, v.Stride, n, n, n)
		case bands(pool, n):
			bandParallel(pool, n, func(i0, i1 int) {
				minPlusBand(x, u, v, i0, i1)
			})
		default:
			minPlusBand(x, u, v, 0, n)
		}
		return
	}
	if xv && (!xu && n > kBlock || xu && n >= aMinDim && simd >= simdAVX2) {
		loopMinPlusPivotRows(x, u)
		return
	}
	band := n
	if xu && !xv && n*n*8 > l1Bytes {
		band = max(4, l1Bytes/(8*n))
	}
	for i0 := 0; i0 < n; i0 += band {
		for k := 0; k < n; k++ {
			minPlusPanel(x.Data[i0*x.Stride:], u.Data[i0*u.Stride+k:], v.Data[k*v.Stride:],
				x.Stride, u.Stride, min(band, n-i0), n)
		}
	}
}

const (
	// l1Bytes is the L1 data cache a kind-C row band is sized to.
	l1Bytes = 32 << 10
	// aMinDim is the smallest tile kind A runs in k-blocks, the measured
	// crossover: 1.1–1.45× slower than the ordered loop at b = 72, 0.95×
	// at 80, 0.45–0.65× at 96.
	aMinDim = 80
	// aRows is the row group of kind A's phase 2: four bricks, whose
	// block columns stay in L1 between their capture and the bricks.
	// Groups of four rows read 1.1–1.25× slower (per-pivot panel calls
	// of four rows), and whole regions slower still.
	aRows = 16
)

// floatScratch recycles the kernels' float temporaries: the k-block
// captures of min-plus kinds A and B (kBlock pivot rows before and after
// their panel, 2·kBlock·n values, and for kind A kBlock scalars per row,
// kBlock·n more) and GE kind D's n×n multiplier panel. Like every pool
// under internal/, it is a package-level sync.Pool the collector drains.
var floatScratch = sync.Pool{New: func() any { return new([]float64) }}

// takeFloats returns a slab of at least n floats, unzeroed, boxed for
// floatScratch.Put.
func takeFloats(n int) *[]float64 {
	p := floatScratch.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	return p
}

// squareView is the n×n view over a slab of at least n² floats.
func squareView(s []float64, n int) matrix.View {
	return matrix.View{Data: s[:n*n], N: n, Stride: n}
}

// loopMinPlusPivotRows is kind B (x = v, u the fixed pivot tile) and kind
// A (x = u = v) one k-block [k0,k1) at a time. Phase 1 runs the ordered
// loop over the block's own rows, and captures pivot row k before its
// panel (pre: what the ordered loop hands rows above k at step k) and
// after it (post: what it hands rows below k). Phase 2 runs the bricks
// over every other row, rows < k0 reading pre and rows ≥ k1 reading post.
// Kind B's rows read their scalars u[i,k] in place: u is not written.
// Kind A's scalars are x[i,k] as step k finds them, so phase 2 takes its
// rows aRows at a time: first the block's columns [k0,k1) in ascending k,
// capturing x[i,k] before each step (the value the ordered loop reads),
// then the bricks over columns [0,k0) and [k1,n), reading the captured
// scalars. Each element gets the ordered loop's operands in its ascending
// k, so the bits are the same, also when a negative diagonal makes pre
// and post differ. Phase 2's rows are independent of each other.
func loopMinPlusPivotRows(x, u matrix.View) {
	n := x.N
	kindA, panels := sameView(x, u), 2
	if kindA {
		panels = 3
	}
	p := takeFloats(panels * kBlock * n)
	pre, post, scalars := (*p)[:kBlock*n], (*p)[kBlock*n:2*kBlock*n], (*p)[2*kBlock*n:panels*kBlock*n]
	for k0 := 0; k0 < n; k0 += kBlock {
		k1 := min(k0+kBlock, n)
		for k := k0; k < k1; k++ {
			row := x.Data[k*x.Stride : k*x.Stride+n]
			copy(pre[(k-k0)*n:], row)
			minPlusPanel(x.Data[k0*x.Stride:], u.Data[k0*u.Stride+k:], row, x.Stride, u.Stride, k1-k0, n)
			copy(post[(k-k0)*n:], row)
		}
		if !kindA {
			minPlusKBlocks(x, u.Data[k0:], u.Stride, pre, n, k0, k1, 0, k0, 0, n)
			minPlusKBlocks(x, u.Data[k0:], u.Stride, post, n, k0, k1, k1, n, 0, n)
			continue
		}
		for i := 0; i < n; {
			if i == k0 {
				i = k1
				continue
			}
			i1, pivots := min(i+aRows, k0), pre
			if i >= k1 {
				i1, pivots = min(i+aRows, n), post
			}
			for k := k0; k < k1; k++ {
				for r := i; r < i1; r++ {
					scalars[r*kBlock+k-k0] = x.Data[r*x.Stride+k]
				}
				minPlusPanel(x.Data[i*x.Stride+k0:], x.Data[i*x.Stride+k:], pivots[(k-k0)*n+k0:],
					x.Stride, x.Stride, i1-i, k1-k0)
			}
			minPlusKBlocks(x, scalars, kBlock, pivots, n, k0, k1, i, i1, 0, k0)
			minPlusKBlocks(x, scalars, kBlock, pivots, n, k0, k1, i, i1, k1, n)
			i = i1
		}
	}
	floatScratch.Put(p)
}

// loopGaussian is the elimination inner loop with the row multiplier
// u[i,k]/w[k,k] hoisted out of the j loop (gaussPanel).
func loopGaussian(pool *Pool, kind semiring.Kind, x, u, v, w matrix.View) {
	n := x.N
	// Kind D has full-range loop bounds (i > k, j > k constrain only
	// pivot-row/column kernels) and never aliases x with an operand, so
	// it takes the k-blocked path, in row bands on the pool; see
	// blocked.go for the bit-identity argument. Each band writes its own
	// rows of the multiplier panel, then reads only those.
	if kind == semiring.KindD && !sameView(x, u) && !sameView(x, v) && !sameView(x, w) {
		p := takeFloats(n * n)
		fv := squareView(*p, n)
		if bands(pool, n) {
			bandParallel(pool, n, func(i0, i1 int) {
				gaussMultipliers(fv, u, w, i0, i1)
				gaussianBand(x, fv, v, i0, i1)
			})
		} else {
			gaussMultipliers(fv, u, w, 0, n)
			gaussianBand(x, fv, v, 0, n)
		}
		floatScratch.Put(p)
		return
	}
	// Ordered kij over the kind's triangle: rows [ILow,n) × columns
	// [JLow,n) of pivot k, one panel call per pivot. Kinds B and C hoist
	// the row multiplier out of the j loop; banding them through the
	// per-element update would change the rounding reference, and they
	// are never the hot shape, so they stay serial.
	var rule semiring.GaussianRule
	for k := 0; k < n; k++ {
		i0, j0 := rule.ILow(kind, k), rule.JLow(kind, k)
		if i0 >= n || j0 >= n {
			continue
		}
		gaussPanel(x.Data[i0*x.Stride+j0:], u.Data[i0*u.Stride+k:], v.Data[k*v.Stride+j0:],
			w.At(k, k), x.Stride, u.Stride, n-i0, n-j0)
	}
}

// Updates returns the number of element updates a kernel of the given kind
// performs on an n×n operand under the given rule — the work measure the
// cost model charges for. For semiring rules every kind costs n³; for GE
// kind A costs ~n³/3, B and C ~n³/2 and D n³.
func Updates(rule semiring.Rule, kind semiring.Kind, n int) int64 {
	var total int64
	for k := 0; k < n; k++ {
		rows := int64(n - rule.ILow(kind, k))
		cols := int64(n - rule.JLow(kind, k))
		if rows > 0 && cols > 0 {
			total += rows * cols
		}
	}
	return total
}
