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
	n := x.N
	if u.N != n || v.N != n || w.N != n {
		panic("kernels: Loop operand dimensions differ")
	}
	// Specialized inner loops for the two benchmark rules: the generic
	// path pays an interface call per element update, which dominates
	// real-mode runs. The fast paths are semantically identical
	// (TestLoopFastPathsMatchGeneric pins this).
	switch r := rule.(type) {
	case semiring.SemiringRule:
		if r.S.Name() == "min-plus" {
			loopMinPlus(x, u, v)
			return
		}
	case semiring.GaussianRule:
		loopGaussian(r, kind, x, u, v, w)
		return
	}
	// Rules that never read the pivot operand must not load it either:
	// when the engine carries no pivot tile for them (FW's kind D has
	// lighter dependencies, Fig. 7) normalize wires w back to x, and the
	// recursive kernels run sibling quadrant updates concurrently — a
	// load of the aliased w[k,k] would race with the (k,k) quadrant's
	// writer. Apply ignores the argument, so skipping the load is
	// bit-identical.
	usesW := rule.UsesPivot()
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
// min-reduction over fixed operands and runs cache-blocked; min is exact,
// so the result is bit-identical to the ordered loop.
//
// The aliased shapes keep each element's operands in the ordered kij
// loop's ascending k, a pivot's rows handed to the vectorised row
// primitive in one call (inside a row every j is independent; see
// minPlusPanel). Kind A (x = u = v) runs that loop over the whole tile.
// Kind C (x = u) reads no other row of x, so it runs it over row bands
// that stay in L1, all pivots per band. Kind B (x = v) runs k-blocks
// over captured pivot rows (loopMinPlusPivotRows).
func loopMinPlus(x, u, v matrix.View) {
	xu, xv := sameView(x, u), sameView(x, v)
	if !xu && !xv {
		loopMinPlusBlocked(x, u, v)
		return
	}
	n := x.N
	if xv && !xu && n > kBlock {
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

// l1Bytes is the L1 data cache a kind-C row band is sized to.
const l1Bytes = 32 << 10

// pivotRows recycles kind B's pivot-row captures: 2·kBlock·n values.
var pivotRows sync.Pool

// loopMinPlusPivotRows is kind B (x = v, u the fixed pivot tile) one
// k-block [k0,k1) at a time. Phase 1 runs the ordered loop over the
// block's own rows, and captures pivot row k before its panel (pre: what
// the ordered loop hands rows above k at step k) and after it (post: what
// it hands rows below k). Phase 2 runs the bricks over every other row,
// rows < k0 reading pre and rows ≥ k1 reading post. Each element gets
// the ordered loop's operands in its ascending k, so the bits are the
// same, also when a negative u[k,k] makes pre and post differ.
func loopMinPlusPivotRows(x, u matrix.View) {
	n := x.N
	p, _ := pivotRows.Get().(*[]float64)
	if p == nil || cap(*p) < 2*kBlock*n {
		buf := make([]float64, 2*kBlock*n)
		p = &buf
	}
	pre, post := (*p)[:kBlock*n], (*p)[kBlock*n:2*kBlock*n]
	for k0 := 0; k0 < n; k0 += kBlock {
		k1 := min(k0+kBlock, n)
		for k := k0; k < k1; k++ {
			row := x.Data[k*x.Stride : k*x.Stride+n]
			copy(pre[(k-k0)*n:], row)
			minPlusPanel(x.Data[k0*x.Stride:], u.Data[k0*u.Stride+k:], row, x.Stride, u.Stride, k1-k0, n)
			copy(post[(k-k0)*n:], row)
		}
		minPlusKBlocks(x, u, pre, n, k0, k1, 0, k0)
		minPlusKBlocks(x, u, post, n, k0, k1, k1, n)
	}
	pivotRows.Put(p)
}

// loopGaussian is the elimination inner loop with the row multiplier
// u[i,k]/w[k,k] hoisted out of the j loop (gaussPanel).
func loopGaussian(rule semiring.GaussianRule, kind semiring.Kind, x, u, v, w matrix.View) {
	// Kind D has full-range loop bounds (i > k, j > k constrain only
	// pivot-row/column kernels) and never aliases x with an operand, so
	// it takes the k-blocked path; see blocked.go for the bit-identity
	// argument.
	if kind == semiring.KindD && !sameView(x, u) && !sameView(x, v) && !sameView(x, w) {
		loopGaussianBlocked(x, u, v, w)
		return
	}
	// Ordered kij over the kind's triangle: rows [ILow,n) × columns
	// [JLow,n) of pivot k, one panel call per pivot.
	n := x.N
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
