package kernels

import (
	"dpspark/internal/matrix"
	"dpspark/internal/semiring"
)

// parMinDim is the static floor below which LoopPool never splits: a full
// band over a tile smaller than this costs less than waking a worker.
// The measured serial↔parallel crossover for a given machine lives in
// internal/autotune (KernelProfile.BestThreads); callers consult it when
// choosing KernelThreads, and this constant only guards against
// pathological tiny-tile splits.
const parMinDim = 64

// LoopPool runs the iterative GEP kernel like Loop, splitting the update
// into row bands executed on the pool when that is provably bit-identical
// to the serial order:
//
//   - x must alias none of the operands the rule's update reads (u and v
//     for semiring rules, whose UsesPivot is false; u, v and w for
//     pivot-reading rules). Then x's rows are mutually independent —
//     every update to x[i,j] reads only those operands and x[i,j]
//     itself — and each
//     element still receives its updates in ascending k inside its band,
//     so the result equals the serial loop bit for bit.
//   - Aliased shapes (kind A always; B, C and semiring-rule kernels
//     whose operands are wired back to x) are true in-place DPs whose
//     later pivots observe earlier updates; they run Loop's serial
//     kernel on the caller regardless of the pool — each element's
//     updates in the ordered loop's sequence (min-plus B and C in
//     cache-resident forms, see loopMinPlus), never split across workers.
//
// A nil or width-1 pool, or a tile below the parallel crossover floor,
// runs serially (see bands).
func LoopPool(pool *Pool, rule semiring.Rule, kind semiring.Kind, x, u, v, w matrix.View) {
	n := x.N
	if u.N != n || v.N != n || w.N != n {
		panic("kernels: Loop operand dimensions differ")
	}
	resolveLoop(rule)(pool, kind, x, u, v, w)
}

// bands reports whether an unaliased update of dimension n splits into
// row bands on pool.
func bands(pool *Pool, n int) bool {
	return pool.Threads() > 1 && n >= parMinDim
}

// bandParallel partitions the n rows into one band per pool thread
// (boundaries rounded to multiples of four so the SIMD quad groups do
// not fragment) and runs the bands through the pool's par_for.
func bandParallel(pool *Pool, n int, band func(i0, i1 int)) {
	parts := pool.Threads()
	if parts > n/4 {
		parts = n / 4
	}
	if parts <= 1 {
		band(0, n)
		return
	}
	fns := make([]func(bool), parts)
	lo := 0
	for p := 0; p < parts; p++ {
		hi := n
		if p < parts-1 {
			hi = (n * (p + 1) / parts) &^ 3
		}
		i0, i1 := lo, hi
		fns[p] = func(bool) { band(i0, i1) }
		lo = hi
	}
	pool.parallel(false, fns)
}

// genericBand is the interface-dispatch kernel restructured with the row
// loop outermost, covering rows [i0,i1). Per element the visited (k, j)
// set and the ascending-k order match Loop's generic path exactly; only
// the interleaving across rows differs, which cannot be observed when x
// aliases no operand.
func genericBand(rule semiring.Rule, kind semiring.Kind, x, u, v, w matrix.View, i0, i1 int) {
	n := x.N
	usesW := rule.UsesPivot()
	for i := i0; i < i1; i++ {
		xrow := x.Data[i*x.Stride:]
		for k := 0; k < n; k++ {
			if i < rule.ILow(kind, k) {
				continue
			}
			var wkk float64
			if usesW {
				wkk = w.At(k, k)
			}
			uik := u.At(i, k)
			vrow := v.Data[k*v.Stride:]
			for j := rule.JLow(kind, k); j < n; j++ {
				xrow[j] = rule.Apply(xrow[j], uik, vrow[j], wkk)
			}
		}
	}
}
