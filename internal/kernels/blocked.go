package kernels

import "dpspark/internal/matrix"

// Cache-blocked fast paths for the unaliased kernel shapes, and the row
// primitives they share with the ordered loops of loop.go.
//
// The straight kij loops stream the whole x tile through the cache once
// per k — at b = 1024 that is 8 MB of x traffic per pivot row, far beyond
// L2. Blocking k in chunks of kBlock keeps a small set of x rows resident
// across kBlock consecutive pivots; rows are processed in groups of four
// by the AVX2 bricks in simd_amd64.s, which hold a 4×8 x block in
// registers across the whole k block and read the rows' scalar operands
// in place at their row stride: u itself for min-plus, and for GE the
// multiplier panel f[i,k] = u[i,k]/w[k,k] that each kind-D call computes
// once (gaussMultipliers) — recursive calls once at their outermost
// kind-D level, for all their leaves. Column tails, row remainders and
// machines without AVX2 go through minPlusPanel / gaussPanel — one pivot,
// a run of rows — which is also the whole body of the ordered loops.
// Column tiling (jBlock) bounds the working set further for very large
// tiles.
//
// The blocked paths read u and v in place only when x aliases neither.
// For kinds A, B and C, Fig. 4 wires x into the operand list (u = v = w =
// x for A, v = x for B, u = x for C), making the kernel a true in-place
// DP whose later pivots must observe earlier updates — each element keeps
// the ordered kij loop's operands in ascending k (see loop.go; min-plus
// kind B runs these bricks too, over captured pivot rows). The D update
// reads only u, v and w, so the k loop is a pure reduction over an
// unchanging operand set and any evaluation order is valid:
//
//   - min-plus: x[i,j] = min over k of u[i,k]+v[k,j] (and the original
//     x[i,j]). min is exact in floating point, so every order produces
//     bit-identical results.
//   - Gaussian elimination: x[i,j] -= (u[i,k]/w[k,k])·v[k,j] must apply
//     ascending in k per element to keep the rounding sequence of the
//     unblocked loop. The blocked loop keeps k ascending inside each
//     block and visits blocks in ascending order, so each element sees
//     the exact update sequence of loopGaussian — bit-identical again.
//     The multiplier is the same IEEE division wherever it is computed,
//     and nothing writes u or w during a kind-D call, so computing the
//     panel once up front changes no bit.
//
// Because rows of x are mutually independent under the unaliased shapes,
// the same band functions also carry the intra-tile parallel split: each
// pool worker runs a band [i0,i1) of rows through the identical code, so
// the parallel result is bit-identical to the serial one (LoopPool).
//
// The recursive kernels' quadrant views make the same gating sound: child
// views of one slab are either identical or fully disjoint, so comparing
// the address of the first element decides aliasing exactly.
const (
	// kBlock is the pivot-block depth: the v block of kBlock rows stays
	// cache-resident while a brick streams over it.
	kBlock = 32
	// jBlock is the column tile width for tiles wider than it.
	jBlock = 512
)

// sameView reports whether two views address the same region. Views
// produced by the tile/quadrant decomposition are identical or disjoint,
// never partially overlapping, so first-element identity is exact.
func sameView(a, b matrix.View) bool {
	return len(a.Data) > 0 && len(b.Data) > 0 && &a.Data[0] == &b.Data[0]
}

// gaussMultipliers writes rows [i0,i1) of a kind-D call's multiplier
// panel f[i,k] = u[i,k]/w[k,k] — the IEEE division the ordered loop
// performs, once per call instead of once per brick that reads it. f
// must not alias u or w.
func gaussMultipliers(f, u, w matrix.View, i0, i1 int) {
	n := u.N
	for i := i0; i < i1; i++ {
		frow := f.Data[i*f.Stride : i*f.Stride+n]
		for k, uik := range u.Data[i*u.Stride : i*u.Stride+n] {
			frow[k] = uik / w.Data[k*w.Stride+k]
		}
	}
}

// minPlusPanel is the min-plus row primitive: for one pivot it applies
// x[r,j] = min(x[r,j], u[r*ustride] + v[j]) to rows r in [0,rows) in
// ascending order, j in [0,jlen). x, u and v point at the first element
// touched. It is correct under the aliasing the ordered loops have: a
// lane reads and writes only its own column, so x's row r may BE v (the
// pivot row) and u[r*ustride] may lie in x's row r — the scalar is read
// before the row's first store, and v is re-read for every row.
func minPlusPanel(x, u, v []float64, xstride, ustride, rows, jlen int) {
	if rows <= 0 || jlen <= 0 {
		return
	}
	// The assembly does no bounds checks; these are its last accesses.
	_, _, _ = x[(rows-1)*xstride+jlen-1], u[(rows-1)*ustride], v[jlen-1]
	if useAVX2 {
		minplusPanelAVX2(x, u, v, xstride, ustride, rows, jlen)
		return
	}
	for r := 0; r < rows; r++ {
		minPlusRow8(x[r*xstride:], v, u[r*ustride], jlen)
	}
}

// gaussPanel is the elimination row primitive: x[r,j] -= f·v[j] with the
// row multiplier f = u[r*ustride]/w hoisted out of the j loop (one
// division per row — the classic GE formulation of Fig. 2), rows
// ascending. Same aliasing contract as minPlusPanel.
func gaussPanel(x, u, v []float64, w float64, xstride, ustride, rows, jlen int) {
	if rows <= 0 || jlen <= 0 {
		return
	}
	_, _, _ = x[(rows-1)*xstride+jlen-1], u[(rows-1)*ustride], v[jlen-1]
	if useAVX2 {
		gaussPanelAVX2(x, u, v, w, xstride, ustride, rows, jlen)
		return
	}
	for r := 0; r < rows; r++ {
		gaussRow8(x[r*xstride:], v, u[r*ustride]/w, jlen)
	}
}

// minPlusRow8 applies x[j] = min(x[j], s + v[j]) over [0,n) with an
// 8×-unrolled straight-line body. Each j is independent of the others, so
// xrow may be the same row as vrow; the two must not overlap otherwise.
func minPlusRow8(xrow, vrow []float64, s float64, n int) {
	j := 0
	for ; j+8 <= n; j += 8 {
		xs := xrow[j : j+8 : j+8]
		vs := vrow[j : j+8 : j+8]
		if t := s + vs[0]; t < xs[0] {
			xs[0] = t
		}
		if t := s + vs[1]; t < xs[1] {
			xs[1] = t
		}
		if t := s + vs[2]; t < xs[2] {
			xs[2] = t
		}
		if t := s + vs[3]; t < xs[3] {
			xs[3] = t
		}
		if t := s + vs[4]; t < xs[4] {
			xs[4] = t
		}
		if t := s + vs[5]; t < xs[5] {
			xs[5] = t
		}
		if t := s + vs[6]; t < xs[6] {
			xs[6] = t
		}
		if t := s + vs[7]; t < xs[7] {
			xs[7] = t
		}
	}
	for ; j < n; j++ {
		if t := s + vrow[j]; t < xrow[j] {
			xrow[j] = t
		}
	}
}

// gaussRow8 applies x[j] -= f * v[j] over [0,n), 8×-unrolled. The body is
// the exact expression of the ordered loop (unfused multiply-subtract),
// so results stay bit-identical.
func gaussRow8(xrow, vrow []float64, f float64, n int) {
	j := 0
	for ; j+8 <= n; j += 8 {
		xs := xrow[j : j+8 : j+8]
		vs := vrow[j : j+8 : j+8]
		xs[0] -= f * vs[0]
		xs[1] -= f * vs[1]
		xs[2] -= f * vs[2]
		xs[3] -= f * vs[3]
		xs[4] -= f * vs[4]
		xs[5] -= f * vs[5]
		xs[6] -= f * vs[6]
		xs[7] -= f * vs[7]
	}
	for ; j < n; j++ {
		xrow[j] -= f * vrow[j]
	}
}

// minPlusBand runs the k-blocked min-plus update on rows [i0,i1) of x.
// Rows are independent (x aliases neither u nor v), so disjoint bands
// compose to the full tile in any order or in parallel.
func minPlusBand(x, u, v matrix.View, i0, i1 int) {
	minPlusKBlocks(x, u, v.Data, v.Stride, 0, x.N, i0, i1)
}

// minPlusKBlocks applies pivots [k0,k1) to rows [i0,i1) of x in blocks
// of kBlock, ascending k per element: x[i,j] = min(x[i,j], u[i,k] +
// vb[(k-k0)*vstride+j]). vb holds the pivot rows — v's own rows for kind
// D, captured rows for kind B (loopMinPlusPivotRows) — and must not alias
// the rows written. The bricks read their scalars u[i,k] in place, at
// u's row stride.
func minPlusKBlocks(x, u matrix.View, vb []float64, vstride, k0, k1, i0, i1 int) {
	n := x.N
	for kb := k0; kb < k1; kb += kBlock {
		kHi := min(kb+kBlock, k1)
		v := vb[(kb-k0)*vstride:]
		for j0 := 0; j0 < n; j0 += jBlock {
			jHi := min(j0+jBlock, n)
			i := i0
			if useAVX2 && jHi-j0 >= 8 {
				jv := j0 + (jHi-j0)&^7
				for ; i+4 <= i1; i += 4 {
					minplusBrickAVX2(x.Data[i*x.Stride+j0:], u.Data[i*u.Stride+kb:],
						v[j0:], x.Stride, u.Stride, vstride, kHi-kb, jv-j0)
					for k := kb; jv < jHi && k < kHi; k++ {
						minPlusPanel(x.Data[i*x.Stride+jv:], u.Data[i*u.Stride+k:],
							v[(k-kb)*vstride+jv:], x.Stride, u.Stride, 4, jHi-jv)
					}
				}
			}
			// Row-outer so a remainder row stays in L1 across the k block.
			for ; i < i1; i++ {
				for k := kb; k < kHi; k++ {
					minPlusPanel(x.Data[i*x.Stride+j0:], u.Data[i*u.Stride+k:],
						v[(k-kb)*vstride+j0:], x.Stride, u.Stride, 1, jHi-j0)
				}
			}
		}
	}
}

// gaussianBand runs the k-blocked elimination update x[i,j] -= f[i,k]·v[k,j]
// on rows [i0,i1) of x for the unaliased full-range shape, reading the
// multiplier panel f of gaussMultipliers in place. Each element receives
// its updates in ascending k with the multiplier loopGaussian computes
// for it — bit-identical serially and across disjoint bands. gaussPanel
// divides its scalar by w, so the column tails and remainder rows pass
// w = 1: IEEE division by one returns f's bits, NaN payloads included.
func gaussianBand(x, f, v matrix.View, i0, i1 int) {
	n := x.N
	for k0 := 0; k0 < n; k0 += kBlock {
		kHi := min(k0+kBlock, n)
		i := i0
		if useAVX2 && n >= 8 {
			jv := n &^ 7
			for ; i+4 <= i1; i += 4 {
				gaussBrickAVX2(x.Data[i*x.Stride:], f.Data[i*f.Stride+k0:],
					v.Data[k0*v.Stride:], x.Stride, f.Stride, v.Stride, kHi-k0, jv)
				for k := k0; jv < n && k < kHi; k++ {
					gaussPanel(x.Data[i*x.Stride+jv:], f.Data[i*f.Stride+k:],
						v.Data[k*v.Stride+jv:], 1, x.Stride, f.Stride, 4, n-jv)
				}
			}
		}
		for ; i < i1; i++ {
			for k := k0; k < kHi; k++ {
				gaussPanel(x.Data[i*x.Stride:], f.Data[i*f.Stride+k:],
					v.Data[k*v.Stride:], 1, x.Stride, f.Stride, 1, n)
			}
		}
	}
}
