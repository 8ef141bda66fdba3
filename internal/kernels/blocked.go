package kernels

import "dpspark/internal/matrix"

// Cache-blocked fast paths for the unaliased kernel shapes, and the row
// primitives they share with the ordered loops of loop.go.
//
// The straight kij loops stream the whole x tile through the cache once
// per k — at b = 1024 that is 8 MB of x traffic per pivot row, far beyond
// L2. Blocking k in chunks of kBlock keeps a small set of x rows resident
// across kBlock consecutive pivots; rows are processed in groups of four
// whose per-(row,k) scalar operands are gathered into a brick buffer and
// handed to the AVX2 bricks in simd_amd64.s (which hold a 4×8 x block in
// registers across the whole k block). Column tails, row remainders and
// machines without AVX2 go through minPlusPanel / gaussPanel — one pivot,
// a run of rows — which is also the whole body of the ordered loops.
// Column tiling (jBlock) bounds the working set further for very large
// tiles.
//
// The blocked paths apply only when x does not alias u or v. For kinds A,
// B and C, Fig. 4 wires x into the operand list (u = v = w = x for A,
// v = x for B, u = x for C), making the kernel a true in-place DP whose
// later pivots must observe earlier updates — those keep the ordered kij
// sequence (k ascending, rows ascending, one vectorised panel per pivot;
// see loop.go). The D update reads only u, v and w, so the k loop is a
// pure reduction over an unchanging operand set and any evaluation order
// is valid:
//
//   - min-plus: x[i,j] = min over k of u[i,k]+v[k,j] (and the original
//     x[i,j]). min is exact in floating point, so every order produces
//     bit-identical results.
//   - Gaussian elimination: x[i,j] -= (u[i,k]/w[k,k])·v[k,j] must apply
//     ascending in k per element to keep the rounding sequence of the
//     unblocked loop. The blocked loop keeps k ascending inside each
//     block and visits blocks in ascending order, so each element sees
//     the exact update sequence of loopGaussian — bit-identical again.
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
	// kBlock is the pivot-block depth: 4 x rows × kBlock scalar operands
	// fit the brick buffer while the v block stays cache-resident.
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

// loopMinPlusBlocked is the whole-tile serial entry: one band spanning
// every row.
func loopMinPlusBlocked(x, u, v matrix.View) {
	minPlusBand(x, u, v, 0, x.N)
}

// loopGaussianBlocked is the whole-tile serial entry for the unaliased
// full-range shape (kind D: ILow = JLow = 0).
func loopGaussianBlocked(x, u, v, w matrix.View) {
	gaussianBand(x, u, v, w, 0, x.N)
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
	n := x.N
	var b [4 * kBlock]float64
	for k0 := 0; k0 < n; k0 += kBlock {
		kHi := k0 + kBlock
		if kHi > n {
			kHi = n
		}
		klen := kHi - k0
		for j0 := 0; j0 < n; j0 += jBlock {
			jHi := j0 + jBlock
			if jHi > n {
				jHi = n
			}
			i := i0
			if useAVX2 && jHi-j0 >= 8 {
				jv := j0 + (jHi-j0)&^7
				for ; i+4 <= i1; i += 4 {
					for r := 0; r < 4; r++ {
						urow := u.Data[(i+r)*u.Stride:]
						copy(b[r*klen:(r+1)*klen], urow[k0:kHi])
					}
					minplusBrickAVX2(x.Data[i*x.Stride+j0:], b[:4*klen],
						v.Data[k0*v.Stride+j0:], x.Stride, v.Stride, klen, jv-j0)
					for k := k0; jv < jHi && k < kHi; k++ {
						minPlusPanel(x.Data[i*x.Stride+jv:], u.Data[i*u.Stride+k:],
							v.Data[k*v.Stride+jv:], x.Stride, u.Stride, 4, jHi-jv)
					}
				}
			}
			// Row-outer so a remainder row stays in L1 across the k block.
			for ; i < i1; i++ {
				for k := k0; k < kHi; k++ {
					minPlusPanel(x.Data[i*x.Stride+j0:], u.Data[i*u.Stride+k:],
						v.Data[k*v.Stride+j0:], x.Stride, u.Stride, 1, jHi-j0)
				}
			}
		}
	}
}

// gaussianBand runs the k-blocked elimination update on rows [i0,i1) of
// x for the unaliased full-range shape. Each element receives its updates
// in ascending k with the per-update expression f·v[k,j] for
// f = u[i,k]/w[k,k], exactly as loopGaussian applies them — bit-identical
// serially and across disjoint bands.
func gaussianBand(x, u, v, w matrix.View, i0, i1 int) {
	n := x.N
	var b [4 * kBlock]float64
	for k0 := 0; k0 < n; k0 += kBlock {
		kHi := k0 + kBlock
		if kHi > n {
			kHi = n
		}
		klen := kHi - k0
		i := i0
		if useAVX2 && n >= 8 {
			jv := n &^ 7
			for ; i+4 <= i1; i += 4 {
				for r := 0; r < 4; r++ {
					urow := u.Data[(i+r)*u.Stride:]
					for kk := 0; kk < klen; kk++ {
						b[r*klen+kk] = urow[k0+kk] / w.At(k0+kk, k0+kk)
					}
				}
				gaussBrickAVX2(x.Data[i*x.Stride:], b[:4*klen],
					v.Data[k0*v.Stride:], x.Stride, v.Stride, klen, jv)
				for k := k0; jv < n && k < kHi; k++ {
					gaussPanel(x.Data[i*x.Stride+jv:], u.Data[i*u.Stride+k:],
						v.Data[k*v.Stride+jv:], w.At(k, k), x.Stride, u.Stride, 4, n-jv)
				}
			}
		}
		for ; i < i1; i++ {
			for k := k0; k < kHi; k++ {
				gaussPanel(x.Data[i*x.Stride:], u.Data[i*u.Stride+k:],
					v.Data[k*v.Stride:], w.At(k, k), x.Stride, u.Stride, 1, n)
			}
		}
	}
}
