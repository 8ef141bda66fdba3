package kernels

import "dpspark/internal/matrix"

// Cache-blocked fast paths for the unaliased kernel shapes, and the row
// primitives they share with the ordered loops of loop.go.
//
// The straight kij loops stream the whole x tile through the cache once
// per k — at b = 1024 that is 8 MB of x traffic per pivot row, far beyond
// L2. Blocking k in chunks of kBlock keeps a small set of x rows resident
// across kBlock consecutive pivots; rows are processed in groups of four
// by the bricks in simd_amd64.s, which hold a 4×16 (AVX-512) or 4×8
// (AVX2) x block in registers across the whole k block and read the rows'
// scalar operands in place at their row stride: u itself for min-plus,
// and for GE the multiplier panel f[i,k] = u[i,k]/w[k,k] that each
// kind-D call computes once (gaussMultipliers) — recursive calls once at
// their outermost kind-D level, for all their leaves. Column tails, row
// remainders and machines without AVX2 go through minPlusPanel /
// gaussPanel — one pivot, a run of rows — which is also the whole body
// of the ordered loops. Column tiling (jBlock) bounds the working set
// further for very large tiles.
//
// The tier (simd.go) only widens the instructions. A brick run takes its
// columns 16 at a time on AVX-512 hosts and hands an 8-column remainder
// to the AVX2 brick (brickSplit); a panel takes the AVX-512 body only
// when jlen ≥ 16, so b = 8 tiles and the bricks' short column tails run
// exactly the AVX2 code they ran before the tier existed. fw_im_fine is
// all 8-column calls; an early build without the gate lost it in 3 of 3
// paired runs by about 2.7 %, though on this code an ungated build read
// it flat (EXPERIMENTS.md, "An AVX-512 tier"). Every lane computes the
// same expression in both tiers, so the bits never depend on the host.
// Call levels count at b = 8 (one more per brick once cost 1.16×), so
// min-plus has one brick sequence, minPlusBricks, whose bricks loop over
// the row quads themselves, and a resolved kind-D call is that helper
// alone (EXPERIMENTS.md, "One kind-D call resolved per run").
//
// The blocked paths read u and v in place only when x aliases neither.
// For kinds A, B and C, Fig. 4 wires x into the operand list (u = v = w =
// x for A, v = x for B, u = x for C), making the kernel a true in-place
// DP whose later pivots must observe earlier updates — each element keeps
// the ordered kij loop's operands in ascending k (see loop.go). Min-plus
// kinds B and A run these bricks too, one k-block [k0,k1) at a time, on
// operands captured so that each element still sees the ordered loop's:
// pivot row k as it was before its own panel (pre, for rows above the
// block) or after it (post, for rows below), and — for kind A, whose
// scalars x[i,k] are themselves updated by the block — each row's x[i,k]
// as step k finds it, captured while the row's block columns [k0,k1) run
// the ordered loop; the bricks then cover the other columns. Kind A does
// so only from b = 80 (aMinDim) and with the bricks (AVX2 or better): a
// tile that (nearly) fits L1, or one without them, runs the ordered loop
// faster. The D update
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
func sameView(a, b matrix.View) bool { return sameData(a.Data, b.Data) }

// sameData reports whether two slices start at the same element.
func sameData(a, b []float64) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// diagChunk is how many of w's diagonal entries gaussMultipliers copies
// into its stack row at a time.
const diagChunk = 256

// gaussMultipliers writes rows [i0,i1) of a kind-D call's multiplier
// panel f[i,k] = u[i,k]/w[k,k] — the IEEE division the ordered loop
// performs, once per call instead of once per brick that reads it. f
// must not alias u or w. With AVX2 it copies w's diagonal into a
// contiguous row once per call and divides eight columns at a time
// (divRowsAVX2); IEEE division is correctly rounded per lane, so the
// panel has the same bits.
func gaussMultipliers(f, u, w matrix.View, i0, i1 int) {
	n := u.N
	if i0 >= i1 || n == 0 {
		return
	}
	if simd == simdScalar {
		for i := i0; i < i1; i++ {
			frow := f.Data[i*f.Stride : i*f.Stride+n]
			for k, uik := range u.Data[i*u.Stride : i*u.Stride+n] {
				frow[k] = uik / w.Data[k*w.Stride+k]
			}
		}
		return
	}
	var diag [diagChunk]float64
	rows := i1 - i0
	for k0 := 0; k0 < n; k0 += diagChunk {
		d := diag[:min(diagChunk, n-k0)]
		for k := range d {
			d[k] = w.Data[(k0+k)*(w.Stride+1)]
		}
		fr, ur := f.Data[i0*f.Stride+k0:], u.Data[i0*u.Stride+k0:]
		// The assembly does no bounds checks; these are its last accesses.
		_, _ = fr[(rows-1)*f.Stride+len(d)-1], ur[(rows-1)*u.Stride+len(d)-1]
		divRowsAVX2(fr, ur, d, f.Stride, u.Stride, rows, len(d))
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
	switch {
	case simd == simdAVX512 && jlen >= 16:
		minplusPanelAVX512(x, u, v, xstride, ustride, rows, jlen)
		return
	case simd >= simdAVX2:
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
	switch {
	case simd == simdAVX512 && jlen >= 16:
		gaussPanelAVX512(x, u, v, w, xstride, ustride, rows, jlen)
		return
	case simd >= simdAVX2:
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
	minPlusKBlocks(x, u.Data, u.Stride, v.Data, v.Stride, 0, x.N, i0, i1, 0, x.N)
}

// minPlusKBlocks applies pivots [k0,k1) to rows [i0,i1) and columns
// [j0,j1) of x in blocks of kBlock, ascending k per element: x[i,j] =
// min(x[i,j], s[i*sstride+k-k0] + vb[(k-k0)*vstride+j]). s holds the
// rows' scalars — u's own entries, read in place, for kinds B and D;
// the ones kind A captured — and vb the pivot rows — v's own rows for
// kind D, captured rows for kinds A and B (loopMinPlusPivotRows).
// Neither may alias the elements written.
func minPlusKBlocks(x matrix.View, s []float64, sstride int, vb []float64, vstride, k0, k1, i0, i1, j0, j1 int) {
	if i0 >= i1 {
		return
	}
	for kb := k0; kb < k1; kb += kBlock {
		for jt := j0; jt < j1; jt += jBlock {
			minPlusBricks(x.Data[i0*x.Stride+jt:], s[i0*sstride+kb-k0:], vb[(kb-k0)*vstride+jt:],
				x.Stride, sstride, vstride, i1-i0, min(kBlock, k1-kb), min(jBlock, j1-jt))
		}
	}
}

// minPlusBricks is the package's one min-plus brick sequence, for one
// k-block and column tile: x[r,j] = min(x[r,j], s[r*sstride+k] +
// v[k*vstride+j]) for r < rows, j < jlen, k < klen ascending; x, s and v
// point at the first element touched, and s and v must not alias x. The
// whole row quads take one brick call per tier (brickSplit), a column
// tail the panels a quad at a time, remainder rows (all rows without
// AVX2) the panels a row at a time. Each element sees its k in order in
// one of them, so their order changes no bit. A min-plus kind-D call on
// at most kBlock is one call of it (loopMinPlus, Iterative.Resolve).
func minPlusBricks(x, s, v []float64, xstride, sstride, vstride, rows, klen, jlen int) {
	if rows <= 0 || klen <= 0 || jlen <= 0 {
		return
	}
	// The assembly does no bounds checks; these are its last accesses.
	_, _, _ = x[(rows-1)*xstride+jlen-1], s[(rows-1)*sstride+klen-1], v[(klen-1)*vstride+jlen-1]
	i := 0
	if simd >= simdAVX2 && jlen >= 8 && rows >= 4 {
		jv := jlen &^ 7
		jz := brickSplit(0, jv)
		i = rows &^ 3
		if jz > 0 {
			minplusBrickAVX512(x, s, v, xstride, sstride, vstride, i, klen, jz)
		}
		if jv > jz {
			minplusBrickAVX2(x[jz:], s, v[jz:], xstride, sstride, vstride, i, klen, jv-jz)
		}
		for q := 0; jv < jlen && q < i; q += 4 {
			for k := 0; k < klen; k++ {
				minPlusPanel(x[q*xstride+jv:], s[q*sstride+k:], v[k*vstride+jv:], xstride, sstride, 4, jlen-jv)
			}
		}
	}
	// Row-outer so a remainder row stays in L1 across the k block.
	for ; i < rows; i++ {
		for k := 0; k < klen; k++ {
			minPlusPanel(x[i*xstride:], s[i*sstride+k:], v[k*vstride:], xstride, sstride, 1, jlen)
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
		if simd >= simdAVX2 && n >= 8 {
			jv := n &^ 7
			jz := brickSplit(0, jv)
			for ; i+4 <= i1; i += 4 {
				xi, fi, vk := x.Data[i*x.Stride:], f.Data[i*f.Stride+k0:], v.Data[k0*v.Stride:]
				if jz > 0 {
					gaussBrickAVX512(xi, fi, vk, x.Stride, f.Stride, v.Stride, kHi-k0, jz)
				}
				if jv > jz {
					gaussBrickAVX2(xi[jz:], fi, vk[jz:], x.Stride, f.Stride, v.Stride, kHi-k0, jv-jz)
				}
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

// brickSplit divides a brick run [j0,jv) of whole 8-column tiles between
// the tiers: [j0,jz) goes to the AVX-512 brick, 16 columns at a time, and
// [jz,jv) — empty, or the 8-column remainder, or everything on an AVX2
// host — to the AVX2 brick.
func brickSplit(j0, jv int) (jz int) {
	if simd == simdAVX512 {
		return j0 + (jv-j0)&^15
	}
	return j0
}
