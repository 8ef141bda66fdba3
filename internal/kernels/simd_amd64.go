//go:build amd64 && !purego

package kernels

// Hand-written AVX2 and AVX-512 bodies for the two hot inner loops
// (min-plus and GE elimination), used when the CPU supports them (build
// with -tags purego to leave them out). The bricks serve the unaliased
// blocked fast paths: they operate on a 4-row × jlen-column × klen-pivot
// brick whose per-(row,k) scalar operands they read in place from b, row
// r at b[r·bstride] — u for min-plus, the multiplier panel for GE (see
// blocked.go). The min-plus bricks take rows, a positive multiple of 4,
// and run one such brick per row quad, so a call covers every whole quad
// of a block. The panels serve the ordered (aliased) loops and the
// bricks' column tails: one pivot, any number of rows, any number of
// columns. All of them are bit-identical to the scalar bodies they
// replace:
//
//   - minplusBrick*: x[r,j] = min(x[r,j], b[r,k] + v[k,j]). VADDPD is
//     the IEEE double add, and VMINPD(t, x) returns x when the operands
//     compare unordered or equal — exactly the scalar
//     `if t := s + vj; t < x { x = t }`, including NaN and ±0 behaviour
//     (TestSIMDKernelsMatchScalar pins this on the special values).
//   - gaussBrick*: x[r,j] -= b[r,k] * v[k,j] as an unfused
//     VMULPD + VSUBPD pair, matching the scalar `x -= f * vj` (gc does
//     not fuse multiply-add on amd64, so no FMA contraction differences).
//     v is the multiply's first source, as in the code gc emits for
//     `f * vj`, so two NaN operands propagate the same payload.
//   - minplusPanel* / gaussPanel*: the same two lane expressions over
//     one row at a time, rows ascending. A lane reads and writes only its
//     own column, the row's scalar u[i,k] is loaded before the row's
//     first store and v is re-read from memory for every row, so the
//     panels equal the ordered scalar loop even when x aliases u, v or
//     both (TestSIMDKernelsMatchScalar).
//   - divRowsAVX2: f[r,j] = u[r,j] / d[j] with VDIVPD, u the first
//     source as in the scalar `u / w`; IEEE division is correctly
//     rounded per lane, so the multiplier panel keeps its bits.
//
// Per element the k updates apply in ascending order, preserving the
// rounding sequence of the ordered loops. For the AVX2 bricks jlen must
// be a positive multiple of 8 and for the AVX-512 bricks of 16 (the
// caller hands column tails to the panels), klen must be ≥ 1, and x, b
// and v are the top-left corners of the brick's x block, scalar block
// and v block with the given row strides (in elements); b's rows must
// not be written during the call. The panels of both tiers take any
// rows ≥ 1 and jlen ≥ 1; callers hand the AVX-512 ones jlen ≥ 16 only
// (see blocked.go).
//
// The tier rule: AVX-512 when CPUID reports AVX-512F (leaf 7 EBX bit 16)
// and the OS saves the opmask and all ZMM state (XCR0 bits 1, 2, 5, 6
// and 7), else AVX2 when CPUID and XCR0 report it, else scalar. The
// AVX-512 bodies use AVX-512F instructions only (KMOVW, not AVX-512DQ's
// KMOVB), so that bit on top of AVX2 (which takes the bricks' 8-column
// remainders) is the whole requirement. Which tier runs is
// decided once, here, at start-up; there is no setting for it.
var hostSIMD = detectSIMD()

// detectSIMD returns the widest tier the CPU and OS support.
func detectSIMD() simdLevel {
	if !cpuHasAVX2() {
		return simdScalar
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx512fBit = 1 << 16
	// XMM, YMM, opmask, ZMM0–15 upper halves, ZMM16–31.
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0, _ := xgetbv(); ebx7&avx512fBit != 0 && xcr0&zmmState == zmmState {
		return simdAVX512
	}
	return simdAVX2
}

// cpuHasAVX2 reports AVX2 support including the OS having enabled YMM
// state saving (OSXSAVE + XCR0 bits 1–2), per the Intel detection recipe.
func cpuHasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsaveBit = 1 << 27
	const avxBit = 1 << 28
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	if xcr0&0x6 != 0x6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}

// cpuid executes CPUID with the given leaf/subleaf.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (requires OSXSAVE).
func xgetbv() (eax, edx uint32)

// minplusBrickAVX2 applies x[r,j] = min(x[r,j], b[r*bstride+k] + v[k,j])
// for r in [0,rows), j in [0,jlen), k in [0,klen), ascending k per
// element, four rows at a time (rows a positive multiple of 4).
//
//go:noescape
func minplusBrickAVX2(x, b, v []float64, xstride, bstride, vstride, rows, klen, jlen int)

// gaussBrickAVX2 applies x[r,j] -= b[r*bstride+k] * v[k,j] for r in
// [0,4), j in [0,jlen), k in [0,klen), ascending k per element, unfused.
//
//go:noescape
func gaussBrickAVX2(x, b, v []float64, xstride, bstride, vstride, klen, jlen int)

// minplusPanelAVX2 applies x[r,j] = min(x[r,j], u[r*ustride] + v[j]) for
// r in [0,rows) ascending, j in [0,jlen).
//
//go:noescape
func minplusPanelAVX2(x, u, v []float64, xstride, ustride, rows, jlen int)

// gaussPanelAVX2 applies x[r,j] -= (u[r*ustride] / w) * v[j] for r in
// [0,rows) ascending, j in [0,jlen), unfused.
//
//go:noescape
func gaussPanelAVX2(x, u, v []float64, w float64, xstride, ustride, rows, jlen int)

// minplusBrickAVX512 is minplusBrickAVX2 over 16-column tiles (jlen a
// positive multiple of 16).
//
//go:noescape
func minplusBrickAVX512(x, b, v []float64, xstride, bstride, vstride, rows, klen, jlen int)

// gaussBrickAVX512 is gaussBrickAVX2 over 16-column tiles (jlen a
// positive multiple of 16).
//
//go:noescape
func gaussBrickAVX512(x, b, v []float64, xstride, bstride, vstride, klen, jlen int)

// minplusPanelAVX512 is minplusPanelAVX2 in ZMM registers.
//
//go:noescape
func minplusPanelAVX512(x, u, v []float64, xstride, ustride, rows, jlen int)

// gaussPanelAVX512 is gaussPanelAVX2 in ZMM registers.
//
//go:noescape
func gaussPanelAVX512(x, u, v []float64, w float64, xstride, ustride, rows, jlen int)

// divRowsAVX2 writes f[r*fstride+j] = u[r*ustride+j] / d[j] for r in
// [0,rows), j in [0,n); rows, n ≥ 1.
//
//go:noescape
func divRowsAVX2(f, u, d []float64, fstride, ustride, rows, n int)
