//go:build amd64 && !purego

package kernels

// Hand-written AVX2 bodies for the two hot inner loops (min-plus and GE
// elimination), used when the CPU supports them (build with -tags purego
// to leave them out). The bricks serve the unaliased blocked fast paths:
// they operate on a 4-row × jlen-column × klen-pivot brick with the
// per-(row,k) scalar operands pre-gathered into b (see blocked.go). The
// panels serve the ordered (aliased) loops and the bricks' column tails:
// one pivot, any number of rows, any number of columns. All four are
// bit-identical to the scalar bodies they replace:
//
//   - minplusBrickAVX2: x[r,j] = min(x[r,j], b[r,k] + v[k,j]). VADDPD is
//     the IEEE double add, and VMINPD(t, x) returns x when the operands
//     compare unordered or equal — exactly the scalar
//     `if t := s + vj; t < x { x = t }`, including NaN and ±0 behaviour
//     (TestSIMDKernelsMatchScalar pins this on the special values).
//   - gaussBrickAVX2: x[r,j] -= b[r,k] * v[k,j] as an unfused
//     VMULPD + VSUBPD pair, matching the scalar `x -= f * vj` (gc does
//     not fuse multiply-add on amd64, so no FMA contraction differences).
//     v is the multiply's first source, as in the code gc emits for
//     `f * vj`, so two NaN operands propagate the same payload.
//   - minplusPanelAVX2 / gaussPanelAVX2: the same two lane expressions
//     over one row at a time, rows ascending. A lane reads and writes only
//     its own column, the row's scalar u[i,k] is loaded before the row's
//     first store and v is re-read from memory for every row, so the
//     panels equal the ordered scalar loop even when x aliases u, v or
//     both (TestSIMDKernelsMatchScalar).
//
// Per element the k updates apply in ascending order, preserving the
// rounding sequence of the ordered loops. For the bricks jlen must be a
// positive multiple of 8 (the caller hands column tails to the panels),
// klen must be ≥ 1, b must hold 4·klen values laid out row-major, and x/v
// are the top-left corners of the brick with the given strides (in
// elements). The panels take any rows ≥ 1 and jlen ≥ 1.

// useAVX2 gates the assembly bodies; tests may flip it through
// setSIMDForTest to compare both implementations on the same machine.
var useAVX2 = cpuHasAVX2()

// setSIMDForTest forces the scalar (enabled=false) or SIMD (enabled=true)
// bodies, returning the previous setting. Enabling on a machine
// without AVX2 is the caller's responsibility; only tests use this.
func setSIMDForTest(enabled bool) (prev bool) {
	prev = useAVX2
	useAVX2 = enabled && cpuHasAVX2()
	return prev
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

// minplusBrickAVX2 applies x[r,j] = min(x[r,j], b[r*klen+k] + v[k,j]) for
// r in [0,4), j in [0,jlen), k in [0,klen), ascending k per element.
//
//go:noescape
func minplusBrickAVX2(x, b, v []float64, xstride, vstride, klen, jlen int)

// gaussBrickAVX2 applies x[r,j] -= b[r*klen+k] * v[k,j] for r in [0,4),
// j in [0,jlen), k in [0,klen), ascending k per element, unfused.
//
//go:noescape
func gaussBrickAVX2(x, b, v []float64, xstride, vstride, klen, jlen int)

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
