package kernels

// simdLevel is the widest instruction set the kernel bodies use. Each
// level runs the same per-element operations in the same order as the
// one below it, so every level produces the same bits; a wider level only
// handles more columns per instruction.
type simdLevel uint8

const (
	// simdScalar: the 8×-unrolled Go bodies (non-amd64, -tags purego,
	// or a CPU without AVX2).
	simdScalar simdLevel = iota
	// simdAVX2: the YMM bricks and panels of simd_amd64.s.
	simdAVX2
	// simdAVX512: the ZMM bricks and panels, for column runs of 16 and
	// more; shorter runs keep the AVX2 bodies (see blocked.go).
	simdAVX512
)

// simd is the level every kernel path dispatches on. It is hostSIMD,
// detected once at start-up from CPUID and XCR0; only tests lower it.
var simd = hostSIMD

// setSIMDForTest runs the kernels at level, capped at what the host
// has, and returns the previous level. Only tests use this.
func setSIMDForTest(level simdLevel) (prev simdLevel) {
	prev = simd
	simd = min(level, hostSIMD)
	return prev
}
