//go:build !amd64 || purego

package kernels

// Builds without the assembly (other architectures, or -tags purego on
// amd64) have no SIMD bodies; every path uses the 8×-unrolled scalar
// code unconditionally.
var useAVX2 = false

func setSIMDForTest(enabled bool) (prev bool) { return false }

func minplusBrickAVX2(x, b, v []float64, xstride, vstride, klen, jlen int) {
	panic("kernels: SIMD brick in a build without assembly")
}

func gaussBrickAVX2(x, b, v []float64, xstride, vstride, klen, jlen int) {
	panic("kernels: SIMD brick in a build without assembly")
}

func minplusPanelAVX2(x, u, v []float64, xstride, ustride, rows, jlen int) {
	panic("kernels: SIMD panel in a build without assembly")
}

func gaussPanelAVX2(x, u, v []float64, w float64, xstride, ustride, rows, jlen int) {
	panic("kernels: SIMD panel in a build without assembly")
}
