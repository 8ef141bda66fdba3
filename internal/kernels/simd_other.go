//go:build !amd64 || purego

package kernels

// Builds without the assembly (other architectures, or -tags purego on
// amd64) have no SIMD bodies; every path uses the 8×-unrolled scalar
// code unconditionally.
const hostSIMD = simdScalar

func minplusBrickAVX2(x, b, v []float64, xstride, bstride, vstride, rows, klen, jlen int) {
	panic("kernels: SIMD brick in a build without assembly")
}

func gaussBrickAVX2(x, b, v []float64, xstride, bstride, vstride, klen, jlen int) {
	panic("kernels: SIMD brick in a build without assembly")
}

func minplusPanelAVX2(x, u, v []float64, xstride, ustride, rows, jlen int) {
	panic("kernels: SIMD panel in a build without assembly")
}

func gaussPanelAVX2(x, u, v []float64, w float64, xstride, ustride, rows, jlen int) {
	panic("kernels: SIMD panel in a build without assembly")
}

func minplusBrickAVX512(x, b, v []float64, xstride, bstride, vstride, rows, klen, jlen int) {
	panic("kernels: SIMD brick in a build without assembly")
}

func gaussBrickAVX512(x, b, v []float64, xstride, bstride, vstride, klen, jlen int) {
	panic("kernels: SIMD brick in a build without assembly")
}

func minplusPanelAVX512(x, u, v []float64, xstride, ustride, rows, jlen int) {
	panic("kernels: SIMD panel in a build without assembly")
}

func gaussPanelAVX512(x, u, v []float64, w float64, xstride, ustride, rows, jlen int) {
	panic("kernels: SIMD panel in a build without assembly")
}

func divRowsAVX2(f, u, d []float64, fstride, ustride, rows, n int) {
	panic("kernels: SIMD division in a build without assembly")
}
