package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dpspark/internal/matrix"
	"dpspark/internal/semiring"
)

var allKinds = []semiring.Kind{semiring.KindA, semiring.KindB, semiring.KindC, semiring.KindD}

// edgeSizes straddle every unroll boundary of the row primitive (1, 4, 8
// and 16 columns) and of the bricks (4 rows, 8 columns, kBlock pivots).
var edgeSizes = []int{1, 3, 4, 7, 8, 9, 15, 16, 17, 31, 33, 64, 255, 256}

// kernelOperands carves the four n×n operand pieces of one kernel call
// out of data (4n² values) and wires them by kind. With quadrants false
// the pieces are contiguous tiles, wired as the drivers do (RunLocal:
// B and C take the pivot tile as their other operand); with quadrants
// true they are the strided quadrants of one 2n×2n slab, wired as the
// recursive kernels' base cases are (Recursive.run). The aliasing is the
// same either way: A is (x,x,x,x), B has v = x, C has u = x, D none.
func kernelOperands(kind semiring.Kind, n int, quadrants bool, data []float64) (x, u, v, w matrix.View) {
	var p [4]matrix.View
	if quadrants {
		slab := matrix.View{Data: data, N: 2 * n, Stride: 2 * n}
		for q := range p {
			p[q] = slab.Quadrant(q/2, q%2, 2)
		}
	} else {
		for q := range p {
			p[q] = matrix.View{Data: data[q*n*n : (q+1)*n*n], N: n, Stride: n}
		}
	}
	switch kind {
	case semiring.KindA:
		return p[0], p[0], p[0], p[0]
	case semiring.KindB:
		return p[1], p[0], p[1], p[0]
	case semiring.KindC:
		return p[2], p[2], p[0], p[0]
	default:
		return p[3], p[2], p[1], p[0]
	}
}

// orderedReference is the plain scalar kij triple loop (GE with the row
// multiplier hoisted) — the code the fast paths replaced, kept here as
// the bit-level reference.
func orderedReference(rule semiring.Rule, kind semiring.Kind, x, u, v, w matrix.View) {
	_, ge := rule.(semiring.GaussianRule)
	n := x.N
	for k := 0; k < n; k++ {
		for i := rule.ILow(kind, k); i < n; i++ {
			s := u.At(i, k)
			if ge {
				s /= w.At(k, k)
			}
			xrow := x.Data[i*x.Stride:]
			vrow := v.Data[k*v.Stride:]
			for j := rule.JLow(kind, k); j < n; j++ {
				if ge {
					xrow[j] -= s * vrow[j]
				} else if t := s + vrow[j]; t < xrow[j] {
					xrow[j] = t
				}
			}
		}
	}
}

// specialValues mixes NaNs of two payloads (so NaN propagation order is
// observable), infinities, signed zeros, denormals and ordinary
// magnitudes of both signs — the operand classes where a SIMD min or
// multiply-subtract could legally diverge from the scalar expression if
// the instruction selection or operand order were wrong.
func specialValues(rng *rand.Rand) float64 {
	switch rng.Intn(9) {
	case 0:
		return math.NaN()
	case 1:
		return math.Float64frombits(0x7ff8_0000_dead_beef)
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	case 4:
		return math.Copysign(0, -1)
	case 5:
		return 0
	case 6:
		return 5e-324 // smallest denormal
	default:
		return (rng.Float64() - 0.5) * 1e3
	}
}

// TestSIMDKernelsMatchScalar pins every fast path — the AVX2 bricks and
// panels, and the scalar bodies that replace them without AVX2 — to the
// plain ordered loop bit for bit, for every kind (A, B, C through the
// ordered panels, D through the blocked bricks) under the aliasing the
// drivers and the recursive kernels produce, on adversarial inputs:
// VMINPD must keep x on ties and NaN sums exactly like `if t < x`, GE
// must stay an unfused multiply-subtract with one division per row, a
// row's scalar must be read before the row overwrites it (negative
// min-plus diagonals), and later rows must observe the updated pivot row.
func TestSIMDKernelsMatchScalar(t *testing.T) {
	prev := setSIMDForTest(true)
	defer setSIMDForTest(prev)
	haveSIMD := useAVX2

	type fill struct {
		name  string
		value func(rng *rand.Rand) float64
		// pivot, when set, overrides the diagonal of the pivot piece.
		pivot func(rng *rand.Rand) float64
	}
	ordinary := func(rng *rand.Rand) float64 { return 1 + math.Floor(rng.Float64()*9) }
	cases := []struct {
		rule  semiring.Rule
		fills []fill
	}{
		{semiring.NewFloydWarshall(), []fill{
			{name: "special", value: specialValues},
			{name: "negative-diagonal", value: ordinary,
				pivot: func(rng *rand.Rand) float64 { return -1 - rng.Float64() }},
		}},
		{semiring.NewGaussian(), []fill{
			{name: "special", value: specialValues,
				pivot: func(rng *rand.Rand) float64 { return 1 + rng.Float64() }},
			{name: "special-pivots", value: specialValues},
			{name: "tiny-pivots", value: ordinary,
				pivot: func(rng *rand.Rand) float64 { return 1e-300 * (rng.Float64() - 0.5) }},
		}},
	}
	rng := rand.New(rand.NewSource(303))
	for _, c := range cases {
		rule := c.rule
		for _, f := range c.fills {
			for _, n := range edgeSizes {
				if (testing.Short() || raceEnabled) && n > 64 {
					continue
				}
				base := make([]float64, 4*n*n)
				for _, quadrants := range []bool{false, true} {
					for i := range base {
						base[i] = f.value(rng)
					}
					if f.pivot != nil {
						_, _, _, w := kernelOperands(semiring.KindD, n, quadrants, base)
						for i := 0; i < n; i++ {
							w.Set(i, i, f.pivot(rng))
						}
					}
					for _, kind := range allKinds {
						name := fmt.Sprintf("%s/%s/%v/n=%d/quadrants=%v", rule.Name(), f.name, kind, n, quadrants)
						run := func(simd bool, kernel func(semiring.Rule, semiring.Kind, matrix.View, matrix.View, matrix.View, matrix.View)) []float64 {
							setSIMDForTest(simd)
							data := append([]float64(nil), base...)
							x, u, v, w := kernelOperands(kind, n, quadrants, data)
							kernel(rule, kind, x, u, v, w)
							return data
						}
						want := run(false, orderedReference)
						requireSameBits(t, name+": scalar fast path vs ordered loop", run(false, Loop), want)
						if haveSIMD {
							requireSameBits(t, name+": SIMD vs ordered loop", run(true, Loop), want)
						}
					}
				}
			}
		}
	}
}

// requireSameBits fails unless got and want hold the same bit patterns
// (NaN payloads and zero signs included).
func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: diverges at %d: %x vs %x", what, i,
				math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestRunLocalSIMDOnOff: whole FW and GE tables through the blocked
// driver — every kind, many iterations, iterative and recursive execs,
// dividing and non-dividing tile sizes — are bit-identical with the
// assembly on and off.
func TestRunLocalSIMDOnOff(t *testing.T) {
	prev := setSIMDForTest(true)
	defer setSIMDForTest(prev)
	if !useAVX2 {
		t.Skip("no AVX2 in this build or on this machine")
	}
	rng := rand.New(rand.NewSource(307))
	for _, rule := range []semiring.Rule{semiring.NewFloydWarshall(), semiring.NewGaussian()} {
		execs := []Exec{
			NewIterative(rule),
			NewRecursiveExec(rule, 2, 8, 1),
			NewRecursiveExec(rule, 4, 16, 4),
		}
		for _, shape := range [][2]int{{96, 32}, {100, 24}, {256, 64}} {
			n, b := shape[0], shape[1]
			in := randomInput(rule, n, rng)
			for _, exec := range execs {
				run := func(simd bool) []float64 {
					setSIMDForTest(simd)
					bl := matrix.Block(in, b, rule.Pad(), rule.PadDiag())
					RunLocal(bl, exec)
					return bl.ToDense().Data
				}
				requireSameBits(t, fmt.Sprintf("%s %s n=%d b=%d: SIMD on vs off", rule.Name(), exec.Name(), n, b),
					run(true), run(false))
			}
		}
	}
}
