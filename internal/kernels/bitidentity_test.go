package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
// recursive kernels' base cases are (the sub-calls of a Fig4 schedule,
// which Recursive.run executes). The aliasing is the same either way:
// A is (x,x,x,x), B has v = x, C has u = x, D none.
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
		// bc lists sizes run on kinds B and C only, past edgeSizes: a
		// k-block tail of 4 with brick column tails (100), and two column
		// tiles (520, past jBlock).
		bc []int
	}{
		{semiring.NewFloydWarshall(), []fill{
			{name: "special", value: specialValues},
			{name: "negative-diagonal", value: ordinary,
				pivot: func(rng *rand.Rand) float64 { return -1 - rng.Float64() }},
		}, []int{100, 520}},
		{semiring.NewGaussian(), []fill{
			{name: "special", value: specialValues,
				pivot: func(rng *rand.Rand) float64 { return 1 + rng.Float64() }},
			{name: "special-pivots", value: specialValues},
			{name: "tiny-pivots", value: ordinary,
				pivot: func(rng *rand.Rand) float64 { return 1e-300 * (rng.Float64() - 0.5) }},
		}, nil},
	}
	rng := rand.New(rand.NewSource(303))
	for _, c := range cases {
		rule := c.rule
		for _, f := range c.fills {
			for _, n := range append(edgeSizes[:len(edgeSizes):len(edgeSizes)], c.bc...) {
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
						if slices.Contains(c.bc, n) && kind != semiring.KindB && kind != semiring.KindC {
							continue
						}
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

// TestRecursiveSpecialValuesMatchOrdered pins the recursive kernels to the
// plain ordered loop bit for bit on the adversarial fills of
// TestSIMDKernelsMatchScalar, over r_shared {2, 4}, base {8, 16}, serial
// and on a width-2 pool, for every kind on contiguous operands and on
// quadrants of one slab (whose row stride differs from the operand
// dimension). n = 33 and 96 leave base cases that do not divide, or
// tails below kBlock. GE must keep one IEEE division u[i,k]/w[k,k] per
// multiplier, applied in ascending k, wherever the recursion computes it.
//
// FW kinds A, B and C run on the special and negative-diagonal fills only
// as kind D. Those kinds update in place, and the recursion hands a
// sub-call operands that later pivots have already relaxed, where the
// kij loop reads them earlier. Both reach the same closure only when the
// DP converges exactly. A negative cycle (negative diagonal, negative or
// -Inf weights), a NaN cell that never relaxes or an inexact sum makes
// the result depend on that order, and the two legitimately differ. So
// does a B or C call whose pivot tile is not yet closed. The exact fill
// (small integers, zeros and +Inf, with the pivot tile closed first for B
// and C, as the drivers hand it to them) keeps those kinds covered. Kind
// D reads no aliased operand, so its min over ascending k is order-free.
func TestRecursiveSpecialValuesMatchOrdered(t *testing.T) {
	ordinary := func(rng *rand.Rand) float64 { return 1 + math.Floor(rng.Float64()*9) }
	exact := func(rng *rand.Rand) float64 {
		if rng.Intn(4) == 0 {
			return math.Inf(1)
		}
		return math.Floor(rng.Float64() * 10)
	}
	type fill struct {
		rule         semiring.Rule
		name         string
		value, pivot func(rng *rand.Rand) float64
		// onlyD keeps the fill to kind D; exact closes B's and C's pivot
		// tile before the call (see above).
		onlyD, exact bool
	}
	fw, ge := semiring.NewFloydWarshall(), semiring.NewGaussian()
	fills := []fill{
		{fw, "exact", exact, nil, false, true},
		{fw, "special", specialValues, nil, true, false},
		{fw, "negative-diagonal", ordinary, func(rng *rand.Rand) float64 { return -1 - rng.Float64() }, true, false},
		{ge, "special", specialValues, func(rng *rand.Rand) float64 { return 1 + rng.Float64() }, false, false},
		{ge, "special-pivots", specialValues, nil, false, false},
		{ge, "tiny-pivots", ordinary, func(rng *rand.Rand) float64 { return 1e-300 * (rng.Float64() - 0.5) }, false, false},
	}
	pools := []*Pool{nil, NewPool(2)}
	rng := rand.New(rand.NewSource(311))
	for _, f := range fills {
		for _, n := range []int{16, 33, 64, 96, 256} {
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
					if f.onlyD && kind != semiring.KindD {
						continue
					}
					run := func(kernel func(x, u, v, w matrix.View)) []float64 {
						data := append([]float64(nil), base...)
						x, u, v, w := kernelOperands(kind, n, quadrants, data)
						if f.exact && (kind == semiring.KindB || kind == semiring.KindC) {
							orderedReference(f.rule, semiring.KindA, w, w, w, w)
						}
						kernel(x, u, v, w)
						return data
					}
					want := run(func(x, u, v, w matrix.View) { orderedReference(f.rule, kind, x, u, v, w) })
					for _, r := range []int{2, 4} {
						for _, b := range []int{8, 16} {
							for _, pool := range pools {
								rec := NewRecursive(f.rule, r, b, pool)
								name := fmt.Sprintf("%s/%s/%v/n=%d/quadrants=%v/r=%d/base=%d/threads=%d",
									f.rule.Name(), f.name, kind, n, quadrants, r, b, pool.Threads())
								requireSameBits(t, name, run(func(x, u, v, w matrix.View) { rec.Run(kind, x, u, v, w) }), want)
							}
						}
					}
				}
			}
		}
	}
}

// TestIterativeApplyMatchesLoop pins the iterative exec's entry points to
// Loop bit for bit: Apply on a serial exec and on one with its own
// width-2 pool, and ApplyWith on no pool and on a caller's width-2 pool.
// Tiles are wired with Fig. 4's nil operands (A takes only X, B omits V,
// C omits U; the semiring rules' kind D also runs without its pivot, as
// the engine calls FW), so the exec's own wiring is checked too. The
// strided quadrants of one slab, which no tile can express, go through
// LoopPool on the same two pools. FW, GE and a non-min-plus semiring
// (the generic path) cover every loop an iterative exec can pick, and
// b = 64 and 100 reach the row-band split.
func TestIterativeApplyMatchesLoop(t *testing.T) {
	fw, ge, tc := semiring.NewFloydWarshall(), semiring.NewGaussian(), semiring.NewTransitiveClosure()
	pool := NewPool(2)
	rng := rand.New(rand.NewSource(313))
	for _, rule := range []semiring.Rule{fw, ge, tc} {
		execs := []struct {
			name  string
			apply func(kind semiring.Kind, x, u, v, w *matrix.Tile)
		}{
			{"Apply", NewIterative(rule).Apply},
			{"Apply/own-pool", NewIterativePool(rule, 2).Apply},
			{"ApplyWith/nil", func(kind semiring.Kind, x, u, v, w *matrix.Tile) {
				NewIterative(rule).ApplyWith(nil, kind, x, u, v, w)
			}},
			{"ApplyWith/pool", func(kind semiring.Kind, x, u, v, w *matrix.Tile) {
				NewIterative(rule).ApplyWith(pool, kind, x, u, v, w)
			}},
		}
		for _, n := range []int{1, 4, 8, 33, 64, 100} {
			base := make([]float64, 4*n*n)
			for _, quadrants := range []bool{false, true} {
				for i := range base {
					base[i] = specialValues(rng)
				}
				if rule == semiring.Rule(ge) {
					_, _, _, w := kernelOperands(semiring.KindD, n, quadrants, base)
					for i := 0; i < n; i++ {
						w.Set(i, i, 1+rng.Float64())
					}
				}
				for _, kind := range allKinds {
					// dropW wires kind D's pivot back to x, as for a rule
					// that never reads it.
					for _, dropW := range []bool{false, true} {
						if dropW && (kind != semiring.KindD || rule.UsesPivot()) {
							continue
						}
						operands := func(data []float64) (x, u, v, w matrix.View) {
							x, u, v, w = kernelOperands(kind, n, quadrants, data)
							if dropW {
								w = x
							}
							return x, u, v, w
						}
						want := append([]float64(nil), base...)
						x, u, v, w := operands(want)
						Loop(rule, kind, x, u, v, w)
						name := fmt.Sprintf("%s/%v/n=%d/quadrants=%v/dropW=%v", rule.Name(), kind, n, quadrants, dropW)
						if quadrants {
							for _, p := range []*Pool{nil, pool} {
								got := append([]float64(nil), base...)
								x, u, v, w := operands(got)
								LoopPool(p, rule, kind, x, u, v, w)
								requireSameBits(t, fmt.Sprintf("%s/LoopPool/threads=%d", name, p.Threads()), got, want)
							}
							continue
						}
						for _, e := range execs {
							got := append([]float64(nil), base...)
							x, u, v, w := operands(got)
							// An operand that is x itself goes in as nil.
							tile := func(o matrix.View) *matrix.Tile {
								if sameView(o, x) {
									return nil
								}
								return &matrix.Tile{B: n, Data: o.Data[:n*n]}
							}
							e.apply(kind, &matrix.Tile{B: n, Data: x.Data[:n*n]}, tile(u), tile(v), tile(w))
							requireSameBits(t, name+"/"+e.name, got, want)
						}
					}
				}
			}
		}
	}
}
