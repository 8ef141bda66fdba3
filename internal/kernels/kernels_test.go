package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dpspark/internal/matrix"
	"dpspark/internal/semiring"
)

// randomInput builds an n×n dense input suitable for the rule: random
// sparse distances for semiring rules, a diagonally dominant system for GE.
func randomInput(rule semiring.Rule, n int, rng *rand.Rand) *matrix.Dense {
	d := matrix.NewDense(n)
	switch rule.(type) {
	case semiring.GaussianRule:
		d.FillDiagonallyDominant(rng)
	default:
		sr := rule.(semiring.SemiringRule)
		if sr.S.Name() == "boolean" {
			d.Fill(func(i, j int) float64 {
				if i == j || rng.Float64() < 0.2 {
					return 1
				}
				return 0
			})
			return d
		}
		d.Fill(func(i, j int) float64 {
			switch {
			case i == j:
				return 0
			case rng.Float64() < 0.35:
				return math.Inf(1)
			default:
				return 1 + math.Floor(rng.Float64()*9)
			}
		})
	}
	return d
}

func reference(rule semiring.Rule, d *matrix.Dense) *matrix.Dense {
	out := d.Clone()
	semiring.RunGEP(out.Data, out.N, rule)
	return out
}

func tolFor(rule semiring.Rule, n int) float64 {
	if _, ok := rule.(semiring.GaussianRule); ok {
		return 1e-7 * float64(n)
	}
	return 0
}

func rules() []semiring.Rule {
	return []semiring.Rule{
		semiring.NewFloydWarshall(),
		semiring.NewGaussian(),
		semiring.NewTransitiveClosure(),
	}
}

// TestLoopKernelWholeTable: running the iterative A kernel on the whole
// table must equal the reference GEP.
func TestLoopKernelWholeTable(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, rule := range rules() {
		for _, n := range []int{1, 2, 5, 16, 33} {
			in := randomInput(rule, n, rng)
			want := reference(rule, in)
			got := in.Clone()
			v := matrix.View{Data: got.Data, N: n, Stride: n}
			Loop(rule, semiring.KindA, v, v, v, v)
			if diff := got.MaxAbsDiff(want); diff > tolFor(rule, n) {
				t.Fatalf("%s n=%d: loop A kernel diff %v", rule.Name(), n, diff)
			}
		}
	}
}

// TestRunLocalIterative: the blocked driver with iterative kernels must
// equal the reference for every rule, size and tile size, including
// non-dividing tile sizes (virtual padding).
func TestRunLocalIterative(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for _, rule := range rules() {
		for _, n := range []int{1, 3, 8, 16, 21, 32} {
			for _, b := range []int{1, 2, 4, 5, 8, 16} {
				in := randomInput(rule, n, rng)
				want := reference(rule, in)
				bl := matrix.Block(in, b, rule.Pad(), rule.PadDiag())
				RunLocal(bl, NewIterative(rule))
				got := bl.ToDense()
				if diff := got.MaxAbsDiff(want); diff > tolFor(rule, n) {
					t.Fatalf("%s n=%d b=%d: blocked iterative diff %v", rule.Name(), n, b, diff)
				}
			}
		}
	}
}

// TestRunLocalRecursive: the blocked driver with recursive r-way kernels
// must equal the reference for every r_shared, base size and thread count.
func TestRunLocalRecursive(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for _, rule := range rules() {
		for _, rShared := range []int{2, 3, 4, 8} {
			for _, threads := range []int{1, 4} {
				n, b := 32, 16
				in := randomInput(rule, n, rng)
				want := reference(rule, in)
				bl := matrix.Block(in, b, rule.Pad(), rule.PadDiag())
				RunLocal(bl, NewRecursiveExec(rule, rShared, 4, threads))
				got := bl.ToDense()
				if diff := got.MaxAbsDiff(want); diff > tolFor(rule, n) {
					t.Fatalf("%s r=%d threads=%d: recursive diff %v", rule.Name(), rShared, threads, diff)
				}
			}
		}
	}
}

// TestRecursiveMatchesIterativePerKind exercises each kernel kind in
// isolation, comparing recursive to iterative on operands that satisfy
// the kind's preconditions (B/C/D require an A-completed pivot tile, D
// additionally C/B-completed panels — exactly the state the blocked
// driver hands them).
func TestRecursiveMatchesIterativePerKind(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	for _, rule := range rules() {
		n, b := 32, 16
		in := randomInput(rule, n, rng)
		bl := matrix.Block(in, b, rule.Pad(), rule.PadDiag())
		it := NewIterative(rule)

		pivot := bl.Tile(matrix.Coord{I: 0, J: 0})
		it.Apply(semiring.KindA, pivot, nil, nil, nil)

		for _, rShared := range []int{2, 4} {
			rec := NewRecursiveExec(rule, rShared, 4, 2)
			compare := func(kind semiring.Kind, x *matrix.Tile, u, v *matrix.Tile) *matrix.Tile {
				t.Helper()
				x1, x2 := x.Clone(), x.Clone()
				it.Apply(kind, x1, u, v, pivot)
				rec.Apply(kind, x2, u, v, pivot)
				for i := range x1.Data {
					if math.Abs(x1.Data[i]-x2.Data[i]) > 1e-8 &&
						!(math.IsInf(x1.Data[i], 1) && math.IsInf(x2.Data[i], 1)) {
						t.Fatalf("%s kind %v r=%d: mismatch at %d: %v vs %v",
							rule.Name(), kind, rShared, i, x1.Data[i], x2.Data[i])
					}
				}
				return x1
			}
			rowPanel := compare(semiring.KindB, bl.Tile(matrix.Coord{I: 0, J: 1}), pivot, nil)
			colPanel := compare(semiring.KindC, bl.Tile(matrix.Coord{I: 1, J: 0}), nil, pivot)
			compare(semiring.KindD, bl.Tile(matrix.Coord{I: 1, J: 1}), colPanel, rowPanel)
		}
	}
}

// TestRecursiveFallbackNonDividing: when the size does not divide by r the
// recursion must fall back to the loop kernel and stay correct.
func TestRecursiveFallbackNonDividing(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	rule := semiring.NewFloydWarshall()
	n := 30 // not divisible by r=4
	in := randomInput(rule, n, rng)
	want := reference(rule, in)
	bl := matrix.Block(in, 15, rule.Pad(), rule.PadDiag())
	RunLocal(bl, NewRecursiveExec(rule, 4, 2, 4))
	if diff := bl.ToDense().MaxAbsDiff(want); diff > 0 {
		t.Fatalf("fallback recursion diff %v", diff)
	}
}

// genericRule strips the concrete type so Loop takes its generic path.
type genericRule struct{ semiring.Rule }

// TestLoopFastPathsMatchGeneric: the specialized min-plus and GE inner
// loops — blocked bricks for kind D, the ordered row primitive for the
// aliased kinds A, B, C, at every SIMD tier the host has — must agree with
// the generic interface-dispatch path on whole tiles and on the strided
// quadrant views the recursive kernels pass: bit for bit for min-plus,
// up to the GE multiplier hoist's rounding for elimination.
func TestLoopFastPathsMatchGeneric(t *testing.T) {
	tiers := simdTiers(t)
	rng := rand.New(rand.NewSource(106))
	for _, rule := range []semiring.Rule{semiring.NewFloydWarshall(), semiring.NewGaussian()} {
		_, ge := rule.(semiring.GaussianRule)
		for _, n := range edgeSizes {
			if (testing.Short() || raceEnabled) && n > 64 {
				continue
			}
			for _, quadrants := range []bool{false, true} {
				base := make([]float64, 4*n*n)
				for i := range base {
					base[i] = 1 + math.Floor(rng.Float64()*5)
					if !ge && rng.Float64() < 0.2 {
						base[i] = math.Inf(1)
					}
				}
				// Kind D's wiring names all four pieces; each gets the
				// rule's diagonal identity.
				p3, p2, p1, p0 := kernelOperands(semiring.KindD, n, quadrants, base)
				for _, piece := range []matrix.View{p0, p1, p2, p3} {
					for i := 0; i < n; i++ {
						piece.Set(i, i, rule.PadDiag())
					}
				}
				for _, kind := range allKinds {
					slow := append([]float64(nil), base...)
					sx, su, sv, sw := kernelOperands(kind, n, quadrants, slow)
					Loop(genericRule{rule}, kind, sx, su, sv, sw)
					for _, tier := range tiers {
						setSIMDForTest(tier)
						fast := append([]float64(nil), base...)
						fx, fu, fv, fw := kernelOperands(kind, n, quadrants, fast)
						Loop(rule, kind, fx, fu, fv, fw)
						what := fmt.Sprintf("%s %v n=%d quadrants=%v %v", rule.Name(), kind, n, quadrants, tier)
						if !ge {
							requireSameBits(t, what, fast, slow)
							continue
						}
						// The hoist's reassociation error is relative and
						// grows with n and with the magnitude elimination
						// pumps into the trailing entries.
						tol := 1e-10 * float64(n)
						for i := range fast {
							rel := math.Abs(fast[i]-slow[i]) / math.Max(1, math.Abs(slow[i]))
							if rel > tol {
								t.Fatalf("%s: fast path diverges at %d: %v vs %v", what, i, fast[i], slow[i])
							}
						}
					}
				}
			}
		}
	}
}

func TestUpdatesFormulas(t *testing.T) {
	fw := semiring.NewFloydWarshall()
	ge := semiring.NewGaussian()
	n := 16
	n64 := int64(n)
	for _, kind := range []semiring.Kind{semiring.KindA, semiring.KindB, semiring.KindC, semiring.KindD} {
		if got := Updates(fw, kind, n); got != n64*n64*n64 {
			t.Fatalf("FW %v updates = %d, want n³", kind, got)
		}
	}
	// GE closed forms: A: Σ m², B/C: Σ m·n, D: n³ with m = n-1-k.
	var sumM2, sumM int64
	for k := 0; k < n; k++ {
		m := int64(n - 1 - k)
		sumM2 += m * m
		sumM += m
	}
	if got := Updates(ge, semiring.KindA, n); got != sumM2 {
		t.Fatalf("GE A updates = %d, want %d", got, sumM2)
	}
	if got := Updates(ge, semiring.KindB, n); got != sumM*n64 {
		t.Fatalf("GE B updates = %d, want %d", got, sumM*n64)
	}
	if got := Updates(ge, semiring.KindC, n); got != sumM*n64 {
		t.Fatalf("GE C updates = %d, want %d", got, sumM*n64)
	}
	if got := Updates(ge, semiring.KindD, n); got != n64*n64*n64 {
		t.Fatalf("GE D updates = %d, want n³", got)
	}
}

func TestUpdatesMatchesCountedLoop(t *testing.T) {
	// Property: Updates must equal the number of Apply calls Loop makes.
	for _, rule := range rules() {
		for _, kind := range []semiring.Kind{semiring.KindA, semiring.KindB, semiring.KindC, semiring.KindD} {
			n := 9
			count := int64(0)
			counter := countingRule{Rule: rule, n: &count}
			tl := matrix.NewTile(n)
			for i := 0; i < n; i++ {
				tl.Set(i, i, rule.PadDiag())
			}
			v := tl.View()
			Loop(counter, kind, v, v, v, v)
			if want := Updates(rule, kind, n); count != want {
				t.Fatalf("%s %v: loop made %d updates, formula says %d", rule.Name(), kind, count, want)
			}
		}
	}
}

// countingRule wraps a rule, counting Apply invocations.
type countingRule struct {
	semiring.Rule
	n *int64
}

func (c countingRule) Apply(x, u, v, w float64) float64 {
	*c.n++
	return c.Rule.Apply(x, u, v, w)
}

func TestPoolParallel(t *testing.T) {
	p := NewPool(3)
	if p.Threads() != 3 {
		t.Fatalf("Threads = %d", p.Threads())
	}
	var nilPool *Pool
	if nilPool.Threads() != 1 {
		t.Fatal("nil pool must report 1 thread")
	}
	ran := make([]bool, 20)
	fns := make([]func(bool), 20)
	for i := range fns {
		i := i
		fns[i] = func(bool) { ran[i] = true }
	}
	p.parallel(false, fns)
	for i, r := range ran {
		if !r {
			t.Fatalf("fn %d did not run", i)
		}
	}
	// Serial path.
	count := 0
	nilPool.parallel(false, []func(bool){func(bool) { count++ }, func(bool) { count++ }})
	if count != 2 {
		t.Fatal("nil pool parallel must run serially")
	}
	if NewPool(0).Threads() != 1 {
		t.Fatal("NewPool clamps to 1")
	}
}

func TestNewRecursiveValidation(t *testing.T) {
	for _, bad := range []func(){
		func() { NewRecursive(semiring.NewGaussian(), 1, 4, nil) },
		func() { NewRecursive(semiring.NewGaussian(), 2, 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			bad()
		}()
	}
}

func TestNormalizePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewIterative(semiring.NewGaussian()).Apply(semiring.KindD,
		matrix.NewTile(4), matrix.NewTile(5), matrix.NewTile(4), matrix.NewTile(4))
}

func TestExecNames(t *testing.T) {
	if NewIterative(semiring.NewGaussian()).Name() != "iterative" {
		t.Fatal("iterative name")
	}
	name := NewRecursiveExec(semiring.NewGaussian(), 4, 64, 8).Name()
	if name != "recursive(r=4,base=64,threads=8)" {
		t.Fatalf("recursive name = %q", name)
	}
}
