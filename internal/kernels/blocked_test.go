package kernels

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"dpspark/internal/matrix"
	"dpspark/internal/semiring"
)

// randomOperandTile builds a tile of small positive values with the
// rule's diagonal identity, so GE pivots stay well away from zero.
func randomOperandTile(rule semiring.Rule, n int, rng *rand.Rand) *matrix.Tile {
	tl := matrix.NewTile(n)
	for i := range tl.Data {
		tl.Data[i] = 1 + math.Floor(rng.Float64()*5)
	}
	for i := 0; i < n; i++ {
		tl.Set(i, i, rule.PadDiag())
	}
	return tl
}

// TestLoopBlockedMatchesGeneric: the cache-blocked fast paths must agree
// with the generic interface-dispatch loop across odd and non-power-of-two
// sizes (exercising the unroll remainder and partial k/j blocks), all
// four kernel kinds and both benchmark rules.
func TestLoopBlockedMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(207))
	for _, rule := range []semiring.Rule{semiring.NewFloydWarshall(), semiring.NewGaussian()} {
		for _, n := range []int{1, 3, 17, 33, 47, 66, 101} {
			for _, kind := range []semiring.Kind{semiring.KindA, semiring.KindB, semiring.KindC, semiring.KindD} {
				x0 := randomOperandTile(rule, n, rng)
				u, v, w := randomOperandTile(rule, n, rng), randomOperandTile(rule, n, rng), randomOperandTile(rule, n, rng)
				wire := func(tile *matrix.Tile) (a, b, c matrix.View) {
					switch kind {
					case semiring.KindA:
						return tile.View(), tile.View(), tile.View()
					case semiring.KindB:
						return u.View(), tile.View(), w.View()
					case semiring.KindC:
						return tile.View(), v.View(), w.View()
					default:
						return u.View(), v.View(), w.View()
					}
				}
				fast := x0.Clone()
				fu, fv, fw := wire(fast)
				Loop(rule, kind, fast.View(), fu, fv, fw)
				slow := x0.Clone()
				su, sv, sw := wire(slow)
				Loop(genericRule{rule}, kind, slow.View(), su, sv, sw)
				// GE's fast paths hoist the row multiplier u/w out of the
				// j loop; the reassociation error is relative and grows
				// with n and with the magnitude elimination pumps into
				// the trailing entries.
				tol := 1e-10 * float64(n)
				for i := range fast.Data {
					rel := math.Abs(fast.Data[i]-slow.Data[i]) /
						math.Max(1, math.Abs(slow.Data[i]))
					if rel > tol &&
						!(math.IsInf(fast.Data[i], 1) && math.IsInf(slow.Data[i], 1)) {
						t.Fatalf("%s %v n=%d: blocked path diverges at %d: %v vs %v",
							rule.Name(), kind, n, i, fast.Data[i], slow.Data[i])
					}
				}
			}
		}
	}
}

// TestLoopBlockedMinPlusBitIdentical: min is exact, so the blocked
// min-plus path must match the ordered kij loop bit for bit on the
// unaliased D shape (this is what keeps distributed DP results identical
// to the pre-blocking engine).
func TestLoopBlockedMinPlusBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(208))
	rule := semiring.NewFloydWarshall()
	for _, n := range []int{5, 37, 129} {
		x0 := randomOperandTile(rule, n, rng)
		u, v := randomOperandTile(rule, n, rng), randomOperandTile(rule, n, rng)
		blocked := x0.Clone()
		minPlusBand(blocked.View(), u.View(), v.View(), 0, n)
		ordered := x0.Clone()
		ov := ordered.View()
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				uik := u.At(i, k)
				for j := 0; j < n; j++ {
					if t := uik + v.At(k, j); t < ov.At(i, j) {
						ov.Set(i, j, t)
					}
				}
			}
		}
		for i := range blocked.Data {
			if blocked.Data[i] != ordered.Data[i] {
				t.Fatalf("n=%d: blocked min-plus not bit-identical at %d: %v vs %v",
					n, i, blocked.Data[i], ordered.Data[i])
			}
		}
	}
}

// TestTilePoolUnderParallelKernels (run with -race): many goroutines
// clone pooled tiles, run the recursive kernels' Pool.parallel fan-out on
// them, verify the result against a serially computed reference and
// release the slabs back for the next goroutine to reuse.
func TestTilePoolUnderParallelKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(209))
	rule := semiring.NewFloydWarshall()
	const n = 64
	x0 := randomOperandTile(rule, n, rng)
	u, v := randomOperandTile(rule, n, rng), randomOperandTile(rule, n, rng)

	want := x0.Clone()
	NewIterative(rule).Apply(semiring.KindD, want, u, v, nil)

	pool := matrix.NewTilePool()
	exec := NewRecursiveExec(rule, 2, 8, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				x := pool.Clone(x0)
				exec.Apply(semiring.KindD, x, u, v, nil)
				for i := range x.Data {
					if x.Data[i] != want.Data[i] {
						t.Errorf("pooled parallel kernel diverges at %d", i)
						return
					}
				}
				pool.Release(x)
			}
		}()
	}
	wg.Wait()
}
