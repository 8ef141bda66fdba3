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

// TestSharedRecursiveExecUnderParallelKernels (run with -race): many
// goroutines share one recursive exec per rule, run its Pool.parallel
// fan-out on their own clones and check the result against the
// iterative kernel. Min-plus kind B leaves (b = 64 > kBlock) take k-block
// captures and GE kind D takes a multiplier panel, both from the one
// float scratch pool, so its slabs change hands between goroutines.
func TestSharedRecursiveExecUnderParallelKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(209))
	const n = 128
	type job struct {
		exec        Exec
		kind        semiring.Kind
		x0, u, v, w *matrix.Tile
		want        *matrix.Tile
	}
	var jobs []job
	for _, c := range []struct {
		rule semiring.Rule
		kind semiring.Kind
	}{{semiring.NewFloydWarshall(), semiring.KindB}, {semiring.NewGaussian(), semiring.KindD}} {
		x0 := randomOperandTile(c.rule, n, rng)
		u, w := randomOperandTile(c.rule, n, rng), randomOperandTile(c.rule, n, rng)
		v := randomOperandTile(c.rule, n, rng)
		if c.kind == semiring.KindB {
			// Kind B's v is x itself, and its pivot tile u is closed
			// (kind A's output), as in a solve.
			v = nil
			NewIterative(c.rule).Apply(semiring.KindA, u, nil, nil, nil)
		}
		want := x0.Clone()
		NewIterative(c.rule).Apply(c.kind, want, u, v, w)
		jobs = append(jobs, job{NewRecursiveExec(c.rule, 2, 64, 4), c.kind, x0, u, v, w, want})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 10; iter++ {
				j := jobs[(g+iter)%len(jobs)]
				x := j.x0.Clone()
				j.exec.Apply(j.kind, x, j.u, j.v, j.w)
				for i := range x.Data {
					if x.Data[i] != j.want.Data[i] {
						t.Errorf("%s kind %v diverges from the iterative kernel at %d", j.exec.Name(), j.kind, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
