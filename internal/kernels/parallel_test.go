package kernels

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"dpspark/internal/matrix"
	"dpspark/internal/semiring"
)

// TestParallelBlockedMatchesGeneric: the row-band parallel split must be
// bit-identical to the serial fast path and agree with the generic
// interface-dispatch loop, across odd tile sizes (including b not
// divisible by the band/unroll width), thread counts wider than the tile
// and all the rules the engine runs. This is the parallel counterpart of
// TestLoopBlockedMatchesGeneric.
func TestParallelBlockedMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	rules := []semiring.Rule{
		semiring.NewFloydWarshall(),
		semiring.NewGaussian(),
		semiring.NewTransitiveClosure(), // exercises the generic band
	}
	for _, rule := range rules {
		for _, n := range []int{1, 3, 7, 13, 31, 33, 63, 64, 65, 96, 100, 127, 129} {
			x0 := randomOperandTile(rule, n, rng)
			u := randomOperandTile(rule, n, rng)
			v := randomOperandTile(rule, n, rng)
			w := randomOperandTile(rule, n, rng)

			serial := x0.Clone()
			Loop(rule, semiring.KindD, serial.View(), u.View(), v.View(), w.View())

			generic := x0.Clone()
			Loop(genericRule{rule}, semiring.KindD, generic.View(), u.View(), v.View(), w.View())

			for _, threads := range []int{1, 2, 3, 4, 8} {
				pool := NewPool(threads)
				par := x0.Clone()
				LoopPool(pool, rule, semiring.KindD, par.View(), u.View(), v.View(), w.View())

				for i := range par.Data {
					if math.Float64bits(par.Data[i]) != math.Float64bits(serial.Data[i]) {
						t.Fatalf("%s n=%d threads=%d: parallel diverges from serial at %d: %v vs %v",
							rule.Name(), n, threads, i, par.Data[i], serial.Data[i])
					}
				}
				tol := 1e-10 * float64(n)
				for i := range par.Data {
					rel := math.Abs(par.Data[i]-generic.Data[i]) /
						math.Max(1, math.Abs(generic.Data[i]))
					if rel > tol &&
						!(math.IsInf(par.Data[i], 1) && math.IsInf(generic.Data[i], 1)) {
						t.Fatalf("%s n=%d threads=%d: parallel diverges from generic at %d: %v vs %v",
							rule.Name(), n, threads, i, par.Data[i], generic.Data[i])
					}
				}
			}
		}
	}
}

// TestLoopPoolAliasedStaysSerial: shapes whose operands alias x (kinds A,
// B, C as the engine wires them) keep the ordered kernel — vectorised
// along rows, but never split across workers: a wide pool must leave the
// result bit-identical to Loop's and must not be asked for a worker.
func TestLoopPoolAliasedStaysSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	for _, rule := range []semiring.Rule{semiring.NewFloydWarshall(), semiring.NewGaussian()} {
		n := 96
		pool := NewPool(4)
		for _, kind := range []semiring.Kind{semiring.KindA, semiring.KindB, semiring.KindC} {
			x0 := randomOperandTile(rule, n, rng)
			u := randomOperandTile(rule, n, rng)
			v := randomOperandTile(rule, n, rng)
			w := randomOperandTile(rule, n, rng)
			wire := func(tile *matrix.Tile) (a, b, c matrix.View) {
				switch kind {
				case semiring.KindA:
					return tile.View(), tile.View(), tile.View()
				case semiring.KindB:
					return u.View(), tile.View(), w.View()
				default:
					return tile.View(), v.View(), w.View()
				}
			}
			serial := x0.Clone()
			su, sv, sw := wire(serial)
			Loop(rule, kind, serial.View(), su, sv, sw)
			par := x0.Clone()
			pu, pv, pw := wire(par)
			LoopPool(pool, rule, kind, par.View(), pu, pv, pw)
			for i := range par.Data {
				if math.Float64bits(par.Data[i]) != math.Float64bits(serial.Data[i]) {
					t.Fatalf("%s kind %v: pooled aliased kernel diverges at %d", rule.Name(), kind, i)
				}
			}
		}
		spawned, _, _ := pool.Stats()
		if spawned != 0 {
			t.Fatalf("%s: aliased kernels spawned %d workers, want 0", rule.Name(), spawned)
		}
	}
}

// TestAliasedPivotParallel: pivot-ignoring rules reach the kernels with
// w wired back to x (their kind D carries no pivot tile, so
// Exec.normalize aliases the omitted operand). The parallel paths must
// never LOAD the aliased w[k,k] — a sibling quadrant writes it
// concurrently — and must still match the serial result bit for bit.
// Run under -race this is the regression test for the recursive
// interior-group race on the aliased pivot quadrant.
func TestAliasedPivotParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	rule := semiring.NewTransitiveClosure() // generic (non-min-plus) path
	for _, n := range []int{64, 96} {
		x0 := randomOperandTile(rule, n, rng)
		u := randomOperandTile(rule, n, rng)
		v := randomOperandTile(rule, n, rng)

		serial := x0.Clone()
		Loop(rule, semiring.KindD, serial.View(), u.View(), v.View(), serial.View())

		// Recursive kernels share one pool across the par_for groups —
		// the engine shape that raced before pivot loads were gated.
		rec := x0.Clone()
		NewRecursive(rule, 2, 16, NewPool(4)).Run(
			semiring.KindD, rec.View(), u.View(), v.View(), rec.View())
		for i := range rec.Data {
			if math.Float64bits(rec.Data[i]) != math.Float64bits(serial.Data[i]) {
				t.Fatalf("n=%d: recursive aliased-pivot kernel diverges at %d", n, i)
			}
		}

		// The banded iterative path now splits this shape too (w is not
		// read, so the aliased pivot no longer forces serial).
		pool := NewPool(4)
		band := x0.Clone()
		LoopPool(pool, rule, semiring.KindD, band.View(), u.View(), v.View(), band.View())
		for i := range band.Data {
			if math.Float64bits(band.Data[i]) != math.Float64bits(serial.Data[i]) {
				t.Fatalf("n=%d: banded aliased-pivot kernel diverges at %d", n, i)
			}
		}
		if spawned, inlined, _ := pool.Stats(); spawned+inlined == 0 {
			t.Fatalf("n=%d: aliased-pivot band split never consulted the pool", n)
		}
	}
}

// TestPoolWidthOneNeverSpawns is the threads=1 deep-recursion regression
// for the token hand-off fix: a width-1 pool has no spare tokens, so a
// deep r-way recursion must run entirely on the caller — zero goroutines,
// no possibility of deadlock — and still produce the serial result.
func TestPoolWidthOneNeverSpawns(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	rule := semiring.NewFloydWarshall()
	n := 256
	x0 := randomOperandTile(rule, n, rng)
	u, v := randomOperandTile(rule, n, rng), randomOperandTile(rule, n, rng)

	want := x0.Clone()
	Loop(rule, semiring.KindD, want.View(), u.View(), v.View(), v.View())

	pool := NewPool(1)
	rec := NewRecursive(rule, 2, 4, pool) // depth ~6, stage width up to 4
	got := x0.Clone()
	rec.Run(semiring.KindD, got.View(), u.View(), v.View(), v.View())

	spawned, inlined, handoffs := pool.Stats()
	if spawned != 0 || handoffs != 0 {
		t.Fatalf("width-1 pool: spawned=%d handoffs=%d, want 0/0", spawned, handoffs)
	}
	if inlined == 0 {
		t.Fatal("width-1 pool: expected inlined branches in a deep recursion")
	}
	for i := range got.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("width-1 pooled recursion diverges at %d", i)
		}
	}
}

// TestPoolTokenHandoff forces the hand-off deterministically: with width
// 3 (two spare tokens) a spawned worker that spawns a child of its own
// must donate its token at the barrier while the child still runs, and
// take one back afterwards.
func TestPoolTokenHandoff(t *testing.T) {
	p := NewPool(3)
	aGate := make(chan struct{})
	dGate := make(chan struct{})

	// Closer: wait until the hand-off happened, then release everyone.
	go func() {
		deadline := time.After(10 * time.Second)
		for {
			if _, _, h := p.Stats(); h >= 1 {
				break
			}
			select {
			case <-deadline:
				// Let the test fail on the counter check instead of hanging.
				close(dGate)
				close(aGate)
				return
			case <-time.After(time.Millisecond):
			}
		}
		close(dGate)
		close(aGate)
	}()

	p.parallel(false, []func(bool){
		func(bool) { <-aGate }, // keeps the caller busy below
		func(held bool) { // spawned: holds spare token 1
			if !held {
				t.Error("second branch should have been spawned with a token")
			}
			p.parallel(held, []func(bool){
				func(bool) {},          // inline on the worker
				func(bool) { <-dGate }, // spawned: holds spare token 2
			})
		},
	})

	spawned, _, handoffs := p.Stats()
	if spawned != 2 {
		t.Fatalf("spawned = %d, want 2", spawned)
	}
	if handoffs != 1 {
		t.Fatalf("handoffs = %d, want 1 (worker must donate its token at the barrier)", handoffs)
	}
}

// TestPoolSharedAcrossTasks: many goroutines hammering one pool (the
// per-node sharing the engine does) must stay correct and never exceed
// the width bound in spawned workers at a time; run with -race this also
// checks the counters and hand-off for data races.
func TestPoolSharedAcrossTasks(t *testing.T) {
	rng := rand.New(rand.NewSource(305))
	rule := semiring.NewFloydWarshall()
	const n = 64
	x0 := randomOperandTile(rule, n, rng)
	u, v := randomOperandTile(rule, n, rng), randomOperandTile(rule, n, rng)
	want := x0.Clone()
	Loop(rule, semiring.KindD, want.View(), u.View(), v.View(), v.View())

	pool := NewPool(4)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for iter := 0; iter < 10; iter++ {
				got := x0.Clone()
				LoopPool(pool, rule, semiring.KindD, got.View(), u.View(), v.View(), v.View())
				for i := range got.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
						done <- errSharedDiverge
						return
					}
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errSharedDiverge = errShared("shared-pool kernel diverged from serial result")

type errShared string

func (e errShared) Error() string { return string(e) }

// TestLoopPoolMinPlusIgnoresW is the regression for the engine's FW kind
// D shape: min-plus carries no pivot operand, so Exec.normalize wires w
// back to x. The band split must not mistake that for real aliasing —
// min-plus never reads w — and still run parallel, bit-identical.
func TestLoopPoolMinPlusIgnoresW(t *testing.T) {
	rng := rand.New(rand.NewSource(306))
	rule := semiring.NewFloydWarshall()
	n := 96
	x0 := randomOperandTile(rule, n, rng)
	u, v := randomOperandTile(rule, n, rng), randomOperandTile(rule, n, rng)

	serial := x0.Clone()
	Loop(rule, semiring.KindD, serial.View(), u.View(), v.View(), serial.View())

	pool := NewPool(4)
	par := x0.Clone()
	LoopPool(pool, rule, semiring.KindD, par.View(), u.View(), v.View(), par.View())

	if spawned, inlined, _ := pool.Stats(); spawned+inlined == 0 {
		t.Fatal("w-aliased min-plus must still take the parallel band split")
	}
	for i := range par.Data {
		if math.Float64bits(par.Data[i]) != math.Float64bits(serial.Data[i]) {
			t.Fatalf("diverges from serial at %d", i)
		}
	}
}
