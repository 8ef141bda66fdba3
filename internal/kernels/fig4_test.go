package kernels

import (
	"fmt"
	"math/rand"
	"testing"

	"dpspark/internal/matrix"
	"dpspark/internal/semiring"
)

func fwAndGE() []semiring.Rule {
	return []semiring.Rule{semiring.NewFloydWarshall(), semiring.NewGaussian()}
}

// Sub-tile addresses in the four operand spaces.
func xa(i, j int) Addr { return Addr{Op: OpX, I: i, J: j} }
func ua(i, j int) Addr { return Addr{Op: OpU, I: i, J: j} }
func va(i, j int) Addr { return Addr{Op: OpV, I: i, J: j} }
func wa(i, j int) Addr { return Addr{Op: OpW, I: i, J: j} }

func TestParametricShapes(t *testing.T) {
	fw := semiring.NewFloydWarshall()
	ge := semiring.NewGaussian()

	// FW at r=2: 6 stages (A, panel, interior per iteration).
	if s := Fig4(fw, semiring.KindA, 2); len(s) != 6 {
		t.Fatalf("FW A r=2 stages = %d\n%s", len(s), s)
	}
	// GE at r=2: iteration k=1 has no panel/interior → 4 stages.
	if s := Fig4(ge, semiring.KindA, 2); len(s) != 4 {
		t.Fatalf("GE A r=2 stages = %d\n%s", len(s), s)
	}
	// Call counts: FW touches all r² tiles per iteration.
	if got := len(Fig4(fw, semiring.KindA, 4).Calls()); got != 4*16 {
		t.Fatalf("FW A r=4 calls = %d", got)
	}
	// D at any r: r³ calls in r stages.
	s := Fig4(fw, semiring.KindD, 4)
	if len(s.Calls()) != 64 || len(s) != 4 {
		t.Fatalf("FW D r=4: %d calls in %d stages", len(s.Calls()), len(s))
	}
}

func TestParametricValidates(t *testing.T) {
	for _, rule := range fwAndGE() {
		for _, kind := range allKinds {
			for _, r := range []int{2, 3, 4, 8} {
				if err := Fig4(rule, kind, r).Validate(); err != nil {
					t.Fatalf("%s %v r=%d: %v", rule.Name(), kind, r, err)
				}
			}
		}
	}
}

// TestDeriveMatchesParametricGE is §IV-A's punchline for the paper's
// running example: inlining the 2-way GE algorithm and re-scheduling
// under the stated dependency rules gives exactly the kind-A schedule a
// Recursive kernel of fan-out 2ᵗ executes — at r = 4 (Fig. 3's
// refinement) and at r = 8.
func TestDeriveMatchesParametricGE(t *testing.T) {
	rule := semiring.NewGaussian()
	for _, tc := range []struct{ levels, r int }{{1, 2}, {2, 4}, {3, 8}} {
		derived := Derive(rule, tc.levels)
		runs := NewRecursive(rule, tc.r, 1, nil).schedule(semiring.KindA)
		if derived.GridDim() != tc.r {
			t.Fatalf("t=%d: grid %d, want %d", tc.levels, derived.GridDim(), tc.r)
		}
		if !derived.Equal(runs) {
			t.Fatalf("t=%d: derived schedule differs from the r=%d kernel's\nderived:\n%skernel:\n%s",
				tc.levels, tc.r, derived, runs)
		}
	}
}

// TestDeriveFWConservative: Floyd-Warshall rewrites every tile in every
// iteration, so the conservative rules (which preserve read-before-write
// order) cannot compact the inlined program to Fig. 4's three stages per
// iteration — compaction needs the semiring-algebraic reorderings of the
// prior-work derivations [34–36]. The derived schedule is nevertheless a
// valid, semantically correct r-way algorithm; this test pins its shape.
func TestDeriveFWConservative(t *testing.T) {
	rule := semiring.NewFloydWarshall()
	derived := Derive(rule, 2)
	if derived.GridDim() != 4 {
		t.Fatalf("grid = %d", derived.GridDim())
	}
	if err := derived.Validate(); err != nil {
		t.Fatal(err)
	}
	param := Fig4(rule, semiring.KindA, 4)
	if len(derived) <= len(param) {
		t.Fatalf("conservative FW derivation should be deeper than Fig. 4: %d vs %d",
			len(derived), len(param))
	}
	if len(derived.Calls()) != len(param.Calls()) {
		t.Fatalf("derivation changed the call count: %d vs %d",
			len(derived.Calls()), len(param.Calls()))
	}
}

// TestInlinePreservesWork: refinement never changes the total number of
// element updates.
func TestInlinePreservesWork(t *testing.T) {
	for _, rule := range fwAndGE() {
		base := Fig4(rule, semiring.KindA, 2)
		refined := InlineOnce(rule, base)
		// base on 2×2 grid of 2b-tiles ≡ refined on 4×4 grid of b-tiles.
		b := 8
		if w0, w1 := WorkCount(base, rule, 2*b), WorkCount(refined, rule, b); w0 != w1 {
			t.Fatalf("%s: work changed under refinement: %d → %d", rule.Name(), w0, w1)
		}
	}
}

// TestScheduleGreedyRespectsDependencies via a hand-built program:
// two writes to the same tile must serialize; independent writes must
// coalesce into one stage.
func TestScheduleGreedyRespectsDependencies(t *testing.T) {
	a := Call{Kind: semiring.KindA, X: xa(0, 0), U: xa(0, 0), V: xa(0, 0), W: xa(0, 0)}
	bSame := Call{Kind: semiring.KindB, X: xa(0, 1), U: xa(0, 0), V: xa(0, 1), W: xa(0, 0)} // reads A's output
	cInd := Call{Kind: semiring.KindC, X: xa(1, 0), U: xa(1, 0), V: xa(0, 0), W: xa(0, 0)}  // also reads A's output
	dup := Call{Kind: semiring.KindD, X: xa(0, 1), U: xa(1, 0), V: xa(0, 1), W: xa(0, 0)}   // writes B's tile

	s := ScheduleGreedy([]Call{a, bSame, cInd, dup})
	if len(s) != 3 {
		t.Fatalf("stages = %d\n%s", len(s), s)
	}
	if len(s[1]) != 2 {
		t.Fatalf("B and C must share a stage:\n%s", s)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// execute runs a kind-A schedule (every operand an X sub-tile) on a
// blocked DP table, one table tile per sub-tile, with the given kernel
// implementation — the symbolic derivation made concrete. Panics on
// non-X operands.
func execute(s Schedule, bl *matrix.Blocked, exec Exec) {
	tile := func(a Addr) *matrix.Tile {
		if a.Op != OpX {
			panic(fmt.Sprintf("execute requires X-space sub-tiles, got %v", a))
		}
		return bl.Tile(matrix.Coord{I: a.I, J: a.J})
	}
	// Stage members are independent; running a stage's calls one after
	// another is a valid schedule.
	for _, c := range s.Calls() {
		exec.Apply(c.Kind, tile(c.X), tile(c.U), tile(c.V), tile(c.W))
	}
}

// TestExecuteDerivedSchedules: running any derived schedule with loop
// kernels reproduces the reference GEP semantics.
func TestExecuteDerivedSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, rule := range fwAndGE() {
		for levels := 1; levels <= 3; levels++ {
			b := 4
			n := (1 << levels) * b
			in := randomInput(rule, n, rng)
			want := reference(rule, in)
			bl := matrix.Block(in, b, rule.Pad(), rule.PadDiag())
			execute(Derive(rule, levels), bl, NewIterative(rule))
			tol := 0.0
			if _, ok := rule.(semiring.GaussianRule); ok {
				tol = 1e-8
			}
			if diff := bl.ToDense().MaxAbsDiff(want); diff > tol {
				t.Fatalf("%s t=%d: executed derivation differs by %v", rule.Name(), levels, diff)
			}
		}
	}
}

// TestParallelismGrows: refinement increases exploitable parallelism
// (the reason §IV-A derives wider fan-outs).
func TestParallelismGrows(t *testing.T) {
	rule := semiring.NewFloydWarshall()
	avg2, max2 := Derive(rule, 1).Parallelism()
	avg4, max4 := Derive(rule, 2).Parallelism()
	if !(avg4 > avg2 && max4 > max2) {
		t.Fatalf("parallelism must grow: avg %.2f→%.2f max %d→%d", avg2, avg4, max2, max4)
	}
}

func TestExecutePanicsOnNonX(t *testing.T) {
	s := Schedule{{{Kind: semiring.KindD, X: xa(0, 0), U: ua(0, 0), V: va(0, 0), W: wa(0, 0)}}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-X operand")
		}
	}()
	execute(s, matrix.NewBlocked(4, 4), NewIterative(semiring.NewFloydWarshall()))
}

func TestTileAndCallStrings(t *testing.T) {
	c := Call{Kind: semiring.KindD, X: xa(1, 2), U: ua(1, 0), V: va(0, 2), W: wa(0, 0)}
	want := "D[X(1,2) u=U(1,0) v=V(0,2) w=W(0,0)]"
	if c.String() != want {
		t.Fatalf("call string = %q", c.String())
	}
}
