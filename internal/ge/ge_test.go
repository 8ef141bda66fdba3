package ge

import (
	"math"
	"math/rand"
	"testing"

	"dpspark/internal/cluster"
	"dpspark/internal/core"
	"dpspark/internal/matrix"
	"dpspark/internal/rdd"
	"dpspark/internal/semiring"
)

func newCtx() *rdd.Context {
	return rdd.NewContext(rdd.Conf{Cluster: cluster.Local(4)})
}

func system(m int, rng *rand.Rand) (*matrix.Dense, []float64) {
	a := matrix.NewDense(m)
	a.FillDiagonallyDominant(rng)
	b := make([]float64, m)
	for i := range b {
		b[i] = rng.NormFloat64() * 10
	}
	return a, b
}

func TestSolveResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, cfg := range []core.Config{
		{BlockSize: 8, Driver: core.CB},
		{BlockSize: 6, Driver: core.IM},
		{BlockSize: 8, Driver: core.CB, RecursiveKernel: true, RShared: 2, Base: 4, Threads: 2},
	} {
		a, b := system(23, rng)
		x, stats, err := New(cfg).Solve(newCtx(), a, b)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Time <= 0 {
			t.Fatal("no virtual time")
		}
		if r := Residual(a, x, b); r > 1e-6 {
			t.Fatalf("residual %v too large (driver %v)", r, cfg.Driver)
		}
	}
}

func TestSolveMatchesReferenceElimination(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a, b := system(16, rng)
	tbl, err := Augment(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := tbl.Clone()
	semiring.GaussianEliminationReference(want.Data, want.N)
	got, _, err := New(core.Config{BlockSize: 5, Driver: core.CB}).Eliminate(newCtx(), tbl)
	if err != nil {
		t.Fatal(err)
	}
	if diff := got.MaxAbsDiff(want); diff > 1e-8 {
		t.Fatalf("elimination diff %v", diff)
	}
}

func TestLUFactors(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := matrix.NewDense(20)
	a.FillDiagonallyDominant(rng)
	elim, _, err := New(core.Config{BlockSize: 5, Driver: core.CB}).Eliminate(newCtx(), a.Clone())
	if err != nil {
		t.Fatal(err)
	}
	l, u := LU(elim)
	// L unit lower triangular, U upper triangular.
	for i := 0; i < a.N; i++ {
		if l.At(i, i) != 1 {
			t.Fatalf("L[%d,%d] = %v", i, i, l.At(i, i))
		}
		for j := i + 1; j < a.N; j++ {
			if l.At(i, j) != 0 {
				t.Fatalf("L upper part nonzero at (%d,%d)", i, j)
			}
			if u.At(j, i) != 0 {
				t.Fatalf("U lower part nonzero at (%d,%d)", j, i)
			}
		}
	}
	if diff := MatMul(l, u).MaxAbsDiff(a); diff > 1e-8*float64(a.N) {
		t.Fatalf("L·U − A diff %v", diff)
	}
}

func TestBackSubstituteKnownSystem(t *testing.T) {
	// 2x + y = 5; y = 1 → x = 2 (already upper triangular).
	tbl := matrix.NewDense(3)
	tbl.Set(0, 0, 2)
	tbl.Set(0, 1, 1)
	tbl.Set(0, 2, 5)
	tbl.Set(1, 1, 1)
	tbl.Set(1, 2, 1)
	tbl.Set(2, 2, 1)
	x, err := BackSubstitute(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Fatalf("x = %v", x)
	}
}

func TestBackSubstituteZeroPivot(t *testing.T) {
	tbl := matrix.NewDense(2) // pivot 0
	if _, err := BackSubstitute(tbl); err == nil {
		t.Fatal("expected zero-pivot error")
	}
	if _, err := BackSubstitute(matrix.NewDense(1)); err == nil {
		t.Fatal("expected too-small error")
	}
}

func TestAugmentValidation(t *testing.T) {
	if _, err := Augment(matrix.NewDense(3), []float64{1}); err == nil {
		t.Fatal("expected rhs length error")
	}
	a := matrix.NewDense(2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 3)
	a.Set(1, 1, 4)
	tbl, err := Augment(a, []float64{5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.N != 3 || tbl.At(0, 2) != 5 || tbl.At(1, 2) != 6 || tbl.At(2, 2) != 1 {
		t.Fatalf("augmented table wrong:\n%v", tbl)
	}
}

func TestMissingBlockSize(t *testing.T) {
	if _, _, err := New(core.Config{}).Eliminate(newCtx(), matrix.NewDense(4)); err == nil {
		t.Fatal("expected BlockSize error")
	}
}
