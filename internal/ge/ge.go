// Package ge solves dense linear systems by Gaussian elimination without
// pivoting — the paper's linear-algebra benchmark. Forward elimination is
// the GEP computation executed on the distributed framework; back
// substitution, LU extraction and residual checks run at the driver.
//
// As in the paper (§IV), the system of m equations is represented by an
// n×n DP table with n = m+1: row p holds the coefficients of equation p
// and its right-hand side in the last column. Elimination without
// pivoting is numerically safe for diagonally dominant or symmetric
// positive-definite matrices, the class the paper targets.
package ge

import (
	"fmt"
	"math"

	"dpspark/internal/core"
	"dpspark/internal/matrix"
	"dpspark/internal/rdd"
	"dpspark/internal/semiring"
)

// Solver configures GE runs.
type Solver struct {
	// Config is the GEP execution configuration; Rule defaults to the
	// Gaussian elimination rule when nil.
	Config core.Config
}

// New returns a solver with the given execution configuration.
func New(cfg core.Config) *Solver {
	if cfg.Rule == nil {
		cfg.Rule = semiring.NewGaussian()
	}
	return &Solver{Config: cfg}
}

// Augment packs A (m×m) and b (length m) into the (m+1)×(m+1) GEP table.
// The final slack row is inert padding (zero coefficients, unit pivot).
func Augment(a *matrix.Dense, b []float64) (*matrix.Dense, error) {
	m := a.N
	if len(b) != m {
		return nil, fmt.Errorf("ge: rhs length %d != %d unknowns", len(b), m)
	}
	t := matrix.NewDense(m + 1)
	for i := 0; i < m; i++ {
		copy(t.Data[i*(m+1):i*(m+1)+m], a.Data[i*m:(i+1)*m])
		t.Set(i, m, b[i])
	}
	t.Set(m, m, 1)
	return t, nil
}

// Eliminate runs distributed forward elimination on an n×n GEP table,
// returning the eliminated table (upper triangle + untouched multipliers).
func (s *Solver) Eliminate(ctx *rdd.Context, x *matrix.Dense) (*matrix.Dense, *core.Stats, error) {
	cfg := s.Config
	if cfg.BlockSize < 1 {
		return nil, nil, fmt.Errorf("ge: BlockSize must be set")
	}
	bl := matrix.Block(x, cfg.BlockSize, cfg.Rule.Pad(), cfg.Rule.PadDiag())
	out, stats, err := core.Run(ctx, bl, cfg)
	if err != nil {
		return nil, stats, err
	}
	return out.ToDense(), stats, nil
}

// EliminateSymbolic prices an n×n elimination on the configured cluster
// without computing (model mode).
func (s *Solver) EliminateSymbolic(ctx *rdd.Context, n int) (*core.Stats, error) {
	bl := matrix.NewSymbolicBlocked(n, s.Config.BlockSize)
	_, stats, err := core.Run(ctx, bl, s.Config)
	return stats, err
}

// Solve solves A·x = b for diagonally dominant or SPD A.
func (s *Solver) Solve(ctx *rdd.Context, a *matrix.Dense, b []float64) ([]float64, *core.Stats, error) {
	t, err := Augment(a, b)
	if err != nil {
		return nil, nil, err
	}
	elim, stats, err := s.Eliminate(ctx, t)
	if err != nil {
		return nil, stats, err
	}
	x, err := BackSubstitute(elim)
	return x, stats, err
}

// BackSubstitute extracts the solution from an eliminated augmented
// table: x[i] = (rhs[i] − Σ_{j>i} U[i,j]·x[j]) / U[i,i].
func BackSubstitute(t *matrix.Dense) ([]float64, error) {
	m := t.N - 1
	if m < 1 {
		return nil, fmt.Errorf("ge: table too small (%d)", t.N)
	}
	x := make([]float64, m)
	for i := m - 1; i >= 0; i-- {
		row := t.Data[i*t.N : (i+1)*t.N]
		sum := row[m]
		for j, xj := range x[i+1:] {
			sum -= row[i+1+j] * xj
		}
		piv := row[i]
		if piv == 0 || math.IsNaN(piv) {
			return nil, fmt.Errorf("ge: zero pivot at row %d (matrix not GE-safe without pivoting)", i)
		}
		x[i] = sum / piv
	}
	return x, nil
}

// LU extracts the factors from an eliminated table (the paper: GE also
// yields the LU decomposition). U is the upper triangle with the pivots;
// L is unit lower triangular with L[i,k] = X[i,k]/X[k,k] — the GEP update
// leaves the multipliers' numerators in the strictly-lower part.
func LU(t *matrix.Dense) (l, u *matrix.Dense) {
	n := t.N
	l = matrix.NewDense(n)
	u = matrix.NewDense(n)
	for i := 0; i < n; i++ {
		l.Set(i, i, 1)
		for j := 0; j < n; j++ {
			switch {
			case j >= i:
				u.Set(i, j, t.At(i, j))
			default:
				l.Set(i, j, t.At(i, j)/t.At(j, j))
			}
		}
	}
	return l, u
}

// Residual returns max_i |A·x − b|_i, the solution quality metric the
// tests assert on.
func Residual(a *matrix.Dense, x, b []float64) float64 {
	var worst float64
	for i := 0; i < a.N; i++ {
		sum := -b[i]
		for j := 0; j < a.N; j++ {
			sum += a.At(i, j) * x[j]
		}
		if r := math.Abs(sum); r > worst {
			worst = r
		}
	}
	return worst
}

// MatMul returns l·u (dense, O(n³)) for factor verification in tests.
func MatMul(a, b *matrix.Dense) *matrix.Dense {
	n := a.N
	out := matrix.NewDense(n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := a.At(i, k)
			if aik == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out.Data[i*n+j] += aik * b.At(k, j)
			}
		}
	}
	return out
}
