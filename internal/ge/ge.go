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
	if err := checkRHS(a, b); err != nil {
		return nil, err
	}
	n := a.N + 1
	t := matrix.NewDense(n)
	for i := 0; i < n; i++ {
		augmentedRow(a, b, i, t.Data[i*n:(i+1)*n])
	}
	return t, nil
}

// checkRHS rejects a right-hand side whose length is not A's order.
func checkRHS(a *matrix.Dense, b []float64) error {
	if len(b) != a.N {
		return fmt.Errorf("ge: rhs length %d != %d unknowns", len(b), a.N)
	}
	return nil
}

// augmentedRow writes row i of Augment's table into row (length m+1)
// and returns it.
func augmentedRow(a *matrix.Dense, b []float64, i int, row []float64) []float64 {
	m := a.N
	if i < m {
		copy(row, a.Data[i*m:(i+1)*m])
		row[m] = b[i]
		return row
	}
	clear(row[:m])
	row[m] = 1
	return row
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

// Solve solves A·x = b for diagonally dominant or SPD A: Augment,
// Eliminate and BackSubstitute bit for bit, on tiles built from (A, b)
// and read in place.
func (s *Solver) Solve(ctx *rdd.Context, a *matrix.Dense, b []float64) ([]float64, *core.Stats, error) {
	if err := checkRHS(a, b); err != nil {
		return nil, nil, err
	}
	cfg := s.Config
	if cfg.BlockSize < 1 {
		return nil, nil, fmt.Errorf("ge: BlockSize must be set")
	}
	bl := matrix.BlockRows(a.N+1, cfg.BlockSize, cfg.Rule.Pad(), cfg.Rule.PadDiag(),
		func(i int, row []float64) []float64 { return augmentedRow(a, b, i, row) })
	out, stats, err := core.Run(ctx, bl, cfg)
	if err != nil {
		return nil, stats, err
	}
	x, err := backSubstitute(out.N, out.RowRun)
	return x, stats, err
}

// BackSubstitute extracts the solution from an eliminated augmented
// table: x[i] = (rhs[i] − Σ_{j>i} U[i,j]·x[j]) / U[i,i].
func BackSubstitute(t *matrix.Dense) ([]float64, error) {
	return backSubstitute(t.N, func(i, j int) []float64 { return t.Data[i*t.N+j : (i+1)*t.N] })
}

// backSubstitute is BackSubstitute on an n×n table read through run(i,
// j), which returns a non-empty run of row i from column j on (the rest
// of the row, or of its tile). The sum takes j ascending either way.
func backSubstitute(n int, run func(i, j int) []float64) ([]float64, error) {
	m := n - 1
	if m < 1 {
		return nil, fmt.Errorf("ge: table too small (%d)", n)
	}
	x := make([]float64, m)
	for i := m - 1; i >= 0; i-- {
		sum := run(i, m)[0]
		for j := i + 1; j < m; {
			r := run(i, j)
			r = r[:min(len(r), m-j)]
			for k, v := range r {
				sum -= v * x[j+k]
			}
			j += len(r)
		}
		piv := run(i, i)[0]
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
