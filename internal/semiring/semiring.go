// Package semiring defines the algebraic machinery behind the Gaussian
// Elimination Paradigm (GEP) of Chowdhury & Ramachandran, which the paper
// uses as the common form of its dynamic programs (Fig. 1):
//
//	for k, i, j:  if (i,j,k) ∈ Σ_G:  c[i,j] = f(c[i,j], c[i,k], c[k,j], c[k,k])
//
// Two ingredients are captured here:
//
//   - Semiring: a closed semiring (S, ⊕, ⊙, 0̄, 1̄) as used by path problems
//     (Aho et al.); Floyd-Warshall APSP is GEP over the tropical semiring
//     (ℝ, min, +, +∞, 0), transitive closure over the boolean semiring.
//   - Rule: a GEP update rule — the function f together with the Σ_G
//     iteration-space shape, the virtual-padding elements, and per-kernel
//     loop bounds for the blocked/recursive algorithms (Fig. 4).
//
// Values are float64 throughout; boolean semirings encode false/true as 0/1.
package semiring

import "math"

// Semiring is a closed semiring over float64 values.
type Semiring struct {
	// SName is the semiring's display name.
	SName string
	// Plus is the additive operator ⊕ (e.g. min for tropical).
	Plus func(a, b float64) float64
	// Times is the multiplicative operator ⊙ (e.g. + for tropical).
	Times func(a, b float64) float64
	// Zero is the additive identity 0̄ and multiplicative annihilator.
	Zero float64
	// One is the multiplicative identity 1̄.
	One float64
}

// Name returns the semiring's display name.
func (s Semiring) Name() string { return s.SName }

// MinPlus returns the tropical semiring (ℝ∪{+∞}, min, +, +∞, 0) that
// Floyd-Warshall all-pairs shortest paths computes over.
func MinPlus() Semiring {
	return Semiring{
		SName: "min-plus",
		Plus:  math.Min,
		Times: func(a, b float64) float64 { return a + b },
		Zero:  math.Inf(1),
		One:   0,
	}
}

// MaxMin returns the bottleneck semiring (ℝ∪{±∞}, max, min, -∞, +∞) used
// for maximum-capacity (widest) paths.
func MaxMin() Semiring {
	return Semiring{
		SName: "max-min",
		Plus:  math.Max,
		Times: math.Min,
		Zero:  math.Inf(-1),
		One:   math.Inf(1),
	}
}

// Boolean returns the boolean semiring ({0,1}, ∨, ∧, 0, 1) encoded on
// float64; GEP over it computes transitive closure (Warshall).
func Boolean() Semiring {
	return Semiring{
		SName: "boolean",
		Plus:  math.Max,
		Times: math.Min,
		Zero:  0,
		One:   1,
	}
}

// MaxPlus returns the semiring (ℝ∪{-∞}, max, +, -∞, 0) used for
// longest/critical-path style recurrences on DAG-like inputs.
func MaxPlus() Semiring {
	return Semiring{
		SName: "max-plus",
		Plus:  math.Max,
		Times: func(a, b float64) float64 { return a + b },
		Zero:  math.Inf(-1),
		One:   0,
	}
}
