package core

import (
	"dpspark/internal/matrix"
	"dpspark/internal/semiring"
)

// The FilterX predicates of Listings 1–2: they select the blocks each
// kernel stage of iteration k updates. Their shape comes from the loop
// bounds of the top-level function A in Fig. 4 — the Restricted range of
// the update rule (all non-pivot indices for semiring GEP, the trailing
// submatrix for GE).

// filters bundles the four predicates for iteration k of an r×r grid.
type filters struct {
	k int
	// rest[i] reports whether tile index i is in the rule's
	// Restricted(k, r) range.
	rest []bool
}

// newFilters builds iteration k's predicates for an r×r grid.
func newFilters(rule semiring.Rule, k, r int) filters {
	rest := make([]bool, r)
	for _, i := range rule.Restricted(k, r) {
		rest[i] = true
	}
	return filters{k: k, rest: rest}
}

// A selects the pivot block (k,k).
func (f filters) A(c matrix.Coord) bool { return c.I == f.k && c.J == f.k }

// B selects the row-panel blocks (k,j) for participating j.
func (f filters) B(c matrix.Coord) bool { return c.I == f.k && f.rest[c.J] }

// C selects the column-panel blocks (i,k) for participating i.
func (f filters) C(c matrix.Coord) bool { return c.J == f.k && f.rest[c.I] }

// D selects the interior blocks (i,j) for participating i and j.
func (f filters) D(c matrix.Coord) bool { return f.rest[c.I] && f.rest[c.J] }

// Touched reports whether iteration k updates the block at all.
func (f filters) Touched(c matrix.Coord) bool {
	return f.A(c) || f.B(c) || f.C(c) || f.D(c)
}
