package kernels

import (
	"fmt"
	"sort"

	"dpspark/internal/semiring"
)

// This file holds the paper's Fig. 4 as data — the r-way recursive
// kernels A, B, C and D as stages of sub-calls on r×r operand grids,
// which Recursive executes — and the first design methodology (§IV-A)
// that derives it: starting from the 2-way R-DP specification (the
// AutoGen/Bellmania output), each refinement step
//
//  1. inlines every recursive call by one level of its 2-way body, and
//  2. re-schedules the resulting calls into the fewest parallel stages
//     that respect the paper's dependency rules (for functions F₁ before
//     F₂ in program order, with W(F) the written subtable and R(F) the
//     read subtables):
//     – W(F₁) ≠ W(F₂) ∧ W(F₁) ∈ R(F₂)  ⇒ F₁ → F₂ (true dependence);
//     – W(F₁) = W(F₂)                   ⇒ ordered, never parallel (the
//     ↔ rule: flexible updates commute but cannot race);
//     – W(F₂) ∈ R(F₁)                   ⇒ F₁ → F₂ (anti-dependence:
//     F₁ must read the old value);
//     – otherwise                        ⇒ F₁ ∥ F₂.
//
// The tests check §IV-A's central claim against the schedule a Recursive
// runs: refining the 2-way GE algorithm t times and re-scheduling yields
// exactly its 2ᵗ-way kind-A schedule.

// Operand tags the DP subtable a symbolic sub-tile belongs to. A kernel
// call's X, U, V and W may live in distinct subtables (for the panel and
// interior kernels); the dependency analysis must never confuse X's
// (0,0) sub-tile with U's.
type Operand uint8

// Operand spaces.
const (
	// OpX is the written (in/out) subtable.
	OpX Operand = iota
	// OpU is the u-panel operand subtable.
	OpU
	// OpV is the v-panel operand subtable.
	OpV
	// OpW is the pivot operand subtable.
	OpW
)

// Addr addresses a sub-tile of an operand subtable in a schedule's grid.
type Addr struct {
	Op   Operand
	I, J int
}

// String formats the address as "X(i,j)" etc.
func (a Addr) String() string {
	names := [...]string{"X", "U", "V", "W"}
	return fmt.Sprintf("%s(%d,%d)", names[a.Op], a.I, a.J)
}

// embed maps this local address (from a 2-way body) into the caller's
// operand sub-tiles: the body's X-space sub-tiles refine the caller's X,
// its U-space the caller's U, and so on.
func (a Addr) embed(c Call) Addr {
	outer := [...]Addr{c.X, c.U, c.V, c.W}[a.Op]
	return Addr{Op: outer.Op, I: 2*outer.I + a.I, J: 2*outer.J + a.J}
}

// Call is one kernel invocation: Kind's Fig. 4 signature applied to
// symbolic sub-tiles. X is updated in place; U, V, W are the panel/pivot
// operands (X-space where Fig. 4's signature omits them).
type Call struct {
	Kind       semiring.Kind
	X, U, V, W Addr
}

// String renders the call like Fig. 4.
func (c Call) String() string {
	return fmt.Sprintf("%v[%v u=%v v=%v w=%v]", c.Kind, c.X, c.U, c.V, c.W)
}

// reads reports whether the call reads sub-tile a (a GEP update always
// reads the cell it writes, so X counts).
func (c Call) reads(a Addr) bool {
	return c.X == a || c.U == a || c.V == a || c.W == a
}

// conflictsWith reports whether c (later in program order) must run after
// e (earlier): same output, true dependence, or anti-dependence.
func (c Call) conflictsWith(e Call) bool {
	return c.X == e.X || c.reads(e.X) || e.reads(c.X)
}

// Schedule is a sequence of parallel stages: the calls of a stage are
// independent, and each stage starts after the previous one finished.
type Schedule [][]Call

// Calls returns the schedule flattened in stage order.
func (s Schedule) Calls() []Call {
	var out []Call
	for _, stage := range s {
		out = append(out, stage...)
	}
	return out
}

// String renders one stage per line.
func (s Schedule) String() string {
	out := ""
	for i, stage := range s {
		out += fmt.Sprintf("stage %d:", i)
		for _, c := range stage {
			out += " " + c.String()
		}
		out += "\n"
	}
	return out
}

// Equal reports stage-wise set equality of two schedules.
func (s Schedule) Equal(other Schedule) bool {
	if len(s) != len(other) {
		return false
	}
	for i := range s {
		a, b := sortedCalls(s[i]), sortedCalls(other[i])
		if len(a) != len(b) {
			return false
		}
		for j := range a {
			if a[j] != b[j] {
				return false
			}
		}
	}
	return true
}

func sortedCalls(stage []Call) []Call {
	out := append([]Call(nil), stage...)
	sort.Slice(out, func(a, b int) bool { return out[a].String() < out[b].String() })
	return out
}

// GridDim returns the operand grid dimension a schedule addresses (max
// sub-tile index + 1).
func (s Schedule) GridDim() int {
	n := 0
	for _, c := range s.Calls() {
		for _, a := range []Addr{c.X, c.U, c.V, c.W} {
			n = max(n, a.I+1, a.J+1)
		}
	}
	return n
}

// Fig4 builds the Fig. 4 algorithm for the given kernel kind at fan-out
// r, on r×r operand grids. Each iteration k runs, as stages:
//
//	A:  A(X_kk); then B(X_kj) and C(X_ik) for restricted i, j; then D(X_ij)
//	B:  B(X_kj, U_kk, W_kk) ∀j;  then D(X_ij, U_ik, X_kj, W_kk), restricted i
//	C:  C(X_ik, V_kk, W_kk) ∀i;  then D(X_ij, X_ik, V_kj, W_kk), restricted j
//	D:  D(X_ij, U_ik, V_kj, W_kk) ∀i, j
//
// where an operand Fig. 4's signature omits (A(X), B(X,U,W), C(X,V,W))
// is X's sub-tile, and "restricted" is the rule's Restricted(k, r).
// Fig. 4 prints kind D's second operand as X_ik; that is a typo for U_ik
// — with X_ik the update would read the output tile's own column, which
// is only correct for kind C. Empty stages (GE's last iteration) are
// dropped.
func Fig4(rule semiring.Rule, kind semiring.Kind, r int) Schedule {
	a, b, c := kind == semiring.KindA, kind == semiring.KindB, kind == semiring.KindC
	u, v, w := OpU, OpV, OpW
	if a || c {
		u = OpX
	}
	if a || b {
		v = OpX
	}
	if a {
		w = OpX
	}
	all := make([]int, r)
	for i := range all {
		all[i] = i
	}
	x := func(i, j int) Addr { return Addr{Op: OpX, I: i, J: j} }
	var s Schedule
	add := func(stage []Call) {
		if len(stage) > 0 {
			s = append(s, stage)
		}
	}
	for k := 0; k < r; k++ {
		rest := rule.Restricted(k, r)
		// Rows i and columns j of the interior stage: a row panel (A, B)
		// has already updated row k, a column panel (A, C) column k.
		rows, cols := all, all
		if a || b {
			rows = rest
		}
		if a || c {
			cols = rest
		}
		wkk := Addr{Op: w, I: k, J: k}
		if a {
			kk := x(k, k)
			add([]Call{{Kind: semiring.KindA, X: kk, U: kk, V: kk, W: kk}})
		}
		var panel []Call
		if a || b {
			for _, j := range cols {
				panel = append(panel, Call{Kind: semiring.KindB, X: x(k, j), U: Addr{Op: u, I: k, J: k}, V: x(k, j), W: wkk})
			}
		}
		if a || c {
			for _, i := range rows {
				panel = append(panel, Call{Kind: semiring.KindC, X: x(i, k), U: x(i, k), V: Addr{Op: v, I: k, J: k}, W: wkk})
			}
		}
		add(panel)
		var interior []Call
		for _, i := range rows {
			for _, j := range cols {
				interior = append(interior, Call{Kind: semiring.KindD, X: x(i, j), U: Addr{Op: u, I: i, J: k}, V: Addr{Op: v, I: k, J: j}, W: wkk})
			}
		}
		add(interior)
	}
	return s
}

// InlineOnce performs one refinement step of §IV-A: every call is
// replaced by its 2-way body (its kind's Fig4 schedule at r = 2) with the
// body's operand sub-tiles embedded into the caller's, and the resulting
// flat program is re-scheduled greedily into the earliest legal stages.
func InlineOnce(rule semiring.Rule, s Schedule) Schedule {
	var flat []Call
	for _, call := range s.Calls() {
		for _, sub := range Fig4(rule, call.Kind, 2).Calls() {
			flat = append(flat, Call{
				Kind: sub.Kind,
				X:    sub.X.embed(call),
				U:    sub.U.embed(call),
				V:    sub.V.embed(call),
				W:    sub.W.embed(call),
			})
		}
	}
	return ScheduleGreedy(flat)
}

// ScheduleGreedy packs a sequential program into parallel stages: each
// call lands in the earliest stage after every earlier call it conflicts
// with (the dependency rules above). This is the "execute in as few
// parallel stages as possible" optimization of §IV-A.
func ScheduleGreedy(seq []Call) Schedule {
	stageOf := make([]int, len(seq))
	var out Schedule
	for i, c := range seq {
		stage := 0
		for j := 0; j < i; j++ {
			if c.conflictsWith(seq[j]) && stageOf[j] >= stage {
				stage = stageOf[j] + 1
			}
		}
		stageOf[i] = stage
		if stage == len(out) {
			out = append(out, nil)
		}
		out[stage] = append(out[stage], c)
	}
	return out
}

// Derive produces the 2ᵗ-way algorithm for the full GEP (kind A) by t
// refinement steps from the trivial one-call program, as §IV-A
// prescribes.
func Derive(rule semiring.Rule, t int) Schedule {
	root := Addr{Op: OpX}
	s := Schedule{{{Kind: semiring.KindA, X: root, U: root, V: root, W: root}}}
	for level := 0; level < t; level++ {
		s = InlineOnce(rule, s)
	}
	return s
}

// Validate checks a schedule's internal consistency: within every stage
// no two calls may conflict (write-write, read-write in either
// direction). Returns the first violation found.
func (s Schedule) Validate() error {
	for si, stage := range s {
		for i := 0; i < len(stage); i++ {
			for j := i + 1; j < len(stage); j++ {
				if stage[j].conflictsWith(stage[i]) {
					return fmt.Errorf("kernels: stage %d: %v conflicts with %v", si, stage[i], stage[j])
				}
			}
		}
	}
	return nil
}

// Parallelism returns the average and maximum stage widths — the measure
// §IV-A optimizes when it moves calls to the earliest stage.
func (s Schedule) Parallelism() (avg float64, widest int) {
	if len(s) == 0 {
		return 0, 0
	}
	total := 0
	for _, stage := range s {
		total += len(stage)
		widest = max(widest, len(stage))
	}
	return float64(total) / float64(len(s)), widest
}

// WorkCount returns the modelled element updates of one schedule run on
// b-sized sub-tiles under the rule — derivation never changes total work.
func WorkCount(s Schedule, rule semiring.Rule, b int) int64 {
	var total int64
	for _, c := range s.Calls() {
		total += Updates(rule, c.Kind, b)
	}
	return total
}
