package kernels

import (
	"fmt"
	"sync"

	"dpspark/internal/matrix"
	"dpspark/internal/semiring"
)

// Recursive executes the parametric r-way recursive divide-&-conquer
// GEP kernels of Fig. 4. Each invocation subdivides its operands into
// R×R sub-views and runs its kind's Fig4 schedule on them, one par_for
// group on the Pool per stage; once an operand reaches Base (or stops
// dividing evenly by R) the iterative Loop kernel finishes it.
//
// R is the paper's r_shared tunable: larger R means wider fan-out
// (coarse-grained parallelism) and smaller sub-blocks sooner. The
// algorithms are cache-oblivious in the 2-way case and remain I/O
// efficient for any fixed R. Build a Recursive with NewRecursive; the
// schedules are derived from Rule and R.
type Recursive struct {
	Rule semiring.Rule
	// R is the fan-out per recursion level (r_shared ≥ 2).
	R int
	// Base is the base-case size: operands of dimension ≤ Base run Loop.
	Base int
	// Pool bounds leaf parallelism; nil runs serially.
	Pool *Pool

	loop loopFunc
	fig4 *fig4Schedules
}

// fig4Schedules holds Fig4(Rule, kind, R) by kind, built by the first
// invocation that recurses: a model-mode run names its exec but never
// executes it, and at r_shared 16 the four schedules are ~10⁴ calls.
type fig4Schedules struct {
	once   sync.Once
	byKind [4]Schedule
}

// schedule returns the kind's Fig. 4 schedule at fan-out R.
func (rc *Recursive) schedule(kind semiring.Kind) Schedule {
	rc.fig4.once.Do(func() {
		for k := range rc.fig4.byKind {
			rc.fig4.byKind[k] = Fig4(rc.Rule, semiring.Kind(k), rc.R)
		}
	})
	return rc.fig4.byKind[kind]
}

// NewRecursive returns a recursive kernel runner, validating parameters.
func NewRecursive(rule semiring.Rule, r, base int, pool *Pool) *Recursive {
	if r < 2 {
		panic(fmt.Sprintf("kernels: r_shared must be ≥ 2, got %d", r))
	}
	if base < 1 {
		panic(fmt.Sprintf("kernels: base size must be ≥ 1, got %d", base))
	}
	return &Recursive{Rule: rule, R: r, Base: base, Pool: pool, loop: resolveLoop(rule), fig4: new(fig4Schedules)}
}

// Run executes the kernel of the given kind on x (updating it in place)
// with panel/pivot operands u, v, w wired as in Fig. 4. As with Loop,
// kind A expects u = v = w = x, kind B expects v = x, kind C expects u = x.
func (rc *Recursive) Run(kind semiring.Kind, x, u, v, w matrix.View) {
	rc.run(false, kind, x, u, v, w, matrix.View{})
}

// run is Run with the pool-token state of the executing goroutine
// threaded through, so nested par_for barriers can hand their token off
// while waiting (see Pool.parallel).
//
// f is the multiplier panel u[i,k]/w[k,k] of the enclosing GE kind-D
// call, or empty. The outermost unaliased GE kind-D call that recurses
// computes it once and re-enters with it set. Its schedule's sub-calls
// are all kind D, and the sub-call on (X_ij, U_ik, V_kj, W_kk) takes f's
// (i,k) quadrant. Nothing writes u or w during the call, so every leaf
// reads the multipliers it would have divided itself, and never touches
// u or w. (Re-entering rather than assigning f keeps the parameter
// unassigned, so the closures below capture it by value instead of
// moving it to the heap on every call.)
func (rc *Recursive) run(held bool, kind semiring.Kind, x, u, v, w, f matrix.View) {
	if x.N <= rc.Base || x.N%rc.R != 0 {
		if f.Data != nil {
			gaussianBand(x, f, v, 0, x.N)
		} else {
			rc.loop(nil, kind, x, u, v, w)
		}
		return
	}
	_, ge := rc.Rule.(semiring.GaussianRule)
	if ge && kind == semiring.KindD && f.Data == nil && !sameView(x, u) && !sameView(x, v) && !sameView(x, w) {
		t := matrix.DefaultPool.Alloc(x.N)
		gaussMultipliers(t.View(), u, w, 0, x.N)
		rc.run(held, kind, x, u, v, w, t.View())
		matrix.DefaultPool.Release(t)
		return
	}
	ops := [...]matrix.View{OpX: x, OpU: u, OpV: v, OpW: w}
	sub := func(a Addr) matrix.View { return ops[a.Op].Quadrant(a.I, a.J, rc.R) }
	var fns []func(bool)
	for _, stage := range rc.schedule(kind) {
		fns = fns[:0]
		for i := range stage {
			c := &stage[i]
			fns = append(fns, func(h bool) {
				var fc matrix.View
				if f.Data != nil {
					fc = f.Quadrant(c.U.I, c.U.J, rc.R)
				}
				rc.run(h, c.Kind, sub(c.X), sub(c.U), sub(c.V), sub(c.W), fc)
			})
		}
		rc.Pool.parallel(held, fns)
	}
}
