package kernels

import (
	"fmt"

	"dpspark/internal/matrix"
	"dpspark/internal/semiring"
)

// Exec is a kernel implementation choice: the paper's experiments compare
// an Iterative exec (loop kernels) against RecursiveExec (r_shared-way
// R-DP kernels run on an OMP-style pool). Apply updates tile x in place;
// u, v, w may be nil where Fig. 4's signature omits them (A takes only X,
// B takes X,U,W, C takes X,V,W) and are then wired to x.
type Exec interface {
	// Name describes the kernel configuration, e.g. "iterative" or
	// "recursive(r=4,threads=8)".
	Name() string
	// Rule returns the GEP update rule the kernels apply.
	Rule() semiring.Rule
	// Apply runs the kernel of the given kind on x.
	Apply(kind semiring.Kind, x, u, v, w *matrix.Tile)
}

// normalize fills Fig. 4's implicit operands and validates dimensions. It
// returns tiles, not views, so that it inlines and each caller builds
// its views in place.
func normalize(x, u, v, w *matrix.Tile) (*matrix.Tile, *matrix.Tile, *matrix.Tile) {
	if u == nil {
		u = x
	}
	if v == nil {
		v = x
	}
	if w == nil {
		w = x
	}
	if u.B != x.B || v.B != x.B || w.B != x.B {
		panic("kernels: operand tile sizes differ")
	}
	return u, v, w
}

// PoolExec is implemented by execs that can run one kernel invocation on
// a caller-supplied worker pool — the paper's OMP_NUM_THREADS seam. The
// engine hands every task the node's shared pool so a single task can
// occupy k cores while the executor-cores budget shrinks accordingly.
type PoolExec interface {
	Exec
	// ApplyWith is Apply using pool for intra-kernel parallelism. A nil
	// pool falls back to the exec's own configuration (exactly Apply).
	// Results are bit-identical to Apply for any pool width.
	ApplyWith(pool *Pool, kind semiring.Kind, x, u, v, w *matrix.Tile)
}

// Iterative runs loop kernels — the baseline kernel type (Schoeneman–Zola
// / Numba style). With a Pool, the unaliased blocked fast paths split
// into row bands so one invocation uses up to Pool.Threads() cores;
// without one, each invocation is single-threaded. Build one with
// NewIterative or NewIterativePool, which pick the rule's loop once.
type Iterative struct {
	rule semiring.Rule
	// pool provides intra-kernel parallelism for plain Apply calls; nil
	// runs serially. ApplyWith overrides it per invocation.
	pool *Pool
	loop loopFunc
}

// NewIterative returns a serial iterative kernel exec for the rule.
func NewIterative(rule semiring.Rule) Iterative { return NewIterativePool(rule, 1) }

// NewIterativePool returns an iterative exec whose Apply uses a private
// pool of the given width (≤1 ⇒ serial).
func NewIterativePool(rule semiring.Rule, threads int) Iterative {
	var pool *Pool
	if threads > 1 {
		pool = NewPool(threads)
	}
	return Iterative{rule: rule, pool: pool, loop: resolveLoop(rule)}
}

// Name implements Exec.
func (e Iterative) Name() string {
	if e.pool.Threads() > 1 {
		return fmt.Sprintf("iterative(threads=%d)", e.pool.Threads())
	}
	return "iterative"
}

// Rule implements Exec.
func (e Iterative) Rule() semiring.Rule { return e.rule }

// Apply implements Exec.
func (e Iterative) Apply(kind semiring.Kind, x, u, v, w *matrix.Tile) {
	e.ApplyWith(nil, kind, x, u, v, w)
}

// ApplyWith implements PoolExec (nil pool ⇒ the exec's own).
func (e Iterative) ApplyWith(pool *Pool, kind semiring.Kind, x, u, v, w *matrix.Tile) {
	if pool == nil {
		pool = e.pool
	}
	u, v, w = normalize(x, u, v, w)
	e.loop(pool, kind, x.View(), u.View(), v.View(), w.View())
}

// RecursiveExec runs the r_shared-way recursive R-DP kernels on a worker
// pool of Threads goroutines (the OMP_NUM_THREADS analogue).
type RecursiveExec struct {
	rec *Recursive
}

// NewRecursiveExec returns a recursive kernel exec. rShared is the fan-out
// (≥2), base the base-case size, threads the pool width (≤1 ⇒ serial).
func NewRecursiveExec(rule semiring.Rule, rShared, base, threads int) RecursiveExec {
	var pool *Pool
	if threads > 1 {
		pool = NewPool(threads)
	}
	return RecursiveExec{rec: NewRecursive(rule, rShared, base, pool)}
}

// Name implements Exec.
func (e RecursiveExec) Name() string {
	return fmt.Sprintf("recursive(r=%d,base=%d,threads=%d)", e.rec.R, e.rec.Base, e.rec.Pool.Threads())
}

// Rule implements Exec.
func (e RecursiveExec) Rule() semiring.Rule { return e.rec.Rule }

// Apply implements Exec.
func (e RecursiveExec) Apply(kind semiring.Kind, x, u, v, w *matrix.Tile) {
	u, v, w = normalize(x, u, v, w)
	e.rec.Run(kind, x.View(), u.View(), v.View(), w.View())
}

// ApplyWith implements PoolExec, running the recursion's par_for groups
// on the supplied pool instead of the exec's own (nil ⇒ the exec's own).
func (e RecursiveExec) ApplyWith(pool *Pool, kind semiring.Kind, x, u, v, w *matrix.Tile) {
	if pool == nil {
		e.Apply(kind, x, u, v, w)
		return
	}
	u, v, w = normalize(x, u, v, w)
	rec := *e.rec
	rec.Pool = pool
	rec.Run(kind, x.View(), u.View(), v.View(), w.View())
}

// RunLocal executes the full top-level blocked GEP algorithm on a single
// machine: for each grid iteration k it applies A to the pivot tile, B/C
// to the panels and D to the interior, exactly the stage structure the
// distributed drivers replay over the engine. It is the single-machine
// reference implementation used throughout the tests.
func RunLocal(bl *matrix.Blocked, exec Exec) {
	rule := exec.Rule()
	for k := 0; k < bl.R; k++ {
		pivot := bl.Tile(matrix.Coord{I: k, J: k})
		exec.Apply(semiring.KindA, pivot, nil, nil, nil)
		rest := rule.Restricted(k, bl.R)
		for _, j := range rest {
			exec.Apply(semiring.KindB, bl.Tile(matrix.Coord{I: k, J: j}), pivot, nil, pivot)
		}
		for _, i := range rest {
			exec.Apply(semiring.KindC, bl.Tile(matrix.Coord{I: i, J: k}), nil, pivot, pivot)
		}
		for _, i := range rest {
			for _, j := range rest {
				exec.Apply(semiring.KindD,
					bl.Tile(matrix.Coord{I: i, J: j}),
					bl.Tile(matrix.Coord{I: i, J: k}),
					bl.Tile(matrix.Coord{I: k, J: j}),
					pivot)
			}
		}
	}
}
