// Package kernels implements the compute kernels of the paper's Fig. 4:
// the four GEP kernel functions A, B, C and D in both an iterative
// (loop-based, the Schoeneman–Zola / Numba style) and a parametric r-way
// recursive divide-&-conquer (R-DP) form, generic over the GEP update rule.
// It holds Fig. 4 once, as data: Fig4 builds each kind's schedule of
// sub-calls, the recursive kernels execute those schedules, and the
// §IV-A derivation (Derive) is checked against the same schedules.
//
// Parallelism inside a kernel invocation — the paper's OpenMP environment
// with OMP_NUM_THREADS — is provided by a Pool of worker tokens: the
// recursive kernels fork goroutines along the par_for structure of Fig. 4,
// and the iterative blocked fast paths split into independent row bands,
// so at most Threads subtrees compute simultaneously.
package kernels

import (
	"sync"
	"sync/atomic"
)

// Pool bounds the number of concurrently executing kernel workers. It is
// the OMP_NUM_THREADS analogue: one Pool per node, handed to each kernel
// invocation, shared across recursion levels and across the node's
// concurrently running tasks. A nil *Pool means fully serial execution
// (no goroutines at all).
//
// Token discipline: the calling goroutine always has the right to compute
// (it occupies the task's own core), so a pool of width t carries t−1
// spare tokens. parallel spawns a goroutine for a branch only when a spare
// token is immediately available; otherwise the branch runs inline on the
// caller — acquisition never blocks, so recursion depth cannot deadlock
// the pool and a pool shared by many tasks degrades gracefully to serial
// instead of oversubscribing.
//
// Hand-off: a spawned worker that reaches a par_for barrier of its own is
// about to block in Wait doing no work. It donates its token back to the
// pool for the duration of the wait and re-acquires one before resuming,
// so threads stay busy even when the recursion is deeper than it is wide
// (the threads < stage-width case). The caller chain below one token
// always holds at most that one token, and every donated token is
// re-acquired only after the waiter's children finished, so the
// release/re-acquire pairs balance and total concurrency never exceeds
// the pool width.
type Pool struct {
	threads int
	// sem counts in-use spare tokens: send = acquire, receive = release.
	// Capacity threads−1; a full channel means every spare token is busy.
	sem chan struct{}

	spawned  atomic.Int64 // branches that got their own goroutine
	inlined  atomic.Int64 // branches run on the caller (no spare token free)
	handoffs atomic.Int64 // tokens donated by a parent blocked at a barrier
}

// NewPool returns a pool admitting up to threads concurrently computing
// workers, the caller included. threads < 1 is treated as 1 (a width-1
// pool never spawns and is equivalent to nil).
func NewPool(threads int) *Pool {
	if threads < 1 {
		threads = 1
	}
	return &Pool{threads: threads, sem: make(chan struct{}, threads-1)}
}

// Threads returns the pool's concurrency bound.
func (p *Pool) Threads() int {
	if p == nil {
		return 1
	}
	return p.threads
}

// Stats returns cumulative scheduling counters: branches spawned on their
// own goroutine, branches inlined on the caller, and barrier token
// hand-offs. Counters are monotone and safe to read concurrently.
func (p *Pool) Stats() (spawned, inlined, handoffs int64) {
	if p == nil {
		return 0, 0, 0
	}
	return p.spawned.Load(), p.inlined.Load(), p.handoffs.Load()
}

// parallel runs all fns and returns when every one finished — the stage
// barrier of Fig. 4's par_for groups. Each fn receives whether it runs
// under a pool token (true for spawned workers and for branches inlined
// on a token-holding caller), which it must pass through to any nested
// parallel call so the barrier hand-off stays balanced.
//
// held reports whether the *calling* goroutine occupies a spare token.
// Top-level entry points pass false (the caller's right to compute is
// implicit, not a pool token).
func (p *Pool) parallel(held bool, fns []func(held bool)) {
	if p == nil || len(fns) <= 1 {
		for _, fn := range fns {
			fn(held)
		}
		return
	}
	var wg sync.WaitGroup
	waiting := false
	for _, fn := range fns[1:] {
		select {
		case p.sem <- struct{}{}:
			p.spawned.Add(1)
			waiting = true
			wg.Add(1)
			go func(f func(bool)) {
				defer func() {
					<-p.sem
					wg.Done()
				}()
				f(true)
			}(fn)
		default:
			p.inlined.Add(1)
			fn(held)
		}
	}
	fns[0](held)
	if held && waiting {
		// The caller holds a spare token and is about to block: donate it
		// while waiting so a sibling subtree can use the thread, then take
		// one back before resuming. The receive cannot block — the
		// caller's own acquisition put at least one element in sem, and
		// releases are matched 1:1 with prior acquisitions.
		<-p.sem
		p.handoffs.Add(1)
		wg.Wait()
		p.sem <- struct{}{}
	} else if waiting {
		wg.Wait()
	}
}
