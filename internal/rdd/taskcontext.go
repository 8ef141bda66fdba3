package rdd

import (
	"dpspark/internal/kernels"
	"dpspark/internal/simtime"
)

// TaskContext is handed to every task (and through it to user map
// functions). User code charges modelled compute time and shared-storage
// traffic on it; the engine itself records shuffle traffic. After the
// task's real execution, the scheduler turns these charges into a
// simulated task for the virtual clock.
type TaskContext struct {
	// StageID identifies the stage the task belongs to.
	StageID int
	// Partition is the task's partition index.
	Partition int
	// Node is the executor the task runs on.
	Node int

	ctx *Context

	compute simtime.Duration
	// slowed is the portion of compute injected by a FaultPlan straggler;
	// speculative execution subtracts it to estimate the task's healthy
	// duration on another executor.
	slowed      simtime.Duration
	threads     int
	idleThreads int
	// recycling is set while a shuffle-map task computes its buckets: take
	// then hands out slices from the attempt's arena (slab.go).
	recycling   bool
	sharedRead  int64
	fetchLocal  int64
	fetchRemote int64
	spill       int64

	local AttemptLocal

	// arena is the stage worker's recycling state (slab.go), passed from
	// attempt to attempt and taken on the first take or chunk-read pin.
	arena *taskArena
}

// AttemptLocal is state user code hangs on a TaskContext for one task
// attempt — an accumulator that would otherwise hit shared, locked state
// once per record. Flush is called exactly once, on the attempt's
// goroutine, when the attempt ends: returned, panicked or killed alike.
type AttemptLocal interface {
	Flush()
}

// Local returns the attempt's AttemptLocal (nil until SetLocal).
func (tc *TaskContext) Local() AttemptLocal { return tc.local }

// SetLocal installs l as the attempt's AttemptLocal, flushing the one it
// replaces (the engine ends every attempt with SetLocal(nil)).
func (tc *TaskContext) SetLocal(l AttemptLocal) {
	if tc.local != nil {
		tc.local.Flush()
	}
	tc.local = l
}

// Ctx returns the owning engine context (for model/cluster access inside
// map functions).
func (tc *TaskContext) Ctx() *Context { return tc.ctx }

// KernelPool returns the shared kernel worker pool of the task's node —
// the OMP_NUM_THREADS budget each kernel invocation may draw on. Nil when
// the context runs kernels serially (Conf.KernelThreads ≤ 1).
func (tc *TaskContext) KernelPool() *kernels.Pool { return tc.ctx.kernelPool(tc.Node) }

// ChargeCompute adds d of modelled compute occupying the given number of
// worker threads. The task's thread width is the maximum charged.
func (tc *TaskContext) ChargeCompute(d simtime.Duration, threads int) {
	if d < 0 {
		panic("rdd: negative compute charge")
	}
	tc.compute += d
	if threads > tc.threads {
		tc.threads = threads
	}
}

// ChargeIdleThreads records OMP threads the task spawns beyond its
// kernels' exploitable parallelism; they spin at par_for barriers and
// contribute node pressure without throughput.
func (tc *TaskContext) ChargeIdleThreads(n int) {
	if n > tc.idleThreads {
		tc.idleThreads = n
	}
}

// ChargeSharedRead records bytes read from the shared filesystem.
func (tc *TaskContext) ChargeSharedRead(bytes int64) {
	if bytes > 0 {
		tc.sharedRead += bytes
	}
}

// Threads returns the task's charged thread width (≥1).
func (tc *TaskContext) Threads() int {
	if tc.threads < 1 {
		return 1
	}
	return tc.threads
}
