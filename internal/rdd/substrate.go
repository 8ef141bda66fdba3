package rdd

import (
	"container/heap"
	"fmt"
	"runtime"
	"sync"

	"dpspark/internal/cluster"
	"dpspark/internal/kernels"
)

// This file is the scheduler/executor substrate every engine context
// runs on. A solo context builds a private one from its Conf; in
// multi-tenant serving (`dpspark serve`) several concurrent contexts —
// one per job — mount one shared Substrate. The Substrate owns
// everything that models the physical cluster the jobs share, while each
// Context keeps everything that is logically per-job: lineage, shuffle
// state, fault plans and fired-event bookkeeping, the virtual clock, and
// the breakdown/recovery accounting.
//
// Concretely the Substrate owns:
//
//   - the cluster spec (all jobs price against the same hardware),
//   - the per-node kernel worker pools (Conf.KernelThreads wide), so
//     real intra-kernel concurrency is bounded per node across ALL
//     jobs, not per job, and
//   - the real task-slot scheduler: a bounded pool of task-execution
//     slots (SubstrateConf.RealParallelism) that the stage workers
//     of every mounted job acquire, one per run of task indices they
//     claim (see runTasks), highest job priority first, FIFO within a
//     priority.
//
// Isolation invariant: because the virtual clock, lineage and fault
// state stay per-job, a job's modelled time, recovery trajectory and
// result bits are identical whether it runs solo or next to any number
// of sibling jobs — sharing the substrate only interleaves the REAL
// execution. The serve-layer tests pin this bit-for-bit.

// SubstrateConf configures a shared substrate.
type SubstrateConf struct {
	// Cluster describes the (simulated) hardware every mounted job
	// shares. Required.
	Cluster *cluster.Cluster
	// KernelThreads is the width of the shared per-node kernel pools
	// (see Conf.KernelThreads). Default 1: serial kernels, no pools.
	KernelThreads int
	// RealParallelism bounds the task attempts running at once across
	// every job mounted on the substrate. Default: runtime.NumCPU().
	RealParallelism int
}

// Substrate is the scheduler/executor layer contexts run on. Create one
// with NewSubstrate, then mount any number of concurrent Contexts on it
// via Conf.Substrate; a Context without one builds its own.
type Substrate struct {
	cluster       *cluster.Cluster
	kernelThreads int
	realPar       int

	// kernelPools is one shared kernel worker pool per node: tasks of
	// EVERY mounted job running on a node draw on the same pool, so
	// total kernel workers per node never exceed KernelThreads even
	// with many tenants.
	kernelPools []*kernels.Pool

	sched *slotScheduler
}

// NewSubstrate validates the conf and builds the shared substrate.
func NewSubstrate(conf SubstrateConf) (*Substrate, error) {
	if conf.Cluster == nil {
		return nil, fmt.Errorf("rdd: SubstrateConf.Cluster is required")
	}
	if conf.KernelThreads < 0 {
		return nil, fmt.Errorf("rdd: SubstrateConf.KernelThreads must be ≥ 0 (0 means serial kernels), got %d", conf.KernelThreads)
	}
	if conf.KernelThreads == 0 {
		conf.KernelThreads = 1
	}
	if conf.RealParallelism < 0 {
		return nil, fmt.Errorf("rdd: SubstrateConf.RealParallelism must be ≥ 0 (0 means NumCPU), got %d", conf.RealParallelism)
	}
	if conf.RealParallelism == 0 {
		conf.RealParallelism = runtime.NumCPU()
	}
	s := &Substrate{
		cluster:       conf.Cluster,
		kernelThreads: conf.KernelThreads,
		realPar:       conf.RealParallelism,
		sched:         newSlotScheduler(conf.RealParallelism),
	}
	if conf.KernelThreads > 1 {
		s.kernelPools = make([]*kernels.Pool, conf.Cluster.Nodes)
		for n := range s.kernelPools {
			s.kernelPools[n] = kernels.NewPool(conf.KernelThreads)
		}
	}
	return s, nil
}

// Cluster returns the shared cluster spec.
func (s *Substrate) Cluster() *cluster.Cluster { return s.cluster }

// slotScheduler is a bounded pool of real task-execution slots with
// priority admission: acquire blocks until a slot frees (or the caller
// cancels), and freed slots go to the highest-priority waiter, FIFO
// within a priority. This is the point where stages from different
// jobs interleave on the shared executors.
type slotScheduler struct {
	mu      sync.Mutex
	free    int
	seq     uint64
	waiters waiterQueue
}

// slotWaiter is one blocked acquire. The channel has capacity 1 so a
// release can hand the slot over without blocking; a waiter that loses
// the race against its own cancellation returns the slot (see acquire).
type slotWaiter struct {
	priority int
	seq      uint64
	ch       chan struct{}
	index    int
}

// waiterQueue is a max-heap by (priority, then FIFO seq).
type waiterQueue []*slotWaiter

func (q waiterQueue) Len() int { return len(q) }
func (q waiterQueue) Less(i, j int) bool {
	if q[i].priority != q[j].priority {
		return q[i].priority > q[j].priority
	}
	return q[i].seq < q[j].seq
}
func (q waiterQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *waiterQueue) Push(x any) {
	w := x.(*slotWaiter)
	w.index = len(*q)
	*q = append(*q, w)
}
func (q *waiterQueue) Pop() any {
	old := *q
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return w
}

// newSlotScheduler returns a scheduler with `slots` concurrent slots
// (min 1).
func newSlotScheduler(slots int) *slotScheduler {
	if slots < 1 {
		slots = 1
	}
	return &slotScheduler{free: slots}
}

// acquire takes one slot, blocking until one frees. cancel (may be
// nil) aborts the wait; acquire then reports false and the caller must
// NOT release. Freed slots go to the highest-priority waiter first.
func (s *slotScheduler) acquire(priority int, cancel <-chan struct{}) bool {
	s.mu.Lock()
	if s.free > 0 {
		s.free--
		s.mu.Unlock()
		return true
	}
	w := &slotWaiter{priority: priority, seq: s.seq, ch: make(chan struct{}, 1)}
	s.seq++
	heap.Push(&s.waiters, w)
	s.mu.Unlock()

	if cancel == nil {
		<-w.ch
		return true
	}
	select {
	case <-w.ch:
		return true
	case <-cancel:
		s.mu.Lock()
		if w.index >= 0 {
			// Still queued: withdraw before anyone hands us a slot.
			heap.Remove(&s.waiters, w.index)
			s.mu.Unlock()
			return false
		}
		s.mu.Unlock()
		// A release already dequeued us; the slot may race our
		// cancellation through the buffered channel. Reclaim it if it
		// arrived (or will arrive — the send never blocks), and give
		// it back.
		<-w.ch
		s.release()
		return false
	}
}

// release returns a slot, handing it to the best waiter if any.
func (s *slotScheduler) release() {
	s.mu.Lock()
	if s.waiters.Len() > 0 {
		w := heap.Pop(&s.waiters).(*slotWaiter)
		w.index = -1
		s.mu.Unlock()
		w.ch <- struct{}{}
		return
	}
	s.free++
	s.mu.Unlock()
}

// waiting reports the queued-acquire count.
func (s *slotScheduler) waiting() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.waiters.Len()
}
