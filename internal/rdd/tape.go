package rdd

import (
	"slices"

	"dpspark/internal/sim"
	"dpspark/internal/simtime"
)

// Charge is what one priced call costs a task: Compute of modelled time
// on Threads busy worker threads, beside Idle spinning ones.
type Charge struct {
	Compute       simtime.Duration
	Threads, Idle int
}

// ChargeCall charges one call of class kind (the caller's numbering, such
// as a kernel kind) at ch. A context recording a Tape notes the class, so
// Reprice can charge the call at another price.
func (tc *TaskContext) ChargeCall(kind uint8, ch Charge) {
	tc.ChargeCompute(ch.Compute, ch.Threads)
	tc.idleThreads = max(tc.idleThreads, ch.Idle)
	if tc.ctx.tape != nil {
		tc.kinds = append(tc.kinds, kind)
	}
}

// Tape is what a run fed its simulator, in order, with each task's compute
// kept as the classes of its calls: driver advances, shuffle releases,
// broadcast bytes and stages. It is faithful for one fault-free job that
// charges all compute through ChargeCall and whose tasks never retried.
type Tape struct {
	steps []func(c *Context, prices []Charge)
}

// stageTape is a recorded stage: every task's node, and the tasks that
// moved bytes or charged calls, with the classes of their calls.
type stageTape struct {
	sr                   stageRun
	nodes                []int32
	tasks                []tapeTask
	spill, fetch, shared int64
}

type tapeTask struct {
	idx   int
	task  sim.Task
	kinds []uint8
}

// RecordTape starts recording a Tape, unless the context has a fault plan
// or speculation, whose stages no tape reproduces.
func (c *Context) RecordTape() {
	if c.conf.FaultPlan == nil && !c.conf.Speculation {
		c.mu.Lock()
		c.tape = new(Tape)
		c.mu.Unlock()
	}
}

// StopTape stops the recording and returns it: nil if nothing was
// recorded or a task failed, retried or was cancelled.
func (c *Context) StopTape() *Tape {
	c.mu.Lock()
	t, failed := c.tape, c.taskErr != nil || c.cancelErr != nil
	c.tape = nil
	c.mu.Unlock()
	if failed || c.RecoveryStats() != (RecoveryStats{}) {
		return nil
	}
	return t
}

// recordStage records a settling stage.
func (t *Tape) recordStage(sr *stageRun, tcs []TaskContext, tasks []sim.Task, spill, fetch, shared int64) {
	ts := &stageTape{nodes: make([]int32, len(tcs)), spill: spill, fetch: fetch, shared: shared,
		sr: stageRun{kind: sr.kind, shuffleID: sr.shuffleID, parts: sr.parts, phase: sr.phase, stageID: sr.stageID, attempt: sr.attempt}}
	for i, st := range tasks[:len(tcs)] {
		ts.nodes[i] = int32(st.Node)
		if tcs[i].kinds != nil || st.FetchLocal|st.FetchRemote|st.Spill|st.SharedRead != 0 {
			ts.tasks = append(ts.tasks, tapeTask{i, st, tcs[i].kinds})
		}
	}
	t.steps = append(t.steps, func(c *Context, prices []Charge) { c.repriceStage(ts, prices) })
}

// Reprice feeds t to c, a fresh context on the recorded run's cluster,
// through advanceDriver and settle's tail, each recorded call of class k
// charged at prices[k] in the recorded order.
func (c *Context) Reprice(t *Tape, prices []Charge) {
	for _, step := range t.steps {
		step(c, prices)
	}
}

// repriceStage charges each task's calls on a TaskContext as its attempt
// did and settles the stage; an empty task is what settle makes of one.
func (c *Context) repriceStage(ts *stageTape, prices []Charge) {
	sr := ts.sr
	sr.c, sr.scratch = c, takeStageScratch(0)
	tasks := slices.Grow(sr.scratch.tasks[:0], sr.parts)[:sr.parts]
	for i, n := range ts.nodes {
		tasks[i] = sim.Task{Node: int(n), Threads: 1}
	}
	for _, tt := range ts.tasks {
		tc := TaskContext{ctx: c}
		for _, k := range tt.kinds {
			tc.ChargeCall(k, prices[k])
		}
		st := &tasks[tt.idx]
		*st = tt.task
		st.Compute, st.Threads, st.IdleThreads = tc.compute, tc.Threads(), tc.idleThreads
	}
	sr.scratch.tasks = tasks
	sr.simulate(ts.spill, ts.fetch, ts.shared)
}
