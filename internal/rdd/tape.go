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
	steps  []func(c *Context, prices []Charge)
	stages int
}

// stageTape is a recorded stage: the tasks that moved bytes or charged
// calls, with the classes of their calls, and how many empty tasks each
// node ran.
type stageTape struct {
	sr                   stageRun
	tasks                []tapeTask
	empty                []int
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

// recordStage records a settling stage from its scratch.
func (t *Tape) recordStage(sr *stageRun, spill, fetch, shared int64) {
	sc := sr.scratch
	ts := &stageTape{tasks: make([]tapeTask, len(sc.tasks)), empty: slices.Clone(sc.empty), spill: spill, fetch: fetch, shared: shared,
		sr: stageRun{kind: sr.kind, shuffleID: sr.shuffleID, parts: sr.parts, phase: sr.phase, stageID: sr.stageID, attempt: sr.attempt}}
	for j, i := range sc.at {
		ts.tasks[j] = tapeTask{i, sc.tasks[j], sc.tcs[i].kinds}
	}
	t.steps = append(t.steps, func(c *Context, prices []Charge) { c.repriceStage(ts, prices) })
	t.stages++
}

// Reprice feeds t to c, a fresh context on the recorded run's cluster,
// through advanceDriver and settle's tail, each recorded call of class k
// charged at prices[k] in the recorded order.
func (c *Context) Reprice(t *Tape, prices []Charge) {
	// Each stage appends one stage event and one flight record: size both
	// logs once instead of regrowing them stage by stage.
	c.mu.Lock()
	c.events = slices.Grow(c.events, t.stages)
	c.mu.Unlock()
	c.obsv.Flight().Reserve(t.stages)
	for _, step := range t.steps {
		step(c, prices)
	}
}

// repriceStage charges each listed task's calls on a TaskContext as its
// attempt did and settles the stage with the recorded empty tasks.
func (c *Context) repriceStage(ts *stageTape, prices []Charge) {
	sr := ts.sr
	sr.c, sr.scratch = c, takeStageScratch(0)
	sc := sr.scratch
	tasks, at := sc.tasks[:0], sc.at[:0]
	for _, tt := range ts.tasks {
		tc := TaskContext{ctx: c}
		for _, k := range tt.kinds {
			tc.ChargeCall(k, prices[k])
		}
		st := tt.task
		st.Compute, st.Threads, st.IdleThreads = tc.compute, tc.Threads(), tc.idleThreads
		tasks, at = append(tasks, st), append(at, tt.idx)
	}
	sc.tasks, sc.at, sc.empty = tasks, at, append(sc.empty[:0], ts.empty...)
	sr.simulate(ts.spill, ts.fetch, ts.shared)
}
