package rdd

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"dpspark/internal/obs"
	"dpspark/internal/sim"
	"dpspark/internal/simtime"
)

// stageRun is one execution of one stage. The caller fills the first group
// of fields; the plan step fills the rest.
type stageRun struct {
	kind      StageKind
	shuffleID int
	parts     int
	phase     string
	// stageID < 0 allocates a fresh global stage ID; resubmitted recovery
	// stages pass their original map stage's ID instead (attempt > 0), so
	// planned stage numbering never shifts under faults.
	stageID int
	attempt int
	// splits maps task index → partition; nil means the identity (task i
	// computes partition i). Recovery stages pass only the lost
	// partitions.
	splits []int
	work   func(tc *TaskContext, idx, split int)

	c *Context
	// asOf is the virtual time placements and speculation are decided at:
	// after the stage's faults fired (and their detection was charged).
	asOf simtime.Duration
	// crashed are the nodes that died as the stage started: first attempts
	// homed on them die with the executor.
	crashed map[int]bool
	// scratch is the stage's task-count-sized memory, held from plan to the
	// end of settle (see stageScratch). Its tcs is the TaskContext slab, one
	// slot per task: an attempt resets its task's slot (a zero ctx marks a
	// task abandoned before its first attempt).
	scratch *stageScratch
}

// stageScratch is everything a stage needs that is sized by its task
// count: the TaskContext slab, the simulated busy tasks and speculative
// copies (at holds their task indices), the per-node empty-task counts, the
// per-task seconds handed to the metrics and the simulator's own scratch,
// into which the stage report's slices point.
//
// Ownership: plan takes one from scratches (or makes one), the stage
// owns it alone while it runs, and settle gives it back as its last act —
// after the report's last reader. Nothing taken from it, the report's
// Tasks and Node* slices included, may be kept past that point. It
// belongs to the stage and not to the Sim or the Context because stages
// overlap: concurrent jobs share a Context, and a recovery stage runs
// nested inside the reduce stage that hit the loss.
type stageScratch struct {
	tcs   []TaskContext
	tasks []sim.Task
	at    []int
	empty []int
	secs  []float64
	sim   sim.Scratch
}

// scratches recycles stage scratch across stages and Contexts, like
// arenas. A pooled scratch's TaskContext slab is zero over its whole
// capacity, so it points at no Context and keeps no finished job alive.
var scratches = sync.Pool{New: func() any { return new(stageScratch) }}

// lastScratch holds the most recently settled scratch in front of
// scratches. A sync.Pool hands a P's last put back to that P only, and a
// driver goroutine often settles a stage on one P and plans the next on
// another: through the pool alone it then grew a new scratch, and Table
// I + II allocated 262–299 MB at GOMAXPROCS 8 against 214 MB at 1. One
// slot that every P reads keeps consecutive stages warm at any P; it
// holds one scratch at most, and that one points at no Context.
var lastScratch atomic.Pointer[stageScratch]

// takeStageScratch hands out a scratch whose TaskContext slab has parts
// zeroed slots.
func takeStageScratch(parts int) *stageScratch {
	sc := lastScratch.Swap(nil)
	if sc == nil {
		sc = scratches.Get().(*stageScratch)
	}
	sc.tcs = slices.Grow(sc.tcs[:0], parts)[:parts]
	return sc
}

// putStageScratch clears a settled stage's TaskContext slab and empty-task
// counts and keeps the scratch in lastScratch, pooling the one that held
// it. Under poisonRecycled the simulated tasks, the counts and the task
// seconds are overwritten, so a reader that kept them reads garbage.
func putStageScratch(sc *stageScratch) {
	clear(sc.tcs)
	clear(sc.empty)
	if poisonRecycled {
		for i := range sc.tasks {
			sc.tasks[i] = sim.Task{Node: -1, Compute: -1}
		}
		for i := range sc.empty {
			sc.empty[i] = -1
		}
		for i := range sc.secs {
			sc.secs[i] = math.NaN()
		}
	}
	if sc = lastScratch.Swap(sc); sc != nil {
		scratches.Put(sc)
	}
}

// split returns the partition task index idx computes.
func (sr *stageRun) split(idx int) int {
	if sr.splits != nil {
		return sr.splits[idx]
	}
	return idx
}

// execStage executes one stage — sr.parts tasks running sr.work, really
// (on parallel goroutines) and virtually (through the cluster simulator)
// — in three steps: plan fires the fault plan's events scheduled for the
// stage and fixes what every task of it sees; the attempt runner executes
// each task with Spark-style retries; settle turns what the tasks charged
// into the virtual stage. sr.phase labels the stage for observability
// (the driver phase that built its lineage).
func (c *Context) execStage(sr *stageRun) {
	sr.plan(c)
	sr.runTasks()
	sr.settle()
}

// plan allocates the stage ID, fires the fault plan's events for it and
// reads the inputs every task shares.
func (sr *stageRun) plan(c *Context) {
	sr.c = c
	if sr.stageID < 0 {
		c.mu.Lock()
		sr.stageID = c.nextStage
		c.nextStage++
		c.mu.Unlock()
	}
	sr.crashed = c.fireStageFaults(sr.stageID)
	sr.asOf = c.Clock()
	c.recordEvent(obs.Event{
		Clock: sr.asOf.Seconds(), Type: obs.EvStageSubmit,
		Stage: sr.stageID, Attempt: sr.attempt, Part: -1, Node: -1,
		Shuffle: sr.shuffleID,
		Detail:  fmt.Sprintf("%s tasks=%d phase=%s", sr.kind, sr.parts, sr.phase),
	})
	sr.scratch = takeStageScratch(sr.parts)
}

// runTasks runs the stage's tasks on at most as many workers as the
// substrate has slots, the caller's goroutine among them, and waits for
// all of them. Workers claim task indices from one shared cursor, a short
// run at a time: about eight claims per worker over the stage, so the
// tail stays balanced, and a single task per claim once the stage is
// small enough that every task matters. A worker takes one substrate
// slot per claim, not per attempt, so symbolic stages of near-empty tasks
// do not queue on the scheduler; likewise it hands one arena (slab.go)
// from attempt to attempt.
func (sr *stageRun) runTasks() {
	c := sr.c
	workers := max(1, min(c.conf.Substrate.realPar, sr.parts))
	run := max(1, sr.parts/(8*workers))
	var next atomic.Int64
	claim := func() {
		var arena *taskArena
		defer func() { putArena(arena) }()
		for {
			hi := int(next.Add(int64(run)))
			lo := hi - run
			if lo >= sr.parts {
				return
			}
			if !c.acquireSlot() {
				c.recordTaskErr(c.CancelCause())
				return
			}
			for idx := lo; idx < min(hi, sr.parts); idx++ {
				if !sr.runTask(idx, &arena) {
					return
				}
			}
			c.releaseSlot()
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
}

// runTask is the attempt runner: it drives one task to success or to a
// recorded error. A panic fails the attempt and the task restarts from its
// lineage on a freshly placed executor, up to maxTaskAttempts; the
// compute a failed attempt charged still costs virtual time. A
// FetchFailedError indicts the parent map stage instead: the shuffle is
// recovered and the SAME attempt fetches again — no attempt consumed, no
// new placement, nothing charged for the part it ran (which reduce tasks
// see a loss before it is repaired is a scheduling accident, so what they
// did until then must not reach the modelled clock). A read of a retired
// shuffle fails the task on its first attempt: no retry could succeed.
//
// It runs on its worker's slot and keeps it unless it reports false: a
// cancellation abandons the task between attempts, gives the slot up and
// records the cause for the next action (and the driver's Err check).
// Each attempt borrows the worker's arena and hands it back (nil after a
// panic, whose arena is left to the collector).
func (sr *stageRun) runTask(idx int, arena **taskArena) bool {
	c, split := sr.c, sr.split(idx)
	tc := &sr.scratch.tcs[idx]
	var lost simtime.Duration
	failures, node := 0, -1 // node < 0: the coming attempt is not placed yet
	for {
		select {
		case <-c.cancel:
			c.releaseSlot()
			c.recordTaskErr(c.CancelCause())
			return false
		default:
		}
		if node < 0 {
			node = c.placeNode(split, sr.asOf)
			if home := c.nodeOf(split); failures == 0 && sr.crashed[home] {
				// The executor dies under its running first attempts; the
				// retry re-places them (the node is blacklisted by then).
				node = home
			}
		}
		*tc = TaskContext{StageID: sr.stageID, Partition: split, Node: node, ctx: c}
		tc.arena = *arena // apart: in the literal it would make the reset a copy
		err := sr.runAttempt(tc, idx, failures)
		*arena, tc.arena = tc.arena, nil
		if err == nil {
			sr.dilate(tc)
			tc.compute += lost // failed attempts' work is not free
			return true
		}
		if ff, ok := err.(*FetchFailedError); ok {
			// Recovery runs slot-free: recoverShuffle resubmits the parent
			// map stage, whose tasks need slots of their own, so holding
			// one across it would self-deadlock on a narrow substrate (one
			// slot suffices for any recovery depth this way).
			c.releaseSlot()
			if rerr := c.recoverShuffle(ff); rerr != nil {
				c.recordTaskErr(rerr)
				return c.acquireSlot()
			}
			if !c.acquireSlot() {
				c.recordTaskErr(c.CancelCause())
				return false
			}
			continue
		}
		if retired := (*shuffleRetiredError)(nil); errors.As(err, &retired) {
			// No attempt can read it: fail now, without a retry.
			c.recordTaskErr(err)
			return true
		}
		lost += tc.compute
		failures++
		if failures >= maxTaskAttempts {
			c.recordTaskErr(err)
			return true
		}
		c.count(recTaskRetries, 1)
		c.recordEvent(obs.Event{
			Clock: -1, Type: obs.EvTaskRetry,
			Stage: sr.stageID, Attempt: sr.attempt, Part: split,
			Node: node, Shuffle: -1, Detail: err.Error(),
		})
		node = -1
	}
}

// runAttempt runs one attempt of one task and reports how it ended: nil, a
// *FetchFailedError raised by a shuffle read, or the attempt's failure.
func (sr *stageRun) runAttempt(tc *TaskContext, idx, failures int) (err error) {
	defer func() {
		// The attempt ends here however it ended: returned, panicked or
		// killed.
		tc.SetLocal(nil)
		p := recover()
		tc.endAttempt(p != nil)
		if p != nil {
			switch p := p.(type) {
			case *FetchFailedError:
				err = p
			case *shuffleRetiredError:
				err = fmt.Errorf("rdd: task %d of stage %d failed (attempt %d): %w",
					tc.Partition, sr.stageID, failures+1, p)
			default:
				err = fmt.Errorf("rdd: task %d of stage %d failed (attempt %d): %v",
					tc.Partition, sr.stageID, failures+1, p)
			}
		}
	}()
	if failures == 0 && sr.crashed[tc.Node] {
		return fmt.Errorf("rdd: task %d of stage %d lost with executor %d",
			tc.Partition, sr.stageID, tc.Node)
	}
	sr.work(tc, idx, tc.Partition)
	return nil
}

// dilate applies a FaultPlan straggler aimed at a task whose attempt
// succeeded. It records what it added in slowed, so speculation prices the
// task's healthy duration and fires copies elsewhere.
func (sr *stageRun) dilate(tc *TaskContext) {
	c := sr.c
	if factor := c.stragglerFactor(sr.stageID, tc.Partition); factor > 1 {
		extra := simtime.Duration(tc.compute.Seconds() * (factor - 1))
		tc.slowed = extra
		tc.compute += extra
		c.count(recStragglers, 1)
	}
}

// settle is the stage's virtual half: the tasks' charges become simulated
// tasks (plus speculative copies), the simulator runs them, and the report
// lands in the breakdown, the critical path, the flight recorder, the
// metrics, the trace and the stage event log. Empty tasks — no compute,
// bytes or recorded call — are counted per node, not listed (DESIGN §13).
func (sr *stageRun) settle() {
	c, sc := sr.c, sr.scratch
	var spill, fetch, shared int64
	tasks, at := sc.tasks[:0], sc.at[:0]
	empty := slices.Grow(sc.empty[:0], c.model.C.Nodes)[:c.model.C.Nodes]
	clear(empty) // a poisoned put leaves it nonzero
	for i := range sc.tcs {
		tc := &sc.tcs[i]
		if tc.ctx == nil {
			// The task was abandoned before its first attempt (cancelled
			// mid-stage); model it as an empty task so the stage report
			// stays well-formed while Err carries the cause.
			*tc = TaskContext{StageID: sr.stageID, Partition: sr.split(i), Node: c.nodeOf(sr.split(i)), ctx: c}
		}
		if tc.compute == 0 && tc.kinds == nil && tc.fetchLocal|tc.fetchRemote|tc.spill|tc.sharedRead == 0 {
			empty[tc.Node]++
			continue
		}
		spill += tc.spill
		fetch += tc.fetchLocal + tc.fetchRemote
		shared += tc.sharedRead
		tasks = append(tasks, sim.Task{
			Node:        tc.Node,
			Compute:     tc.compute,
			Threads:     tc.Threads(),
			IdleThreads: tc.idleThreads,
			FetchLocal:  tc.fetchLocal,
			FetchRemote: tc.fetchRemote,
			Spill:       tc.spill,
			SharedRead:  tc.sharedRead,
		})
		at = append(at, i)
	}
	sc.tasks, sc.at, sc.empty = tasks, at, empty
	if c.tape != nil {
		c.mu.Lock()
		c.tape.recordStage(sr, spill, fetch, shared)
		c.mu.Unlock()
	}
	if c.conf.Speculation {
		c.speculate(sc, sr.asOf)
	}
	sr.simulate(spill, fetch, shared)
}

// simulate is settle's tail, shared with Reprice: it runs the scratch's
// tasks through the simulator and lands the report and the stage's bytes.
func (sr *stageRun) simulate(spill, fetch, shared int64) {
	c, sc := sr.c, sr.scratch
	traced := c.obsv.TraceEnabled()
	sc.sim.SkipLanes = !traced
	rep := c.simul.RunStageReport(sc.tasks, sc.empty, &sc.sim)
	empties := 0
	for _, n := range sc.empty {
		empties += n
	}
	ran := len(sc.tasks) + empties // the stage's tasks and speculative copies

	c.mu.Lock()
	c.bd.Compute += rep.Compute
	c.bd.Shuffle += rep.ShuffleIO
	c.bd.Broadcast += rep.SharedIO
	c.bd.Overhead += rep.Overhead
	if sr.attempt > 0 {
		c.bd.Recovery += rep.Total
	}
	c.bd.ShuffleWriteBytes += spill
	c.bd.ShuffleFetchBytes += fetch
	c.bd.BroadcastBytes += shared
	c.mu.Unlock()

	if cp := c.obsv.CritPath(); cp.Enabled() {
		cp.RecordStage(c.pid, obs.CritStage{
			Start: rep.Start, End: rep.Start + rep.Total,
			Attempt: sr.attempt, Speculative: ran - sr.parts,
			ShuffleIO: rep.ShuffleIO, SharedIO: rep.SharedIO, Compute: rep.Compute,
		})
	}
	c.recordEvent(obs.Event{
		Clock: (rep.Start + rep.Total).Seconds(), Type: obs.EvStageComplete,
		Stage: sr.stageID, Attempt: sr.attempt, Part: -1, Node: -1,
		Shuffle: sr.shuffleID,
		Detail:  fmt.Sprintf("%s dur=%s tasks=%d", sr.kind, rep.Total, ran),
	})

	ev := StageEvent{
		StageID:    sr.stageID,
		Kind:       sr.kind,
		Attempt:    sr.attempt,
		Tasks:      sr.parts,
		ShuffleID:  sr.shuffleID,
		Phase:      sr.phase,
		Start:      rep.Start,
		Duration:   rep.Total,
		SpillBytes: spill,
		FetchBytes: fetch,
		MaxTask:    rep.MaxTask,
		MeanTask:   rep.MeanTask,
	}
	c.recordStageMetrics(ev, sc, empties)
	if traced {
		for k := range rep.Tasks {
			rep.Tasks[k].Index = sc.at[rep.Tasks[k].Index]
		}
		c.emitStageSpans(ev, rep, ran)
	}
	c.appendEvent(ev)
	// rep dies here: its slices live in the scratch the next stage takes.
	putStageScratch(sc)
	sr.scratch = nil
}
