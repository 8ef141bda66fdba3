// Package sim is the deterministic cluster scheduler used for model-mode
// runs: it places the tasks of each stage on their executors, processes
// each executor's queue in waves of executor-cores concurrent tasks,
// dilates compute when the wave oversubscribes the node's physical cores
// (the OMP_NUM_THREADS × executor-cores interaction of Tables I–II), and
// charges network, local-disk staging and shared-storage traffic from the
// cost model. It also enforces the failure conditions the paper reports:
// local staging disks filling up (IM on large inputs) and the 8-hour
// experiment timeout.
package sim

import (
	"fmt"
	"slices"
	"sync"

	"dpspark/internal/costmodel"
	"dpspark/internal/simtime"
)

// Task is one schedulable unit: a stage task bound to an executor.
type Task struct {
	// Node is the executor index the task runs on.
	Node int
	// Compute is the task's standalone compute time (kernel times already
	// include intra-kernel thread speedup).
	Compute simtime.Duration
	// Threads is the number of worker threads the task keeps busy while
	// computing (kernel occupancy; 1 for iterative kernels).
	Threads int
	// IdleThreads counts spawned OMP threads beyond the kernel's
	// exploitable parallelism: they spin at the recursion's par_for
	// barriers, adding node pressure without throughput.
	IdleThreads int
	// FetchLocal and FetchRemote are shuffle-read bytes served from the
	// local disk vs across the network.
	FetchLocal, FetchRemote int64
	// Spill is the shuffle-write bytes staged on the local disk.
	Spill int64
	// SharedRead is the shared-filesystem bytes the task reads (CB driver).
	SharedRead int64
}

// Timeout is the paper's experiment wall-clock bound: runs exceeding it
// are reported as missing bars / timed-out cells.
const Timeout = 8 * simtime.Hour

// ErrDiskFull reports a node-local staging disk overflowing.
type ErrDiskFull struct {
	Node   int
	Staged int64
	Cap    int64
}

func (e ErrDiskFull) Error() string {
	return fmt.Sprintf("sim: staging disk full on node %d: %d bytes staged, capacity %d",
		e.Node, e.Staged, e.Cap)
}

// Sim accumulates virtual time across the stages of a job. Methods are
// safe for concurrent use (parallel jobs on one engine context serialize
// their stage submissions on the internal mutex); direct field reads are
// only safe while no stage is in flight.
type Sim struct {
	Model *costmodel.Model
	// ExecCores is the number of concurrent task slots per executor
	// (the executor-cores setting).
	ExecCores int
	// OversubPenalty is the extra dilation per unit of core
	// oversubscription by busy threads (fair time-slicing cost).
	OversubPenalty float64
	// SpinQuad scales the quadratic thrash penalty of spinning idle
	// threads; calibrated against the OMP_NUM_THREADS=16/32 columns of
	// Tables I–II.
	SpinQuad float64
	// Clock is the job's virtual time so far.
	Clock simtime.Duration
	// Ledger attributes resource-seconds by category.
	Ledger *simtime.Ledger

	mu       sync.Mutex
	diskUsed []int64
	failure  error
}

// TaskSpan places one task of a stage on its executor's core lanes for
// tracing: Start is relative to the stage's begin, Dur is the task's
// share of the node's fluid compute time, Raw its standalone duration
// (compute plus shuffle (de)serialization — the skew signal).
type TaskSpan struct {
	// Index is the task's position in the stage's task slice.
	Index int
	// Node is the executor, Lane the core slot within it.
	Node, Lane int
	// Start is the lane-relative begin offset from the stage start.
	Start simtime.Duration
	// Dur is the scheduled (scaled) duration on the lane.
	Dur simtime.Duration
	// Raw is the task's unscaled standalone duration.
	Raw simtime.Duration
}

// StageReport decomposes one executed stage. The breakdown follows the
// stage's critical (makespan) node, so ((ShuffleIO + SharedIO) + Compute)
// + Overhead equals Total exactly — in that order of float additions —
// and summing the per-stage reports of a job therefore reproduces the
// job's clock advance, unlike the Ledger's overlapping resource-seconds.
type StageReport struct {
	// Start is the virtual clock when the stage began.
	Start simtime.Duration
	// Total is the stage's clock advance: makespan plus stage overhead.
	Total simtime.Duration
	// Compute is the critical node's compute time (incl. task launch).
	Compute simtime.Duration
	// ShuffleIO is the critical node's shuffle I/O: local-disk staging
	// reads/writes plus remote fetches over the network.
	ShuffleIO simtime.Duration
	// SharedIO is the critical node's shared-filesystem traffic time
	// (the Collect-Broadcast redistribution path).
	SharedIO simtime.Duration
	// Overhead is the per-stage scheduling overhead.
	Overhead simtime.Duration
	// MaxTask and MeanTask summarize the raw task durations across all
	// nodes; MaxTask/MeanTask is the stage's straggler-skew factor.
	MaxTask, MeanTask simtime.Duration
	// NodeIO is each node's I/O time (zero for idle nodes).
	NodeIO []simtime.Duration
	// Tasks is the per-task lane schedule for tracing (empty when the
	// Scratch skips lanes).
	Tasks []TaskSpan
}

// New returns a simulator for the model's cluster.
func New(m *costmodel.Model, execCores int) *Sim {
	if execCores < 1 {
		execCores = 1
	}
	return &Sim{
		Model:          m,
		ExecCores:      execCores,
		OversubPenalty: 0.015,
		SpinQuad:       0.00128,
		Ledger:         simtime.NewLedger(),
		diskUsed:       make([]int64, m.C.Nodes),
	}
}

// Err returns the first failure observed (disk full), if any.
func (s *Sim) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failure
}

// Now returns the current virtual clock.
func (s *Sim) Now() simtime.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Clock
}

// Advance charges driver-side time like AdvanceDriver and returns the
// clock readings immediately before and after the advance, so callers
// recording the segment (the critical-path profiler) see bit-exact
// boundaries.
func (s *Sim) Advance(d simtime.Duration, cat simtime.Category) (start, end simtime.Duration) {
	s.mu.Lock()
	start = s.Clock
	s.Clock += d
	end = s.Clock
	s.mu.Unlock()
	s.Ledger.Add(cat, d)
	return start, end
}

// ReleaseShuffle frees staged shuffle bytes (Spark's shuffle cleanup when
// an old RDD generation is no longer referenced).
func (s *Sim) ReleaseShuffle(node int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if node >= 0 && node < len(s.diskUsed) {
		s.diskUsed[node] -= bytes
		if s.diskUsed[node] < 0 {
			s.diskUsed[node] = 0
		}
	}
}

// DiskUsed returns the staged bytes currently on a node.
func (s *Sim) DiskUsed(node int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if node < 0 || node >= len(s.diskUsed) {
		return 0
	}
	return s.diskUsed[node]
}

// RunStage schedules one stage's tasks and advances the clock by the
// stage's makespan (slowest node) plus the stage overhead.
func (s *Sim) RunStage(tasks []Task) simtime.Duration {
	return s.RunStageReport(tasks, nil, nil).Total
}

// Scratch holds what RunStageReport needs for one call, so a caller that
// runs many stages pays for it once: the node-major task order, the raw
// durations, the lane clocks, and the memory the returned StageReport's
// slices (NodeIO and Tasks) point into. A report built on a Scratch is
// therefore valid only until that Scratch's next use. The zero value is
// ready; what an earlier call left behind, and how much capacity, does
// not matter.
type Scratch struct {
	// ends[n] is where node n's run of order stops (it starts where node
	// n-1's stops); order lists the task indices node by node, ascending
	// within a node; raw[k] is the standalone duration of task order[k].
	ends    []int
	order   []int
	raw     []simtime.Duration
	laneEnd []simtime.Duration
	// perNode backs NodeIO; spans backs Tasks.
	perNode []simtime.Duration
	spans   []TaskSpan
	// SkipLanes leaves Tasks empty: only the tracer reads lanes.
	SkipLanes bool
}

// Raw is the last report's listed (not counted) task durations in the
// order of its Tasks, whether or not they were scheduled.
func (sc *Scratch) Raw() []simtime.Duration { return sc.raw }

// RunStageReport is RunStage plus the stage's observability report: the
// critical-node time decomposition, the straggler-skew summary and the
// per-task lane schedule the tracer renders. A nil Scratch allocates the
// report afresh; with one, the report aliases it (see Scratch).
//
// empty[n] (nil: none) counts node n's empty tasks (no compute, no bytes)
// beside tasks. They cost what listing them would, a launch each and a
// share of MeanTask's divisor, but get no span (they move no lane clock).
func (s *Sim) RunStageReport(tasks []Task, empty []int, sc *Scratch) StageReport {
	if sc == nil {
		sc = new(Scratch)
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	nodes := s.Model.C.Nodes
	sc.groupByNode(tasks, nodes)
	sc.perNode = slices.Grow(sc.perNode[:0], nodes)[:nodes]
	clear(sc.perNode)
	sc.spans = slices.Grow(sc.spans[:0], len(tasks))
	rep := StageReport{Start: s.Clock, NodeIO: sc.perNode[:nodes:nodes]}
	var makespan, rawSum simtime.Duration
	lo, count := 0, 0
	for n, hi := range sc.ends {
		q, raw := sc.order[lo:hi], sc.raw[lo:hi]
		lo = hi
		onNode := len(q)
		if n < len(empty) {
			onNode += empty[n]
		}
		if onNode == 0 {
			continue
		}
		count += onNode
		tr := s.nodeTraffic(tasks, q)
		s.Ledger.Add(simtime.LocalDisk, tr.diskRead+tr.diskWrite)
		s.Ledger.Add(simtime.Network, tr.net)
		s.Ledger.Add(simtime.SharedFS, tr.sharedIO)

		var l load
		l, rawSum = s.nodeLoad(tasks, q, raw, rawSum)
		fluid := s.fluidTime(l)
		compute := fluid + s.launchTime(onNode)
		s.Ledger.Add(simtime.Compute, compute)
		if l.longest > rep.MaxTask {
			rep.MaxTask = l.longest
		}

		s.diskUsed[n] += tr.spill
		if s.failure == nil && s.diskUsed[n] > s.Model.C.Node.Disk.Capacity {
			s.failure = ErrDiskFull{Node: n, Staged: s.diskUsed[n], Cap: s.Model.C.Node.Disk.Capacity}
		}

		io := tr.shuffleIO + tr.sharedIO
		rep.NodeIO[n] = io
		if !sc.SkipLanes {
			sc.laneSchedule(n, s.ExecCores, q, raw, l, fluid, io)
		}
		if total := io + compute; total > makespan {
			makespan = total
			rep.Compute, rep.ShuffleIO, rep.SharedIO = compute, tr.shuffleIO, tr.sharedIO
		}
	}

	rep.Overhead = s.Model.StageOverhead()
	rep.Total = makespan + rep.Overhead
	if count > 0 {
		rep.MeanTask = rawSum / simtime.Duration(float64(count))
	}
	rep.Tasks = sc.spans
	s.Clock += rep.Total
	s.Ledger.Add(simtime.Overhead, rep.Overhead)
	return rep
}

// groupByNode lists the task indices node by node in sc.order without
// moving the tasks, and sizes sc.raw to match: count, turn the counts
// into start offsets, then place each index — which advances every
// node's offset to the end of its run, leaving sc.ends as documented.
// Node indices wrap modulo nodes.
func (sc *Scratch) groupByNode(tasks []Task, nodes int) {
	nodeOf := func(t *Task) int {
		n := t.Node % nodes
		if n < 0 {
			n += nodes
		}
		return n
	}
	sc.ends = slices.Grow(sc.ends[:0], nodes)[:nodes]
	sc.order = slices.Grow(sc.order[:0], len(tasks))[:len(tasks)]
	sc.raw = slices.Grow(sc.raw[:0], len(tasks))[:len(tasks)]
	ends := sc.ends
	clear(ends)
	for i := range tasks {
		ends[nodeOf(&tasks[i])]++
	}
	at := 0
	for n, c := range ends {
		ends[n] = at
		at += c
	}
	for i := range tasks {
		n := nodeOf(&tasks[i])
		sc.order[ends[n]] = i
		ends[n]++
	}
}

// traffic is one node's I/O in a stage: the bytes its tasks stage on the
// local disk, and what moving its network, disk and shared-storage bytes
// costs.
type traffic struct {
	spill                    int64
	diskRead, net, diskWrite simtime.Duration
	// shuffleIO is (diskRead + net) + diskWrite; sharedIO the shared-fs
	// read time.
	shuffleIO, sharedIO simtime.Duration
}

// nodeTraffic prices the I/O of the tasks q of one node: shuffle reads
// come off disks and (for remote chunks) through the node's link;
// shuffle writes and shared-fs traffic are serial with compute.
func (s *Sim) nodeTraffic(tasks []Task, q []int) traffic {
	var fetched, remote, spill, shared int64
	for _, idx := range q {
		t := &tasks[idx]
		fetched += t.FetchLocal + t.FetchRemote
		remote += t.FetchRemote
		spill += t.Spill
		shared += t.SharedRead
	}
	tr := traffic{spill: spill}
	tr.diskRead = s.Model.DiskReadTime(fetched)
	tr.net = s.Model.NetTime(remote)
	tr.diskWrite = s.Model.DiskWriteTime(spill)
	tr.shuffleIO = tr.diskRead + tr.net + tr.diskWrite
	tr.sharedIO = s.Model.SharedReadTime(shared)
	return tr
}

// load is what one node's tasks ask of its cores in a stage.
type load struct {
	// work is Σ compute × busy threads plus the single-core
	// serialization, idle is Σ compute × spinning idle threads (both in
	// thread-seconds), and sum is Σ raw task durations in seconds.
	work, idle, sum float64
	// busy counts the tasks with a nonzero raw duration; longest is the
	// largest raw duration.
	busy    int
	longest simtime.Duration
}

// nodeLoad writes each of the tasks q's standalone duration to raw —
// its compute plus the single-core (de)serialization its shuffled bytes
// pay inside the task (pySpark pickling) — and sums the node's load. It
// also adds each duration to rawSum, the stage's running total, and
// returns that total: MeanTask is one running sum over the stage in
// node-major order, so its bits do not depend on per-node subtotals.
func (s *Sim) nodeLoad(tasks []Task, q []int, raw []simtime.Duration, rawSum simtime.Duration) (load, simtime.Duration) {
	var work, idle, sum float64
	var busy int
	var longest simtime.Duration
	for i, idx := range q {
		t := &tasks[idx]
		th := max(t.Threads, 1)
		ser := s.Model.SerializeTime(t.Spill + t.FetchLocal + t.FetchRemote)
		c := t.Compute + ser
		raw[i] = c
		rawSum += c
		work += t.Compute.Seconds()*float64(th) + ser.Seconds()
		idle += t.Compute.Seconds() * float64(t.IdleThreads)
		sum += c.Seconds()
		if c > 0 {
			busy++
		}
		if c > longest {
			longest = c
		}
	}
	return load{work: work, idle: idle, sum: sum, busy: busy, longest: longest}, rawSum
}

// fluidTime is a node's compute time under a fluid list-scheduling bound:
// the executor keeps ExecCores task slots busy (Spark dispatches a new
// task as soon as a slot frees), each running task occupies its busy
// threads, and the node cannot exceed its physical cores — demanding
// more adds a thread-switching (spin) penalty. The result is the larger
// of the bandwidth bound work/throughput and the longest single task
// (the straggler bound).
func (s *Sim) fluidTime(l load) simtime.Duration {
	if l.work <= 0 {
		return 0
	}
	cores := float64(s.Model.C.Node.Cores)
	conc := float64(min(l.busy, s.ExecCores))
	demandBusy := conc * (l.work / l.sum)
	demandIdle := conc * (l.idle / l.sum)
	usable := demandBusy
	if usable > cores {
		usable = cores
	}
	spin := 1.0
	if ratio := demandBusy / cores; ratio > 1 {
		spin += s.OversubPenalty * (ratio - 1)
	}
	if total := demandBusy + demandIdle; demandIdle > 0 && total > cores {
		// Spinning hurts superlinearly in how outnumbered the busy
		// threads are: a 4-wide kernel run with 32 OMP threads
		// (idle/busy = 7) thrashes far worse than a 16-wide kernel with
		// the same thread count (idle/busy = 1) — the Tables I vs II
		// omp=32 contrast.
		pressure := total / cores
		outnumber := demandIdle / demandBusy
		spin += s.SpinQuad * pressure * outnumber * outnumber
	}
	compute := simtime.Duration(l.work / (usable / spin))
	if l.longest > compute {
		compute = l.longest
	}
	return compute
}

// launchTime is the launch overhead of n tasks, amortized across the
// executor's task slots.
func (s *Sim) launchTime(n int) simtime.Duration {
	slots := max(min(s.ExecCores, n), 1)
	return simtime.Duration(float64(n) / float64(slots) * s.Model.TaskOverhead().Seconds())
}

// laneSchedule appends node n's task spans to sc.spans for the tracer:
// it list-schedules the tasks q greedily onto the node's executor-core
// lanes, each task's length its share of the node's fluid compute
// window, lanes starting after the node's serial I/O (matching the
// model's io + compute order).
func (sc *Scratch) laneSchedule(n, execCores int, q []int, raw []simtime.Duration, l load, fluid, io simtime.Duration) {
	lanes := execCores
	if l.busy > 0 && l.busy < lanes {
		lanes = l.busy
	}
	lanes = max(lanes, 1)
	scale := 0.0
	if l.sum > 0 {
		scale = fluid.Seconds() * float64(lanes) / l.sum
	}
	sc.laneEnd = slices.Grow(sc.laneEnd[:0], lanes)[:lanes]
	laneEnd := sc.laneEnd
	for i := range laneEnd {
		laneEnd[i] = io
	}
	for i, idx := range q {
		lane := 0
		for j := 1; j < lanes; j++ {
			if laneEnd[j] < laneEnd[lane] {
				lane = j
			}
		}
		dur := simtime.Duration(raw[i].Seconds() * scale)
		sc.spans = append(sc.spans, TaskSpan{Index: idx, Node: n, Lane: lane, Start: laneEnd[lane], Dur: dur, Raw: raw[i]})
		laneEnd[lane] += dur
	}
}
