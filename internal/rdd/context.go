package rdd

import (
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"dpspark/internal/cluster"
	"dpspark/internal/costmodel"
	"dpspark/internal/kernels"
	"dpspark/internal/obs"
	"dpspark/internal/sim"
	"dpspark/internal/simtime"
	"dpspark/internal/store"
)

// Conf configures an engine context — the spark-submit settings of the
// paper's experiments.
type Conf struct {
	// Substrate mounts the context on a shared scheduler/executor
	// substrate (multi-tenant serving): the cluster spec, kernel pools
	// and real task slots come from the substrate, so Cluster and
	// KernelThreads must be left zero.
	// Lineage, shuffle state, fault plans and the virtual clock stay
	// per-context. Nil (the default) gives the context a private substrate
	// built from Cluster and KernelThreads with NumCPU task slots, so a
	// solo context dispatches its tasks through the same slot scheduler.
	Substrate *Substrate
	// Priority orders this context's tasks against sibling contexts on
	// the same Substrate when real task slots are contended: higher wins,
	// FIFO within a priority. Needs a Substrate: a nonzero Priority
	// without one is rejected.
	Priority int
	// Cluster describes the (simulated) hardware. Required unless
	// Substrate is set (the substrate supplies it).
	Cluster *cluster.Cluster
	// ExecutorCores is the number of concurrent task slots per executor
	// (spark.executor.cores). Default: all physical cores per node, or
	// cores/KernelThreads when KernelThreads > 1 — the paper's
	// cores×threads split keeps task-slots × kernel-threads equal to the
	// physical core count.
	ExecutorCores int
	// KernelThreads is the OMP_NUM_THREADS analogue: the width of the
	// shared per-node kernel worker pool handed to every task's kernel
	// invocations (TaskContext.KernelPool). 1 (the default) runs kernels
	// serially and creates no pools; negative values are rejected. The
	// pool bounds real intra-kernel concurrency per node — tasks on one
	// node share it, so total kernel workers never exceed this width.
	KernelThreads int
	// FaultPlan, when set, schedules deterministic whole-executor
	// failures: crashes (map outputs lost + blacklist), staging-disk
	// losses and slow-task stragglers. See RandomFaultPlan. The plan is
	// never mutated, so one plan can drive several contexts.
	FaultPlan *FaultPlan
	// Speculation enables speculative execution: after a stage's tasks
	// finish computing, tasks slower than 1.5 × the 0.75-quantile task
	// duration (Spark's spark.speculation.multiplier and .quantile
	// defaults) get a copy launched on another executor; the first result
	// wins and the loser is killed at the winner's finish time — its work
	// is still charged to the cost model (spark.speculation).
	Speculation bool
	// Observer receives the context's spans and metrics. Nil creates a
	// private observer; pass a shared one to aggregate several contexts
	// (e.g. a sweep) into one trace/metrics export.
	Observer *obs.Observer
	// DurableDir roots the durable block store: non-combining shuffle
	// buckets and broadcast payloads are staged as checksummed blocks
	// under it, and MemoryBudget-pressure eviction spills them to disk.
	// Empty (the default) disables the store entirely. The directory must
	// be creatable; each context expects its own.
	DurableDir string
	// MemoryBudget caps the encoded bytes the durable block store holds
	// in its memory tier before evicting least-recently-used blocks to
	// disk; staged records share their tiles with the live grid and are
	// not counted. Default 0 means unbounded (blocks only reach disk via
	// fault injection); negative values are rejected, and a positive
	// budget requires DurableDir.
	MemoryBudget int64
	// SpillCodec serializes records for the durable store (core supplies
	// a tile codec). Without one, shuffle/broadcast staging is skipped
	// even when DurableDir is set.
	SpillCodec Codec
	// HeartbeatInterval enables the heartbeat/lease failure detector:
	// executors heartbeat the driver every HeartbeatInterval modelled
	// seconds, the scheduler suspects a node after one missed lease and
	// declares it dead after two consecutive misses — so every declared
	// loss charges 2 × HeartbeatInterval of detection latency to the
	// modelled clock (Breakdown.Detection, critical-path phase
	// "detection") before recovery can begin. 0 (the default) is the same
	// delivery at latency 0: injected faults are scheduler-visible the
	// instant they fire and nothing is charged. Negative values are
	// rejected. Required for FaultPlan GC pauses — false suspicion only
	// exists with a detector.
	HeartbeatInterval simtime.Duration
	// JobLabel tags every flight-recorder event this context produces with
	// a job ID, so multi-tenant observers can filter /events?job=ID down
	// to one tenant. Empty (the default) leaves events unlabelled.
	JobLabel string
	// Restore seeds a fresh context with a checkpointed EngineState so a
	// resumed run continues the stage/shuffle numbering and skips fault
	// events that fired before the checkpoint. Validated against the
	// FaultPlan and cluster size.
	Restore *EngineState

	// keepShuffles is how many most-recent shuffles stay staged before
	// the engine emulates Spark's shuffle cleanup (old generations are
	// deleted from the local disks). Default 8; tests that need a
	// narrower or wider window set it.
	keepShuffles int
}

// normalize is the single place Conf is validated and defaulted — every
// context construction path goes through it, so a hand-built Conf can
// never smuggle an unnormalized value past NewContext.
func (conf *Conf) normalize() error {
	if conf.Substrate == nil {
		if conf.Priority != 0 {
			return fmt.Errorf("rdd: Conf.Priority needs Conf.Substrate — priorities order jobs contending for shared task slots")
		}
		// A solo context runs on a substrate of its own, built from its
		// own fields: one task-dispatch path for solo and mounted jobs.
		s, err := NewSubstrate(SubstrateConf{Cluster: conf.Cluster, KernelThreads: conf.KernelThreads})
		if err != nil {
			return err
		}
		conf.Substrate = s
	}
	// The substrate owns everything shared across mounted jobs; a per-job
	// override of those fields would silently diverge from what siblings
	// see, so they must be left zero.
	s := conf.Substrate
	if conf.Cluster != nil && conf.Cluster != s.cluster {
		return fmt.Errorf("rdd: Conf.Cluster must be unset with Conf.Substrate — the substrate supplies the cluster")
	}
	if conf.KernelThreads != 0 && conf.KernelThreads != s.kernelThreads {
		return fmt.Errorf("rdd: Conf.KernelThreads must be unset with Conf.Substrate — the substrate owns the kernel pools")
	}
	conf.Cluster = s.cluster
	conf.KernelThreads = s.kernelThreads
	if conf.HeartbeatInterval < 0 {
		return fmt.Errorf("rdd: Conf.HeartbeatInterval must be ≥ 0 (0 disables the failure detector), got %v", conf.HeartbeatInterval)
	}
	if conf.FaultPlan != nil {
		if err := conf.FaultPlan.validate(conf.Cluster.Nodes, conf.HeartbeatInterval > 0); err != nil {
			return err
		}
	}
	if conf.MemoryBudget < 0 {
		return fmt.Errorf("rdd: Conf.MemoryBudget must be ≥ 0 (0 means unbounded), got %d", conf.MemoryBudget)
	}
	if conf.MemoryBudget > 0 && conf.DurableDir == "" {
		return fmt.Errorf("rdd: Conf.MemoryBudget %d needs Conf.DurableDir — eviction has nowhere to spill", conf.MemoryBudget)
	}
	if conf.DurableDir != "" {
		if err := os.MkdirAll(conf.DurableDir, 0o755); err != nil {
			return fmt.Errorf("rdd: Conf.DurableDir %q is not creatable: %w", conf.DurableDir, err)
		}
	}
	if conf.Restore != nil {
		if err := validateRestore(conf.Restore, conf.FaultPlan, conf.Cluster.Nodes); err != nil {
			return err
		}
	}
	if conf.ExecutorCores <= 0 {
		conf.ExecutorCores = conf.Cluster.Node.Cores
		if conf.KernelThreads > 1 {
			// Co-tune the split: k-thread kernels shrink the task-slot
			// budget so slots × threads covers the cores exactly once.
			conf.ExecutorCores = conf.Cluster.Node.Cores / conf.KernelThreads
			if conf.ExecutorCores < 1 {
				conf.ExecutorCores = 1
			}
		}
	}
	if conf.keepShuffles == 0 {
		conf.keepShuffles = 8
	}
	return nil
}

// Context is the engine's driver: it owns the lineage graph, the shuffle
// store, the virtual clock and the failure state. It corresponds to a
// SparkContext.
type Context struct {
	conf  Conf
	model *costmodel.Model
	simul *sim.Sim
	obsv  *obs.Observer
	pid   int

	// store is the durable block store (nil without Conf.DurableDir); it
	// stages shuffle buckets and broadcast payloads as checksummed blocks.
	store *store.Store

	// cancel is closed by Cancel (idempotent); cancelErr is the cause,
	// written under mu before the close so readers that observe the
	// closed channel always see it.
	cancel     chan struct{}
	cancelOnce sync.Once
	cancelErr  error

	// faults is the fired-event/blacklist state for Conf.FaultPlan (nil
	// without a plan); ledger holds the recovery counters.
	faults *faultState
	ledger ledger

	laneNames sync.Once

	// tape is being recorded (RecordTape to StopTape); tasks read it
	// unlocked, as it changes only while no stage runs.
	tape *Tape

	mu            sync.Mutex
	nextDataset   int
	nextShuffle   int
	nextStage     int
	nextBroadcast int
	// shuffles maps a shuffle ID to its materialized state. A retired
	// shuffle keeps its key with a nil state — the tombstone: lineage walks
	// must still skip it and a read of it must still say why it is gone.
	// live lists the states that are not retired, oldest first, so nothing
	// that walks shuffles pays for those a long-lived context has retired.
	shuffles map[int]*shuffleState
	live     []*shuffleState
	taskErr  error
	events   []StageEvent
	phase    string
	bd       Breakdown

	// stageMetrics caches resolved stage-metric handles per (stage kind,
	// phase): the registry lookup encodes and hashes a label map per
	// call, which is pure overhead for the handful of label combinations
	// a run produces, looked up once per executed stage.
	stageMetrics sync.Map // stageMetricsKey → *stageMetricHandles
}

// stageMetricsKey identifies one stage-metric label combination.
type stageMetricsKey struct {
	kind  StageKind
	phase string
}

// stageMetricHandles holds the resolved metric family handles for one
// (kind, phase) combination.
type stageMetricHandles struct {
	stages, tasks, write, fetch *obs.Counter
	taskSeconds                 *obs.Histogram
	skewHist                    *obs.Histogram
	skewGauge                   *obs.Gauge
}

// Breakdown is the context's accumulated overlapping time decomposition
// plus traffic counters. Unlike the Ledger's resource-seconds, the four
// time components sum exactly to the virtual clock: every stage
// contributes its makespan node's split (sim.StageReport) and every
// driver-side advance is attributed by category. Recovery and Detection
// overlap those four — a resubmitted stage counts in both — so this is
// not the critical-path profiler's exclusive attribution (obs), which
// charges a resubmitted stage to recovery only.
type Breakdown struct {
	// Compute is kernel/task compute time on the critical path.
	Compute simtime.Duration
	// Shuffle is shuffle I/O (local-disk staging + network fetches).
	Shuffle simtime.Duration
	// Broadcast is collect/broadcast movement: shared-filesystem traffic
	// plus driver-side collect transfers.
	Broadcast simtime.Duration
	// Overhead is scheduling overhead (job, stage, task launch is inside
	// Compute; driver bookkeeping lands here).
	Overhead simtime.Duration
	// Recovery is the clock time spent in resubmitted (recovery) stages —
	// recomputing map outputs lost to executor crashes or disk losses. It
	// overlaps the four components above (recovery stages attribute their
	// time there too) and is therefore NOT part of Total(); it answers
	// "how much of the run was failure recovery".
	Recovery simtime.Duration
	// Detection is the clock time spent waiting for the heartbeat failure
	// detector to declare losses (2 × Conf.HeartbeatInterval per
	// declaration wave). Like Recovery it is an overlapping attribution
	// (the wait also lands in Overhead) and NOT part of Total(); it answers
	// "how much of the run was failure detection latency". Always 0 with
	// the detector off.
	Detection simtime.Duration
	// ShuffleWriteBytes and ShuffleFetchBytes count shuffle traffic.
	ShuffleWriteBytes, ShuffleFetchBytes int64
	// BroadcastBytes counts shared-filesystem traffic (staged + fetched).
	BroadcastBytes int64
}

// Total sums the four time components (equals the clock advance they
// were accumulated over).
func (b Breakdown) Total() simtime.Duration {
	return b.Compute + b.Shuffle + b.Broadcast + b.Overhead
}

// Sub returns the component-wise difference b − other (for deltas
// between two snapshots).
func (b Breakdown) Sub(other Breakdown) Breakdown {
	return Breakdown{
		Compute:           b.Compute - other.Compute,
		Shuffle:           b.Shuffle - other.Shuffle,
		Broadcast:         b.Broadcast - other.Broadcast,
		Overhead:          b.Overhead - other.Overhead,
		Recovery:          b.Recovery - other.Recovery,
		Detection:         b.Detection - other.Detection,
		ShuffleWriteBytes: b.ShuffleWriteBytes - other.ShuffleWriteBytes,
		ShuffleFetchBytes: b.ShuffleFetchBytes - other.ShuffleFetchBytes,
		BroadcastBytes:    b.BroadcastBytes - other.BroadcastBytes,
	}
}

// shuffleState is a materialized shuffle, indexed by reduce partition.
// The mutable fields are guarded by mu (an RWMutex: reduce-side reads
// take the read lock so a concurrent recovery can rewrite the lost
// buckets under the write lock); recMu serializes recoveries of this
// shuffle so concurrent fetch failures trigger one resubmission, and
// holds retirement off until a running recovery is done.
type shuffleState struct {
	dep *shuffleDep
	// mapStage is the global stage ID of the shuffle's map stage;
	// resubmissions reuse it (with a bumped attempt), like Spark, so
	// planned stage numbering is identical with and without faults.
	mapStage int

	mu sync.RWMutex
	// The partition-indexed arrays; retirement hands them to the next
	// shuffle, so they are only touched under recMu, or under mu after
	// seeing retired false.
	shuffleArrays
	spillByNode []int64
	// lost flags map partitions whose staged output is gone (executor
	// crash / disk loss); fetches touching them raise FetchFailedError.
	lost map[int]bool
	// epoch increments on every completed recovery; a FetchFailedError
	// carrying an older epoch means someone else already recovered.
	epoch int
	// attempts counts map-stage executions (1 = initial run).
	attempts int
	// commitLease is the attempt index currently holding the map-output
	// commit lease: only that attempt's buckets may register in the merge.
	// Each map-stage execution takes the lease as it launches, so a
	// resubmission triggered by a false suspicion revokes the zombie
	// attempt's right to commit before its late output can land.
	commitLease int
	// zombieParts maps a map partition invalidated by a false suspicion to
	// the commit lease its stale output was registered under. The recovery
	// merge consults it: dropping the stale refs is the zombie's commit
	// arriving late, and the lease mismatch fences it (counted, evented).
	zombieParts map[int]int
	done        bool
	retired     bool
	// pins counts the reads whose chunks alias the bucket slabs; a
	// retired shuffle is recycled (its arrays and slabs released) when it
	// reaches zero, once.
	pins     atomic.Int32
	recycled bool

	recMu sync.Mutex
}

// shuffle looks a shuffle up: its state (nil before it materializes), or
// retired when only the tombstone is left.
func (c *Context) shuffle(id int) (st *shuffleState, retired bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.shuffles[id]
	return st, ok && st == nil
}

// isDone reports whether the shuffle's map side has materialized.
func (st *shuffleState) isDone() bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.done
}

// NewContext creates an engine context. The Conf is validated and
// defaulted by Conf.normalize; invalid settings (a negative
// HeartbeatInterval, a fault plan naming nodes outside the cluster) panic
// with a clear error.
func NewContext(conf Conf) *Context {
	if err := conf.normalize(); err != nil {
		panic(err)
	}
	m := costmodel.New(conf.Cluster)
	if conf.Observer == nil {
		conf.Observer = obs.New()
	}
	c := &Context{
		conf:     conf,
		model:    m,
		simul:    sim.New(m, conf.ExecutorCores),
		obsv:     conf.Observer,
		cancel:   make(chan struct{}),
		shuffles: make(map[int]*shuffleState),
	}
	if conf.FaultPlan != nil {
		c.faults = newFaultState(conf.FaultPlan, conf.Cluster.Nodes)
	}
	if conf.DurableDir != "" {
		st, err := store.Open(conf.DurableDir, store.Options{
			MemoryBudget: conf.MemoryBudget,
			Registry:     conf.Observer.Metrics(),
			Flight:       conf.Observer.Flight(),
		})
		if err != nil {
			panic(err)
		}
		c.store = st
	}
	if conf.Restore != nil {
		c.restoreEngineState(conf.Restore)
	}
	c.ledger.resolve(conf.Observer.Metrics())
	// Flight-recorder events without an explicit timestamp stamp the
	// virtual clock; with several sequential contexts on one observer the
	// latest context's clock wins, matching the events being recorded.
	c.obsv.Flight().SetClockSource(c.Clock)
	c.pid = c.obsv.RegisterProcess(fmt.Sprintf("dpspark %s×%d", conf.Cluster, conf.ExecutorCores))
	c.obsv.NameThread(c.pid, 0, "driver")
	return c
}

// Observer returns the context's observability sink (tracer + metrics).
func (c *Context) Observer() *obs.Observer { return c.obsv }

// TracePid is the context's trace process id (one lane group per context
// in the Chrome trace).
func (c *Context) TracePid() int { return c.pid }

// SetPhase labels subsequent work for observability: shuffle dependencies
// capture the phase current at their creation (so lazily materialized
// stages are attributed to the driver phase that built them), result
// stages the phase current at execution.
func (c *Context) SetPhase(name string) {
	c.mu.Lock()
	c.phase = name
	c.mu.Unlock()
}

// CurrentPhase returns the active phase label.
func (c *Context) CurrentPhase() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.phase
}

// Breakdown returns a snapshot of the accumulated critical-path time
// decomposition; Breakdown().Total() equals Clock().
func (c *Context) Breakdown() Breakdown {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bd
}

// EmitDriverSpan records a span on the context's driver lane running from
// start to the current virtual clock (no-op while tracing is off).
func (c *Context) EmitDriverSpan(name, cat string, start simtime.Duration, args map[string]string) {
	if !c.obsv.TraceEnabled() {
		return
	}
	c.obsv.Add(obs.Span{
		Name: name, Cat: cat, Pid: c.pid, Tid: 0,
		Start: start, Dur: c.Clock() - start, Args: args,
	})
}

// Model returns the cost model (map functions price kernels against it).
func (c *Context) Model() *costmodel.Model { return c.model }

// Cluster returns the cluster spec.
func (c *Context) Cluster() *cluster.Cluster { return c.conf.Cluster }

// ExecutorCores returns the per-executor task-slot setting.
func (c *Context) ExecutorCores() int { return c.conf.ExecutorCores }

// KernelThreads returns the per-invocation kernel thread budget (the
// width of the shared per-node kernel pools; 1 means serial kernels).
func (c *Context) KernelThreads() int { return c.conf.KernelThreads }

// kernelPool returns the node's shared kernel worker pool (nil when
// KernelThreads ≤ 1 or the node index is out of range).
func (c *Context) kernelPool(node int) *kernels.Pool {
	if node < 0 || node >= len(c.conf.Substrate.kernelPools) {
		return nil
	}
	return c.conf.Substrate.kernelPools[node]
}

// KernelPoolStats sums the scheduling counters of every node's kernel
// pool: branches spawned on their own goroutine, branches inlined on the
// caller, and barrier token hand-offs. All zero when KernelThreads ≤ 1.
func (c *Context) KernelPoolStats() (spawned, inlined, handoffs int64) {
	for _, p := range c.conf.Substrate.kernelPools {
		s, i, h := p.Stats()
		spawned += s
		inlined += i
		handoffs += h
	}
	return spawned, inlined, handoffs
}

// KeepShuffles returns how many recent shuffle generations stay staged
// (drivers with multi-iteration lineage windows must fit inside it).
func (c *Context) KeepShuffles() int { return c.conf.keepShuffles }

// Clock returns the job's virtual time so far.
func (c *Context) Clock() simtime.Duration { return c.simul.Now() }

// Ledger returns the virtual resource-time ledger.
func (c *Context) Ledger() *simtime.Ledger { return c.simul.Ledger }

// ErrJobCanceled is the default cancellation cause: Context.Err (and
// action results) wrap or equal it after Cancel, so callers distinguish
// a cancelled job from a failed one with errors.Is.
var ErrJobCanceled = fmt.Errorf("rdd: job canceled")

// Cancel requests cooperative cancellation: in-flight tasks finish
// their current attempt, queued tasks and slot waiters abort, and Err
// reports the cause from then on — so driver loops checking Err at
// iteration boundaries stop promptly. A nil
// cause means ErrJobCanceled; wrap ErrJobCanceled to attach context
// (e.g. a deadline) while keeping errors.Is working. Idempotent: the
// first cause wins.
func (c *Context) Cancel(cause error) {
	c.cancelOnce.Do(func() {
		if cause == nil {
			cause = ErrJobCanceled
		}
		c.mu.Lock()
		c.cancelErr = cause
		c.mu.Unlock()
		close(c.cancel)
	})
}

// Canceled returns a channel closed once the context is cancelled.
func (c *Context) Canceled() <-chan struct{} { return c.cancel }

// CancelCause returns the cancellation cause, or nil if the context is
// not cancelled.
func (c *Context) CancelCause() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cancelErr
}

// acquireSlot takes one substrate-wide real-execution slot (highest
// Conf.Priority first), or reports false if the context is cancelled
// while waiting.
func (c *Context) acquireSlot() bool {
	return c.conf.Substrate.sched.acquire(c.conf.Priority, c.cancel)
}

// releaseSlot returns a slot taken by acquireSlot.
func (c *Context) releaseSlot() { c.conf.Substrate.sched.release() }

// Err returns the first failure (a failed task, cancellation, staging
// disk full), if any.
func (c *Context) Err() error {
	c.mu.Lock()
	taskErr, cancelErr := c.taskErr, c.cancelErr
	c.mu.Unlock()
	if taskErr != nil {
		return taskErr
	}
	if cancelErr != nil {
		return cancelErr
	}
	return c.simul.Err()
}

// recordTaskErr keeps the first task failure for the next action to
// surface.
func (c *Context) recordTaskErr(err error) {
	c.mu.Lock()
	if c.taskErr == nil {
		c.taskErr = err
	}
	c.mu.Unlock()
}

// AdvanceDriver charges driver-side virtual time (used by broadcast and
// the drivers' per-iteration bookkeeping) and attributes it in the
// breakdown: network and shared-fs charges are collect/broadcast data
// movement, local-disk charges are shuffle I/O, the rest splits between
// compute and overhead.
func (c *Context) AdvanceDriver(d simtime.Duration, cat simtime.Category) {
	c.advanceDriver(d, cat, "")
}

// advanceDriver is AdvanceDriver with an explicit critical-path phase
// ("": the one the category is attributed to), so recovery paths can
// charge standard breakdown categories while the profiler attributes the
// advance to recovery or detection — phases that also feed the breakdown's
// overlapping Recovery / Detection totals.
func (c *Context) advanceDriver(d simtime.Duration, cat simtime.Category, critPhase string) {
	start, end := c.simul.Advance(d, cat)
	phase := obs.PhaseOverhead
	c.mu.Lock()
	switch cat {
	case simtime.Network, simtime.SharedFS:
		c.bd.Broadcast += d
		phase = obs.PhaseBroadcast
	case simtime.LocalDisk:
		c.bd.Shuffle += d
		phase = obs.PhaseShuffle
	case simtime.Compute:
		c.bd.Compute += d
		phase = obs.PhaseCompute
	default:
		c.bd.Overhead += d
	}
	switch critPhase {
	case "":
		critPhase = phase
	case obs.PhaseRecovery:
		c.bd.Recovery += d
	case obs.PhaseDetection:
		c.bd.Detection += d
	}
	if c.tape != nil {
		c.tape.steps = append(c.tape.steps, func(c *Context, _ []Charge) { c.advanceDriver(d, cat, critPhase) })
	}
	c.mu.Unlock()
	if cp := c.obsv.CritPath(); cp.Enabled() {
		cp.RecordSegment(c.pid, obs.CritSegment{Start: start, End: end, Phase: critPhase})
	}
}

// releaseShuffle frees bytes of staged shuffle output on node.
func (c *Context) releaseShuffle(node int, bytes int64) {
	c.mu.Lock()
	if c.tape != nil {
		c.tape.steps = append(c.tape.steps, func(c *Context, _ []Charge) { c.releaseShuffle(node, bytes) })
	}
	c.mu.Unlock()
	c.simul.ReleaseShuffle(node, bytes)
}

// recordEvent forwards one flight-recorder event, stamped with the
// context's job label (Conf.JobLabel) so multi-tenant observers can
// filter /events down to one tenant. Every rdd-side producer goes
// through it; events from contexts without a label stay unlabelled.
func (c *Context) recordEvent(ev obs.Event) {
	ev.Job = c.conf.JobLabel
	c.obsv.Flight().Record(ev)
}

// addBroadcastBytes accounts driver-staged broadcast payload bytes.
func (c *Context) addBroadcastBytes(n int64) {
	c.mu.Lock()
	c.bd.BroadcastBytes += n
	if c.tape != nil {
		c.tape.steps = append(c.tape.steps, func(c *Context, _ []Charge) { c.addBroadcastBytes(n) })
	}
	c.mu.Unlock()
}

// nodeOf places a partition on an executor.
func (c *Context) nodeOf(split int) int {
	n := split % c.conf.Cluster.Nodes
	if n < 0 {
		n += c.conf.Cluster.Nodes
	}
	return n
}

// laneTid maps an executor core (or, at lane == ExecutorCores, the
// node's I/O lane) to its trace thread id. tid 0 is the driver lane.
func (c *Context) laneTid(node, lane int) int {
	return 1 + node*(c.conf.ExecutorCores+1) + lane
}

// nameTraceLanes registers the per-core and per-node-IO trace lane names
// (done once, on the first traced stage).
func (c *Context) nameTraceLanes() {
	cores := c.conf.ExecutorCores
	for n := 0; n < c.conf.Cluster.Nodes; n++ {
		for l := 0; l < cores; l++ {
			c.obsv.NameThread(c.pid, c.laneTid(n, l), fmt.Sprintf("node%d core%d", n, l))
		}
		c.obsv.NameThread(c.pid, c.laneTid(n, cores), fmt.Sprintf("node%d io", n))
	}
}

// Speculation thresholds: a task is a straggler when it runs longer than
// speculationMultiplier × the speculationQuantile task duration of its
// stage (Spark's spark.speculation.multiplier / .quantile defaults).
const (
	speculationMultiplier = 1.5
	speculationQuantile   = 0.75
)

// speculate applies speculative execution to a stage's virtual tasks:
// tasks slower than speculationMultiplier × the speculationQuantile task
// duration get a copy on the next alive executor. The copy's healthy
// duration is the task's compute minus any injected straggler dilation
// (plus a task launch); whichever of original and copy finishes first
// wins, the loser is killed at that moment — so BOTH executors are
// charged the winner's duration, exactly Spark's first-result-wins with
// non-free losers.
func (c *Context) speculate(tcs []TaskContext, tasks []sim.Task, asOf simtime.Duration) []sim.Task {
	if len(tcs) < 2 {
		return tasks
	}
	durs := make([]simtime.Duration, len(tcs))
	for i := range tcs {
		durs[i] = tcs[i].compute
	}
	slices.Sort(durs)
	quantile := durs[int(speculationQuantile*float64(len(durs)-1))]
	threshold := simtime.Duration(quantile.Seconds() * speculationMultiplier)
	if threshold <= 0 {
		return tasks
	}
	for i := range tcs {
		tc := &tcs[i]
		if tc.compute <= threshold {
			continue
		}
		// The copy needs a live executor other than the straggler's own;
		// without one (single-node cluster, or every other node
		// blacklisted) the task is left to finish where it runs.
		copyNode := c.nextAlive(tc.Node, asOf)
		if copyNode < 0 {
			continue
		}
		healthy := tc.compute - tc.slowed + c.model.TaskOverhead()
		winner := simtime.Min(tc.compute, healthy)
		c.count(recSpecLaunched, 1)
		if healthy < tc.compute {
			c.count(recSpecWins, 1)
		}
		c.recordEvent(obs.Event{
			Clock: asOf.Seconds(), Type: obs.EvSpeculation,
			Stage: tc.StageID, Part: tc.Partition, Node: copyNode, Shuffle: -1,
			Detail: fmt.Sprintf("copy of node %d task (slowed %s)", tc.Node, tc.slowed),
		})
		tasks[i].Compute = winner
		// The copy re-runs the task's compute on another executor until
		// the winner finishes; its shuffle I/O stays with the original
		// (the copy's partial fetches are not separately modelled).
		tasks = append(tasks, sim.Task{
			Node:        copyNode,
			Compute:     winner,
			Threads:     tc.Threads(),
			IdleThreads: tc.idleThreads,
		})
	}
	return tasks
}

// recordStageMetrics updates the always-on metric families for one
// executed stage.
func (c *Context) recordStageMetrics(ev StageEvent, sc *stageScratch) {
	m := c.stageMetricHandles(ev.Kind, ev.Phase)
	m.stages.Inc()
	m.tasks.Add(int64(ev.Tasks))
	m.write.Add(ev.SpillBytes)
	m.fetch.Add(ev.FetchBytes)
	// One locked batch, in the order of the report's task spans (node
	// major): the histogram's sum adds up the way a per-task Observe
	// would.
	sc.secs = sc.secs[:0]
	for _, raw := range sc.sim.Raw() {
		sc.secs = append(sc.secs, raw.Seconds())
	}
	m.taskSeconds.ObserveAll(sc.secs)
	if ev.MeanTask > 0 {
		skew := ev.MaxTask.Seconds() / ev.MeanTask.Seconds()
		m.skewHist.Observe(skew)
		m.skewGauge.SetMax(skew)
	}
}

// stageMetricHandles resolves (and caches) the stage-metric handles for
// one (kind, phase) combination.
func (c *Context) stageMetricHandles(kind StageKind, phase string) *stageMetricHandles {
	key := stageMetricsKey{kind: kind, phase: phase}
	if m, ok := c.stageMetrics.Load(key); ok {
		return m.(*stageMetricHandles)
	}
	reg := c.obsv.Metrics()
	kl := obs.Labels{"kind": kind.String(), "phase": phase}
	m := &stageMetricHandles{
		stages:      reg.Counter("dpspark_stages_total", kl),
		tasks:       reg.Counter("dpspark_tasks_total", kl),
		write:       reg.Counter("dpspark_shuffle_write_bytes_total", kl),
		fetch:       reg.Counter("dpspark_shuffle_fetch_bytes_total", kl),
		taskSeconds: reg.Histogram("dpspark_task_seconds", obs.Labels{"kind": kind.String()}, taskSecondsBuckets),
		skewHist:    reg.Histogram("dpspark_stage_skew", nil, stageSkewBuckets),
		skewGauge:   reg.Gauge("dpspark_max_task_skew", nil),
	}
	actual, _ := c.stageMetrics.LoadOrStore(key, m)
	return actual.(*stageMetricHandles)
}

// Bucket layouts for the stage metric histograms: task durations span
// ~100 µs kernels to multi-minute stragglers; skew is MaxTask/MeanTask
// so it starts at 1 (perfect balance).
var (
	taskSecondsBuckets = obs.ExpBuckets(1e-4, 2, 24)
	stageSkewBuckets   = obs.LinearBuckets(1, 0.25, 24)
)

// emitStageSpans renders one stage into trace spans: a stage span on the
// driver lane, an I/O span per active node, and one span per task on its
// executor-core lane.
func (c *Context) emitStageSpans(ev StageEvent, rep sim.StageReport) {
	c.laneNames.Do(c.nameTraceLanes)
	cat := "stage"
	if ev.Phase != "" {
		cat = "stage," + ev.Phase
	}
	c.obsv.Add(obs.Span{
		Name: fmt.Sprintf("stage %d %s", ev.StageID, ev.Kind), Cat: cat,
		Pid: c.pid, Tid: 0, Start: rep.Start, Dur: rep.Total,
		Args: map[string]string{
			"phase": ev.Phase,
			"tasks": fmt.Sprint(len(rep.Tasks)),
			"spill": fmt.Sprintf("%dB", ev.SpillBytes),
			"fetch": fmt.Sprintf("%dB", ev.FetchBytes),
		},
	})
	for n, io := range rep.NodeIO {
		if io > 0 {
			c.obsv.Add(obs.Span{
				Name: fmt.Sprintf("io stage %d", ev.StageID), Cat: "io",
				Pid: c.pid, Tid: c.laneTid(n, c.conf.ExecutorCores),
				Start: rep.Start, Dur: io,
			})
		}
	}
	for _, ts := range rep.Tasks {
		if ts.Dur <= 0 {
			continue
		}
		c.obsv.Add(obs.Span{
			Name: fmt.Sprintf("task %d.%d", ev.StageID, ts.Index), Cat: "task",
			Pid: c.pid, Tid: c.laneTid(ts.Node, ts.Lane),
			Start: rep.Start + ts.Start, Dur: ts.Dur,
			Args: map[string]string{"raw": ts.Raw.String()},
		})
	}
}

// ensureUpstream materializes every shuffle the dataset's lineage needs,
// parents first. Traversal stops at already materialized shuffles —
// exactly Spark's stage-skipping behaviour.
func (c *Context) ensureUpstream(ds *dataset, visited map[*dataset]bool) {
	if visited[ds] {
		return
	}
	visited[ds] = true
	if ds.shuffle != nil {
		sd := ds.shuffle
		if st, retired := c.shuffle(sd.id); retired || (st != nil && st.isDone()) {
			return
		}
		c.ensureUpstream(sd.parent, visited)
		c.runMapStage(sd)
		return
	}
	for _, p := range ds.deps {
		c.ensureUpstream(p, visited)
	}
}

// runJob computes every partition of ds and returns them.
func (c *Context) runJob(ds *dataset) []partition {
	c.AdvanceDriver(c.model.JobOverhead(), simtime.Overhead)
	c.ensureUpstream(ds, make(map[*dataset]bool))
	out := make([]partition, ds.parts)
	c.execStage(&stageRun{kind: StageResult, shuffleID: -1, parts: ds.parts, phase: c.CurrentPhase(), stageID: -1,
		work: func(tc *TaskContext, _, split int) { out[split] = c.iterate(ds, split, tc) }})
	return out
}
