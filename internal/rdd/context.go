package rdd

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

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
	// substrate (multi-tenant serving): the cluster spec, cost-model
	// calibration, kernel pools and real task slots come from the
	// substrate, so Cluster, Params and KernelThreads must be left zero.
	// Lineage, shuffle state, fault plans and the virtual clock stay
	// per-context. Nil (the default) gives the context its own substrate
	// ingredients, exactly as before.
	Substrate *Substrate
	// Priority orders this context's tasks against sibling contexts on
	// the same Substrate when real task slots are contended: higher wins,
	// FIFO within a priority. Ignored without a Substrate.
	Priority int
	// Cluster describes the (simulated) hardware. Required unless
	// Substrate is set (the substrate supplies it).
	Cluster *cluster.Cluster
	// Params overrides the cost-model calibration; nil uses defaults.
	Params *costmodel.Params
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
	// RealParallelism bounds the goroutines that actually execute tasks
	// in this process. Default: runtime.NumCPU().
	RealParallelism int
	// KeepShuffles is how many most-recent shuffles stay staged before
	// the engine emulates Spark's shuffle cleanup (old generations are
	// deleted from the local disks). Default: 8.
	KeepShuffles int
	// FaultInjector, when set, is consulted before each task attempt;
	// returning true makes that attempt fail (for resilience testing).
	// Failed tasks are retried like Spark's, up to MaxTaskAttempts.
	FaultInjector func(stageID, partition, attempt int) bool
	// FaultPlan, when set, schedules deterministic whole-executor
	// failures: crashes (map outputs lost + blacklist), staging-disk
	// losses and slow-task stragglers. See RandomFaultPlan. The plan is
	// never mutated, so one plan can drive several contexts.
	FaultPlan *FaultPlan
	// MaxTaskAttempts bounds task retries (default 4, Spark's
	// spark.task.maxFailures). Negative values are rejected.
	MaxTaskAttempts int
	// BlacklistBackoff is the base executor blacklist duration after a
	// crash, doubling per repeated crash of the same node (default 30
	// virtual seconds).
	BlacklistBackoff simtime.Duration
	// Speculation enables speculative execution: after a stage's tasks
	// finish computing, tasks slower than SpeculationMultiplier × the
	// SpeculationQuantile task duration get a copy launched on another
	// executor; the first result wins and the loser is killed at the
	// winner's finish time — its work is still charged to the cost model
	// (spark.speculation).
	Speculation bool
	// SpeculationMultiplier is the straggler threshold factor (default
	// 1.5, spark.speculation.multiplier). Values in (0, 1] are rejected.
	SpeculationMultiplier float64
	// SpeculationQuantile is the task-duration quantile the threshold is
	// relative to (default 0.75, spark.speculation.quantile).
	SpeculationQuantile float64
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
	// MemoryBudget caps the bytes the durable block store holds in memory
	// before evicting least-recently-used blocks to disk. Default 0 means
	// unbounded (blocks only reach disk via fault injection); negative
	// values are rejected, and a positive budget requires DurableDir.
	MemoryBudget int64
	// SpillCodec serializes records for the durable store (core supplies
	// a tile codec). Without one, shuffle/broadcast staging is skipped
	// even when DurableDir is set.
	SpillCodec Codec
	// RemoteDir roots the shared remote replica tier (store.FSTier)
	// behind the durable store: staged shuffle blocks are asynchronously
	// replicated under it, and recovery restores lost blocks from intact
	// replicas before falling back to recompute. Empty (the default)
	// disables the tier; a non-empty value requires DurableDir (the tier
	// replicates the durable store). The directory is shared — several
	// contexts (or a restarted driver) may point at the same one.
	RemoteDir string
	// RemoteOpTimeout is the per-operation deadline for simulated remote
	// restore reads: a read whose (slowdown-dilated) cost exceeds it
	// times out, is charged the timeout and retried. Default 2 virtual
	// seconds; negative values are rejected.
	RemoteOpTimeout simtime.Duration
	// RemoteMaxRetries bounds restore-read retries after timeouts
	// (exponential backoff, see RemoteBackoff). Default 3; negative
	// values are rejected.
	RemoteMaxRetries int
	// RemoteBackoff is the base delay charged before a restore retry,
	// doubling per attempt. Default 500 virtual milliseconds; negative
	// values are rejected.
	RemoteBackoff simtime.Duration
	// SpillStraggler > 1 enables spill-aware scheduling: when the block
	// store's cumulative spill wall time grew since the last stage, the
	// node holding the most staged shuffle bytes is modelled as
	// memory-starved — its tasks are dilated by this factor so the
	// speculation path sees them as stragglers. 0 (the default)
	// disables it; values in (0, 1] are rejected. Note the trigger reads
	// real spill timing, so enabling this trades clock determinism for
	// memory-pressure fidelity (results stay bit-identical either way).
	SpillStraggler float64
	// SpillDilation > 0 enables continuous spill-aware dilation: instead
	// of SpillStraggler's single worst-node factor, EVERY node's tasks
	// are dilated by 1 + SpillDilation × (staged shuffle bytes on the
	// node / MemoryBudget) when the block store shows fresh spill
	// pressure — a node with twice the backlog runs twice as degraded.
	// Requires MemoryBudget > 0 (the backlog is measured against it) and
	// is mutually exclusive with SpillStraggler. 0 (the default)
	// disables it; negative values are rejected. Like SpillStraggler the
	// trigger reads real spill timing, so clock determinism is traded
	// for memory-pressure fidelity (result bits are unaffected).
	SpillDilation float64
	// HeartbeatInterval enables the heartbeat/lease failure detector:
	// executors heartbeat the driver every HeartbeatInterval modelled
	// seconds, the scheduler suspects a node after one missed lease and
	// declares it dead after HeartbeatMisses consecutive misses — so every
	// declared loss charges HeartbeatMisses × HeartbeatInterval of
	// detection latency to the modelled clock (Breakdown.Detection,
	// critical-path phase "detection") before recovery can begin. 0 (the
	// default) keeps the legacy omniscient delivery: injected faults are
	// scheduler-visible the instant they fire, with zero latency. Negative
	// values are rejected. Required for FaultPlan GC pauses and network
	// partitions — false suspicion only exists with a detector.
	HeartbeatInterval simtime.Duration
	// HeartbeatMisses is how many consecutive missed heartbeats turn a
	// suspect node into a declared-dead one (default 2 when the detector
	// is on). Needs HeartbeatInterval; negative values are rejected.
	HeartbeatMisses int
	// RecoveryTokens enables recovery-storm throttling: a token bucket of
	// this capacity gates stage resubmissions, so a mass failure (rack
	// loss) drains in bounded waves instead of stampeding recompute. Each
	// resubmission takes a token; an empty bucket charges the modelled
	// wait until the next refill. 0 (the default) disables throttling;
	// negative values are rejected.
	RecoveryTokens int
	// RecoveryRefill is the modelled interval at which the storm bucket
	// mints one token back (default 1 virtual second when RecoveryTokens
	// is set). Needs RecoveryTokens; negative values are rejected.
	RecoveryRefill simtime.Duration
	// JobLabel tags every flight-recorder event this context produces with
	// a job ID, so multi-tenant observers can filter /events?job=ID down
	// to one tenant. Empty (the default) leaves events unlabelled.
	JobLabel string
	// Restore seeds a fresh context with a checkpointed EngineState so a
	// resumed run continues the stage/shuffle numbering and skips fault
	// events that fired before the checkpoint. Validated against the
	// FaultPlan and cluster size.
	Restore *EngineState
}

// normalize is the single place Conf is validated and defaulted — every
// context construction path goes through it, so a hand-built Conf can
// never smuggle an unnormalized value past NewContext.
func (conf *Conf) normalize() error {
	if conf.Substrate != nil {
		// The substrate owns everything shared across mounted jobs; a
		// per-job override of those fields would silently diverge from
		// what siblings see, so they must be left zero.
		if conf.Cluster != nil && conf.Cluster != conf.Substrate.cluster {
			return fmt.Errorf("rdd: Conf.Cluster must be unset with Conf.Substrate — the substrate supplies the cluster")
		}
		if conf.Params != nil && conf.Params != conf.Substrate.params {
			return fmt.Errorf("rdd: Conf.Params must be unset with Conf.Substrate — the substrate supplies the calibration")
		}
		if conf.KernelThreads != 0 && conf.KernelThreads != conf.Substrate.kernelThreads {
			return fmt.Errorf("rdd: Conf.KernelThreads must be unset with Conf.Substrate — the substrate owns the kernel pools")
		}
		conf.Cluster = conf.Substrate.cluster
		conf.Params = conf.Substrate.params
		conf.KernelThreads = conf.Substrate.kernelThreads
		if conf.RealParallelism <= 0 {
			conf.RealParallelism = conf.Substrate.realPar
		}
	} else if conf.Priority != 0 {
		return fmt.Errorf("rdd: Conf.Priority needs Conf.Substrate — priorities order jobs contending for shared task slots")
	}
	if conf.Cluster == nil {
		return fmt.Errorf("rdd: Conf.Cluster is required")
	}
	if conf.MaxTaskAttempts < 0 {
		return fmt.Errorf("rdd: Conf.MaxTaskAttempts must be ≥ 0 (0 means the default 4, Spark's spark.task.maxFailures), got %d", conf.MaxTaskAttempts)
	}
	if conf.KeepShuffles < 0 {
		return fmt.Errorf("rdd: Conf.KeepShuffles must be ≥ 0 (0 means the default 8), got %d", conf.KeepShuffles)
	}
	if conf.BlacklistBackoff < 0 {
		return fmt.Errorf("rdd: Conf.BlacklistBackoff must be ≥ 0, got %v", conf.BlacklistBackoff)
	}
	if conf.SpeculationMultiplier < 0 || (conf.SpeculationMultiplier > 0 && conf.SpeculationMultiplier <= 1) {
		return fmt.Errorf("rdd: Conf.SpeculationMultiplier must be > 1 (0 means the default 1.5), got %g", conf.SpeculationMultiplier)
	}
	if conf.SpeculationQuantile < 0 || conf.SpeculationQuantile >= 1 {
		return fmt.Errorf("rdd: Conf.SpeculationQuantile must be in [0, 1) (0 means the default 0.75), got %g", conf.SpeculationQuantile)
	}
	if conf.HeartbeatInterval < 0 {
		return fmt.Errorf("rdd: Conf.HeartbeatInterval must be ≥ 0 (0 disables the failure detector), got %v", conf.HeartbeatInterval)
	}
	if conf.HeartbeatMisses < 0 {
		return fmt.Errorf("rdd: Conf.HeartbeatMisses must be ≥ 0 (0 means the default 2), got %d", conf.HeartbeatMisses)
	}
	if conf.HeartbeatMisses > 0 && conf.HeartbeatInterval == 0 {
		return fmt.Errorf("rdd: Conf.HeartbeatMisses needs Conf.HeartbeatInterval — the lease count is meaningless without a heartbeat period")
	}
	if conf.HeartbeatInterval > 0 && conf.HeartbeatMisses == 0 {
		conf.HeartbeatMisses = 2
	}
	if conf.RecoveryTokens < 0 {
		return fmt.Errorf("rdd: Conf.RecoveryTokens must be ≥ 0 (0 disables recovery-storm throttling), got %d", conf.RecoveryTokens)
	}
	if conf.RecoveryRefill < 0 {
		return fmt.Errorf("rdd: Conf.RecoveryRefill must be ≥ 0 (0 means the default 1s), got %v", conf.RecoveryRefill)
	}
	if conf.RecoveryRefill > 0 && conf.RecoveryTokens == 0 {
		return fmt.Errorf("rdd: Conf.RecoveryRefill needs Conf.RecoveryTokens — a refill interval without a bucket throttles nothing")
	}
	if conf.RecoveryTokens > 0 && conf.RecoveryRefill == 0 {
		conf.RecoveryRefill = 1 * simtime.Second
	}
	if conf.FaultPlan != nil {
		if err := conf.FaultPlan.validate(conf.Cluster.Nodes, conf.Cluster.Racks); err != nil {
			return err
		}
		if conf.HeartbeatInterval == 0 && (len(conf.FaultPlan.GCPauses) > 0 || len(conf.FaultPlan.Partitions) > 0) {
			return fmt.Errorf("rdd: FaultPlan GC pauses / network partitions need Conf.HeartbeatInterval > 0 — false suspicion only exists with a heartbeat failure detector")
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
	if conf.RemoteDir != "" && conf.DurableDir == "" {
		return fmt.Errorf("rdd: Conf.RemoteDir needs Conf.DurableDir — the remote tier replicates the durable store")
	}
	if conf.RemoteOpTimeout < 0 {
		return fmt.Errorf("rdd: Conf.RemoteOpTimeout must be ≥ 0 (0 means the default 2s), got %v", conf.RemoteOpTimeout)
	}
	if conf.RemoteMaxRetries < 0 {
		return fmt.Errorf("rdd: Conf.RemoteMaxRetries must be ≥ 0 (0 means the default 3), got %d", conf.RemoteMaxRetries)
	}
	if conf.RemoteBackoff < 0 {
		return fmt.Errorf("rdd: Conf.RemoteBackoff must be ≥ 0 (0 means the default 500ms), got %v", conf.RemoteBackoff)
	}
	if conf.SpillStraggler < 0 || (conf.SpillStraggler > 0 && conf.SpillStraggler <= 1) {
		return fmt.Errorf("rdd: Conf.SpillStraggler must be > 1 (0 disables spill-aware scheduling), got %g", conf.SpillStraggler)
	}
	if conf.SpillDilation < 0 {
		return fmt.Errorf("rdd: Conf.SpillDilation must be ≥ 0 (0 disables continuous spill dilation), got %g", conf.SpillDilation)
	}
	if conf.SpillDilation > 0 && conf.SpillStraggler > 0 {
		return fmt.Errorf("rdd: Conf.SpillDilation and Conf.SpillStraggler are mutually exclusive — pick the continuous or the worst-node model")
	}
	if conf.SpillDilation > 0 && conf.MemoryBudget <= 0 {
		return fmt.Errorf("rdd: Conf.SpillDilation %g needs Conf.MemoryBudget > 0 — the backlog is measured against the budget", conf.SpillDilation)
	}
	if conf.Restore != nil {
		if err := validateRestore(conf.Restore, conf.FaultPlan, conf.Cluster.Nodes); err != nil {
			return err
		}
	}
	if conf.KernelThreads < 0 {
		return fmt.Errorf("rdd: Conf.KernelThreads must be ≥ 0 (0 means the default 1, serial kernels), got %d", conf.KernelThreads)
	}
	if conf.KernelThreads == 0 {
		conf.KernelThreads = 1
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
	if conf.RealParallelism <= 0 {
		conf.RealParallelism = runtime.NumCPU()
	}
	if conf.KeepShuffles == 0 {
		conf.KeepShuffles = 8
	}
	if conf.MaxTaskAttempts == 0 {
		conf.MaxTaskAttempts = 4
	}
	if conf.BlacklistBackoff == 0 {
		conf.BlacklistBackoff = defaultBlacklistBackoff
	}
	if conf.SpeculationMultiplier == 0 {
		conf.SpeculationMultiplier = 1.5
	}
	if conf.SpeculationQuantile == 0 {
		conf.SpeculationQuantile = 0.75
	}
	if conf.RemoteOpTimeout == 0 {
		conf.RemoteOpTimeout = 2 * simtime.Second
	}
	if conf.RemoteMaxRetries == 0 {
		conf.RemoteMaxRetries = 3
	}
	if conf.RemoteBackoff == 0 {
		conf.RemoteBackoff = 500 * simtime.Millisecond
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

	// kernelPools holds one shared kernel worker pool per node (nil slice
	// when Conf.KernelThreads ≤ 1): every task running on a node hands the
	// node's pool to its kernel invocations, so intra-kernel workers are
	// bounded per node, not per task.
	kernelPools []*kernels.Pool

	// substrate is the shared scheduler/executor layer (nil for solo
	// contexts): when set, every real task execution first acquires one
	// of its slots, so concurrent sibling jobs interleave on a bounded
	// executor pool instead of each spawning RealParallelism goroutines.
	substrate *Substrate

	// cancel is closed by Cancel (idempotent); cancelErr is the cause,
	// written under mu before the close so readers that observe the
	// closed channel always see it.
	cancel     chan struct{}
	cancelOnce sync.Once
	cancelErr  error

	// faults is the fired-event/blacklist state for Conf.FaultPlan (nil
	// without a plan); rec are the recovery counters, recm their
	// pre-resolved registry mirrors.
	faults *faultState
	rec    recovery
	recm   recoveryMetrics

	laneNames sync.Once

	// stormMu guards the recovery-storm token bucket (Conf.RecoveryTokens):
	// stormTokens is the current token count, stormLast the virtual time
	// tokens were last minted. Separate from mu because the take charges
	// driver time (advanceDriver) while held.
	stormMu     sync.Mutex
	stormTokens int
	stormLast   simtime.Duration

	mu            sync.Mutex
	spillWallSeen time.Duration
	nextDataset   int
	nextShuffle   int
	nextStage     int
	nextBroadcast int
	shuffles      map[int]*shuffleState
	shuffleLog    []int
	memUsed       []int64
	memErr        error
	taskErr       error
	events        []StageEvent
	phase         string
	bd            Breakdown

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

// Breakdown is the context's accumulated critical-path time decomposition
// plus traffic counters. Unlike the Ledger's overlapping resource-seconds,
// the four time components sum exactly to the virtual clock: every stage
// contributes its makespan node's split (sim.StageReport) and every
// driver-side advance is attributed by category.
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
	// detector to declare losses (Conf.HeartbeatInterval ×
	// Conf.HeartbeatMisses per declaration wave). Like Recovery it is an
	// overlapping attribution (the wait also lands in Overhead) and NOT
	// part of Total(); it answers "how much of the run was failure
	// detection latency". Always 0 with the detector off.
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
// shuffle so concurrent fetch failures trigger one resubmission.
type shuffleState struct {
	dep *shuffleDep
	// mapStage is the global stage ID of the shuffle's map stage;
	// resubmissions reuse it (with a bumped attempt), like Spark, so
	// planned stage numbering is identical with and without faults.
	mapStage int

	mu          sync.RWMutex
	byReduce    [][]bucketRef
	spillByNode []int64
	// mapNode, spillByMap and refsByMap record where each map partition's
	// output lives, its staged bytes and whether it produced any buckets —
	// what executor-loss invalidation and fetch attribution key on.
	mapNode    []int
	spillByMap []int64
	refsByMap  []int
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

	recMu sync.Mutex
}

// isDone reports whether the shuffle's map side has materialized.
func (st *shuffleState) isDone() bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.done
}

// NewContext creates an engine context. The Conf is validated and
// defaulted by Conf.normalize; invalid settings (negative
// MaxTaskAttempts, out-of-range speculation parameters, a fault plan
// naming nodes outside the cluster) panic with a clear error.
func NewContext(conf Conf) *Context {
	if err := conf.normalize(); err != nil {
		panic(err)
	}
	m := costmodel.New(conf.Cluster)
	if conf.Params != nil {
		m.P = *conf.Params
	}
	if conf.Observer == nil {
		conf.Observer = obs.New()
	}
	c := &Context{
		conf:      conf,
		model:     m,
		simul:     sim.New(m, conf.ExecutorCores),
		obsv:      conf.Observer,
		substrate: conf.Substrate,
		cancel:    make(chan struct{}),
		shuffles:  make(map[int]*shuffleState),
		memUsed:   make([]int64, conf.Cluster.Nodes),
	}
	c.stormTokens = conf.RecoveryTokens
	if conf.FaultPlan != nil {
		c.faults = newFaultState(conf.FaultPlan, conf.Cluster.Nodes)
	}
	if conf.Substrate != nil {
		// Mounted jobs share the substrate's per-node kernel pools so
		// real kernel workers stay bounded per node across all tenants.
		c.kernelPools = conf.Substrate.kernelPools
	} else if conf.KernelThreads > 1 {
		c.kernelPools = make([]*kernels.Pool, conf.Cluster.Nodes)
		for n := range c.kernelPools {
			c.kernelPools[n] = kernels.NewPool(conf.KernelThreads)
		}
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
	if conf.RemoteDir != "" {
		tier, err := store.NewFSTier(conf.RemoteDir)
		if err != nil {
			panic(err)
		}
		// Only shuffle blocks replicate: broadcast payloads and driver
		// staging files are cheap to rebuild, lost map outputs are not.
		c.store.AttachRemote(tier, func(key string) bool {
			return strings.HasPrefix(key, "shuffle/")
		})
		if cl := conf.Cluster; cl.Racks > 1 {
			// Domain-aware replica placement: a replica must never share a
			// fault domain with the block it protects, or a rack failure
			// takes both. Origin domain = the rack of the map partition's
			// home executor, parsed from the shuffle block key.
			c.store.SetReplicaDomains(cl.Racks, func(key string) int {
				var id, m, r int
				if _, err := fmt.Sscanf(key, "shuffle/%d/m%d/r%d", &id, &m, &r); err != nil {
					return 0
				}
				return cl.RackOf(c.nodeOf(m))
			})
		}
	}
	if conf.Restore != nil {
		c.restoreEngineState(conf.Restore)
	}
	c.recm = newRecoveryMetrics(conf.Observer.Metrics())
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
	if node < 0 || node >= len(c.kernelPools) {
		return nil
	}
	return c.kernelPools[node]
}

// KernelPoolStats sums the scheduling counters of every node's kernel
// pool: branches spawned on their own goroutine, branches inlined on the
// caller, and barrier token hand-offs. All zero when KernelThreads ≤ 1.
func (c *Context) KernelPoolStats() (spawned, inlined, handoffs int64) {
	for _, p := range c.kernelPools {
		s, i, h := p.Stats()
		spawned += s
		inlined += i
		handoffs += h
	}
	return spawned, inlined, handoffs
}

// KeepShuffles returns how many recent shuffle generations stay staged
// (drivers with multi-iteration lineage windows must fit inside it).
func (c *Context) KeepShuffles() int { return c.conf.KeepShuffles }

// Clock returns the job's virtual time so far.
func (c *Context) Clock() simtime.Duration { return c.simul.Now() }

// Ledger returns the virtual resource-time ledger.
func (c *Context) Ledger() *simtime.Ledger { return c.simul.Ledger }

// TimedOut reports whether the virtual clock passed the 8-hour bound.
func (c *Context) TimedOut() bool { return c.simul.TimedOut() }

// ErrJobCanceled is the default cancellation cause: Context.Err (and
// action results) wrap or equal it after Cancel, so callers distinguish
// a cancelled job from a failed one with errors.Is.
var ErrJobCanceled = fmt.Errorf("rdd: job canceled")

// Cancel requests cooperative cancellation: in-flight tasks finish
// their current attempt, queued tasks (and slot waiters on a shared
// Substrate) abort, and Err reports the cause from then on — so driver
// loops checking Err at iteration boundaries stop promptly. A nil
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
// while waiting. Always true without a mounted substrate.
func (c *Context) acquireSlot() bool {
	if c.substrate == nil {
		return true
	}
	return c.substrate.sched.acquire(c.conf.Priority, c.cancel)
}

// releaseSlot returns a slot taken by acquireSlot.
func (c *Context) releaseSlot() {
	if c.substrate != nil {
		c.substrate.sched.release()
	}
}

// Err returns the first failure (staging disk full, executor memory
// exceeded, cancellation), if any.
func (c *Context) Err() error {
	c.mu.Lock()
	memErr, taskErr, cancelErr := c.memErr, c.taskErr, c.cancelErr
	c.mu.Unlock()
	if taskErr != nil {
		return taskErr
	}
	if memErr != nil {
		return memErr
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
	c.advanceDriver(d, cat, critPhaseOf(cat))
}

// critPhaseOf maps a ledger category to the critical-path phase driver
// advances under it belong to — mirroring the breakdown attribution.
func critPhaseOf(cat simtime.Category) string {
	switch cat {
	case simtime.Network, simtime.SharedFS:
		return obs.PhaseBroadcast
	case simtime.LocalDisk:
		return obs.PhaseShuffle
	case simtime.Compute:
		return obs.PhaseCompute
	default:
		return obs.PhaseOverhead
	}
}

// advanceDriver is AdvanceDriver with an explicit critical-path phase,
// so recovery paths can charge standard breakdown categories while the
// profiler attributes the advance to recovery.
func (c *Context) advanceDriver(d simtime.Duration, cat simtime.Category, critPhase string) {
	start, end := c.simul.Advance(d, cat)
	c.mu.Lock()
	switch cat {
	case simtime.Network, simtime.SharedFS:
		c.bd.Broadcast += d
	case simtime.LocalDisk:
		c.bd.Shuffle += d
	case simtime.Compute:
		c.bd.Compute += d
	default:
		c.bd.Overhead += d
	}
	c.mu.Unlock()
	if cp := c.obsv.CritPath(); cp.Enabled() {
		cp.RecordSegment(c.pid, obs.CritSegment{
			Start: start, End: end, Phase: critPhase, Name: string(cat),
		})
	}
}

// recordEvent forwards one flight-recorder event, stamped with the
// context's job label (Conf.JobLabel) so multi-tenant observers can
// filter /events down to one tenant. Every rdd-side producer goes
// through it; events from contexts without a label stay unlabelled.
func (c *Context) recordEvent(ev obs.Event) {
	ev.Job = c.conf.JobLabel
	c.obsv.Flight().Record(ev)
}

// takeRecoveryToken implements recovery-storm throttling
// (Conf.RecoveryTokens): each stage resubmission consumes one token from
// a bucket refilled at one token per Conf.RecoveryRefill of modelled
// time. An empty bucket charges the wait until the next refill to the
// modelled clock (overhead, attributed to recovery), so a mass failure —
// a rack loss invalidating many shuffles at once — drains in bounded
// waves instead of stampeding recompute. No-op with throttling off.
func (c *Context) takeRecoveryToken() {
	if c.conf.RecoveryTokens <= 0 {
		return
	}
	c.stormMu.Lock()
	defer c.stormMu.Unlock()
	now := c.Clock()
	if now > c.stormLast {
		if minted := int((now - c.stormLast) / c.conf.RecoveryRefill); minted > 0 {
			c.stormTokens += minted
			if c.stormTokens > c.conf.RecoveryTokens {
				c.stormTokens = c.conf.RecoveryTokens
			}
			c.stormLast += simtime.Duration(minted) * c.conf.RecoveryRefill
		}
	}
	if c.stormTokens > 0 {
		c.stormTokens--
		return
	}
	// Bucket empty: this resubmission waits out the next refill on the
	// modelled clock. Holding stormMu across the charge serializes
	// concurrent waiters, so each consumes a successive refill slot.
	wait := c.stormLast + c.conf.RecoveryRefill - now
	if wait < 0 {
		wait = 0
	}
	c.stormLast += c.conf.RecoveryRefill
	c.rec.stormThrottled.Add(1)
	c.recm.detStormThrottled.Inc()
	c.recordEvent(obs.Event{
		Clock: now.Seconds(), Type: obs.EvThrottle,
		Stage: -1, Part: -1, Node: -1, Shuffle: -1,
		Detail: fmt.Sprintf("recovery-storm bucket empty, waiting %s for a token", wait),
	})
	if wait > 0 {
		c.advanceDriver(wait, simtime.Overhead, obs.PhaseRecovery)
		c.mu.Lock()
		c.bd.Recovery += wait
		c.mu.Unlock()
	}
}

// addBroadcastBytes accounts driver-staged broadcast payload bytes.
func (c *Context) addBroadcastBytes(n int64) {
	c.mu.Lock()
	c.bd.BroadcastBytes += n
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

// chargeCacheMemory accounts cached records against executor memory.
func (c *Context) chargeCacheMemory(node int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.memUsed[node] += bytes
	if c.memErr == nil && c.memUsed[node] > c.conf.Cluster.ExecutorMemBytes {
		c.memErr = fmt.Errorf("rdd: executor memory exceeded on node %d: %d cached bytes > %d budget",
			node, c.memUsed[node], c.conf.Cluster.ExecutorMemBytes)
	}
}

// releaseCacheMemory returns cached bytes to the executor budget.
func (c *Context) releaseCacheMemory(node int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.memUsed[node] -= bytes
	if c.memUsed[node] < 0 {
		c.memUsed[node] = 0
	}
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

// stageSpec describes one stage execution for execStage.
type stageSpec struct {
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
}

// split returns the partition task index idx computes.
func (sp *stageSpec) split(idx int) int {
	if sp.splits != nil {
		return sp.splits[idx]
	}
	return idx
}

// runStage executes one full stage: `parts` tasks running `work`, really
// (in parallel goroutines) and virtually (through the cluster simulator).
// phase labels the stage for observability (the driver phase that built
// the stage's lineage).
func (c *Context) runStage(kind StageKind, shuffleID, parts int, phase string, work func(tc *TaskContext, split int)) {
	c.execStage(stageSpec{kind: kind, shuffleID: shuffleID, parts: parts, phase: phase, stageID: -1},
		func(tc *TaskContext, _, split int) { work(tc, split) })
}

// execStage is the stage driver behind runStage and the shuffle map /
// recovery paths. Before tasks launch it fires the fault plan's events
// scheduled for this stage; each task then runs with Spark-style retry
// semantics (placement off blacklisted executors, FetchFailed triggering
// parent-stage resubmission without consuming a task attempt); and after
// the real execution, straggler dilation and speculative execution shape
// the virtual tasks handed to the cluster simulator.
func (c *Context) execStage(spec stageSpec, work func(tc *TaskContext, idx, split int)) {
	stageID := spec.stageID
	if stageID < 0 {
		c.mu.Lock()
		stageID = c.nextStage
		c.nextStage++
		c.mu.Unlock()
	}
	crashed := c.fireStageFaults(stageID)
	asOf := c.Clock()
	spillNode := c.spillStragglerNode()
	spillFactors := c.spillDilationFactors()
	parts := spec.parts
	c.recordEvent(obs.Event{
		Clock: asOf.Seconds(), Type: obs.EvStageSubmit,
		Stage: stageID, Attempt: spec.attempt, Part: -1, Node: -1,
		Shuffle: spec.shuffleID,
		Detail:  fmt.Sprintf("%s tasks=%d phase=%s", spec.kind, parts, spec.phase),
	})

	// One TaskContext slab per stage; an attempt resets its task's slot
	// (a zero ctx marks a task abandoned before its first attempt).
	tcs := make([]TaskContext, parts)
	// runOne executes one task with Spark-style retries: an injected
	// fault or a panic fails the attempt and the task restarts from its
	// lineage on a freshly placed executor (charges of failed attempts
	// still cost virtual time, accumulated via lost). A FetchFailedError
	// indicts the parent map stage instead: the shuffle is recovered and
	// the fetch retried without consuming one of this task's attempts.
	runOne := func(idx int) {
		split := spec.split(idx)
		var lost simtime.Duration
		failures := 0
		for {
			select {
			case <-c.cancel:
				// Cooperative cancellation: abandon the task between
				// attempts; the recorded cause makes the next action (and
				// the driver loop's Err check) surface the cancellation.
				c.recordTaskErr(c.CancelCause())
				return
			default:
			}
			// On a shared Substrate each attempt holds one substrate-wide
			// task slot for its real execution only. Recovery and retry run
			// slot-free: recoverShuffle resubmits the parent map stage,
			// whose tasks need slots of their own, so holding one across it
			// would self-deadlock on a narrow substrate (one slot suffices
			// for any recovery depth this way). A cancelled wait abandons
			// the task; the cause surfaces through Err like a task failure.
			if !c.acquireSlot() {
				c.recordTaskErr(c.CancelCause())
				return
			}
			node := c.placeNode(split, asOf)
			if failures == 0 && crashed[c.nodeOf(split)] {
				// The executor dies under its running first attempts; the
				// retry re-places them (the node is now blacklisted).
				node = c.nodeOf(split)
			}
			tc := &tcs[idx]
			*tc = TaskContext{StageID: stageID, Partition: split, Node: node, ctx: c}
			err := func() (err error) {
				defer func() {
					// The attempt ends here however it ended: returned,
					// panicked or killed.
					tc.SetLocal(nil)
					if p := recover(); p != nil {
						if ff, ok := p.(*FetchFailedError); ok {
							err = ff
							return
						}
						err = fmt.Errorf("rdd: task %d of stage %d failed (attempt %d): %v",
							split, stageID, failures+1, p)
					}
				}()
				if failures == 0 && crashed[node] {
					return fmt.Errorf("rdd: task %d of stage %d lost with executor %d",
						split, stageID, node)
				}
				if c.conf.FaultInjector != nil && c.conf.FaultInjector(stageID, split, failures) {
					c.rec.faultKills.Add(1)
					c.recm.injectTask.Inc()
					return fmt.Errorf("rdd: task %d of stage %d killed by fault injector (attempt %d)",
						split, stageID, failures+1)
				}
				work(tc, idx, split)
				return nil
			}()
			if err == nil {
				if factor := c.stragglerFactor(stageID, split); factor > 1 {
					extra := simtime.Duration(tc.compute.Seconds() * (factor - 1))
					tc.slowed = extra
					tc.compute += extra
					c.rec.stragglers.Add(1)
					c.recm.injectStraggler.Inc()
				}
				if spillNode >= 0 && tc.Node == spillNode && tc.compute > 0 {
					// Spill-aware scheduling: the memory-starved node's
					// tasks run dilated; the slowdown is recorded in
					// slowed, so speculation prices their healthy
					// duration and fires copies elsewhere.
					extra := simtime.Duration(tc.compute.Seconds() * (c.conf.SpillStraggler - 1))
					tc.slowed += extra
					tc.spillSlow = extra
					tc.compute += extra
					c.rec.spillStragglers.Add(1)
					c.recm.spillStragglers.Inc()
				}
				if tc.Node >= 0 && tc.Node < len(spillFactors) && spillFactors[tc.Node] > 1 && tc.compute > 0 {
					// Continuous spill-aware dilation: every node degrades
					// in proportion to its own staged backlog. Recorded in
					// slowed like the worst-node model, so speculation
					// still prices the healthy duration and fires copies.
					extra := simtime.Duration(tc.compute.Seconds() * (spillFactors[tc.Node] - 1))
					tc.slowed += extra
					tc.spillSlow += extra
					tc.compute += extra
					c.rec.spillStragglers.Add(1)
					c.recm.spillStragglers.Inc()
				}
				tc.compute += lost // failed attempts' work is not free
				c.releaseSlot()
				return
			}
			c.releaseSlot()
			lost += tc.compute
			var ff *FetchFailedError
			if ffe, ok := err.(*FetchFailedError); ok {
				ff = ffe
			}
			if ff != nil {
				c.rec.fetchFailures.Add(1)
				c.recm.fetchFailures.Inc()
				c.recordEvent(obs.Event{
					Clock: -1, Type: obs.EvFetchFailure,
					Stage: stageID, Attempt: spec.attempt, Part: split,
					Node: ff.Node, Shuffle: ff.ShuffleID,
				})
				if rerr := c.recoverShuffle(ff); rerr != nil {
					c.recordTaskErr(rerr)
					return
				}
				continue
			}
			failures++
			if failures >= c.conf.MaxTaskAttempts {
				c.recordTaskErr(err)
				return
			}
			c.rec.taskRetries.Add(1)
			c.recm.taskRetries.Inc()
			c.recordEvent(obs.Event{
				Clock: -1, Type: obs.EvTaskRetry,
				Stage: stageID, Attempt: spec.attempt, Part: split,
				Node: tc.Node, Shuffle: -1, Detail: err.Error(),
			})
		}
	}

	workers := c.conf.RealParallelism
	if workers > parts {
		workers = parts
	}
	if workers <= 1 {
		for idx := 0; idx < parts; idx++ {
			runOne(idx)
		}
	} else {
		var wg sync.WaitGroup
		idxs := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for idx := range idxs {
					runOne(idx)
				}
			}()
		}
		for idx := 0; idx < parts; idx++ {
			idxs <- idx
		}
		close(idxs)
		wg.Wait()
	}

	var spill, fetch, shared int64
	tasks := make([]sim.Task, parts, parts+parts/4)
	for i := range tcs {
		tc := &tcs[i]
		if tc.ctx == nil {
			// The task was abandoned before its first attempt (cancelled
			// mid-stage); model it as an empty task so the stage report
			// stays well-formed while Err carries the cause.
			*tc = TaskContext{StageID: stageID, Partition: spec.split(i), Node: c.nodeOf(spec.split(i)), ctx: c}
		}
		spill += tc.spill
		fetch += tc.fetchLocal + tc.fetchRemote
		shared += tc.sharedRead + tc.sharedWrite
		tasks[i] = sim.Task{
			Node:        tc.Node,
			Compute:     tc.compute,
			Threads:     tc.Threads(),
			IdleThreads: tc.idleThreads,
			FetchLocal:  tc.fetchLocal,
			FetchRemote: tc.fetchRemote,
			Spill:       tc.spill,
			SharedRead:  tc.sharedRead,
			SharedWrite: tc.sharedWrite,
		}
	}
	if c.conf.Speculation {
		tasks = c.speculate(tcs, tasks, asOf)
	}
	rep := c.simul.RunStageReport(tasks)

	c.mu.Lock()
	c.bd.Compute += rep.Compute
	c.bd.Shuffle += rep.ShuffleIO
	c.bd.Broadcast += rep.SharedIO
	c.bd.Overhead += rep.Overhead
	if spec.attempt > 0 {
		c.bd.Recovery += rep.Total
	}
	c.bd.ShuffleWriteBytes += spill
	c.bd.ShuffleFetchBytes += fetch
	c.bd.BroadcastBytes += shared
	c.mu.Unlock()

	if cp := c.obsv.CritPath(); cp.Enabled() {
		// Per-node spill dilation, so the profiler can split the critical
		// branch's compute into healthy compute vs spill backpressure.
		spillSlow := make([]simtime.Duration, len(rep.NodeCompute))
		for i := range tcs {
			if tc := &tcs[i]; tc.spillSlow > 0 && tc.Node >= 0 && tc.Node < len(spillSlow) {
				spillSlow[tc.Node] += tc.spillSlow
			}
		}
		branches := make([]obs.CritBranch, 0, 4)
		for n := range rep.NodeCompute {
			comp, sh, sf := rep.NodeCompute[n], rep.NodeShuffleIO[n], rep.NodeSharedIO[n]
			if comp == 0 && sh == 0 && sf == 0 {
				continue
			}
			branches = append(branches, obs.CritBranch{
				Node: n, ShuffleIO: sh, SharedIO: sf, Compute: comp, Spill: spillSlow[n],
			})
		}
		cp.RecordStage(c.pid, obs.CritStage{
			Start: rep.Start, End: rep.Start + rep.Total,
			StageID: stageID, Attempt: spec.attempt,
			Kind: spec.kind.String(), Phase: spec.phase,
			Tasks: parts, Speculative: len(tasks) - parts,
			Branches: branches,
		})
	}
	c.recordEvent(obs.Event{
		Clock: (rep.Start + rep.Total).Seconds(), Type: obs.EvStageComplete,
		Stage: stageID, Attempt: spec.attempt, Part: -1, Node: -1,
		Shuffle: spec.shuffleID,
		Detail:  fmt.Sprintf("%s dur=%s tasks=%d", spec.kind, rep.Total, len(tasks)),
	})

	skew := 0.0
	if rep.MeanTask > 0 {
		skew = rep.MaxTask.Seconds() / rep.MeanTask.Seconds()
	}
	c.recordStageMetrics(spec.kind, spec.phase, parts, spill, fetch, skew, rep)
	if c.obsv.TraceEnabled() {
		c.emitStageSpans(spec.kind, spec.phase, stageID, spill, fetch, rep)
	}

	c.appendEvent(StageEvent{
		StageID:    stageID,
		Kind:       spec.kind,
		Attempt:    spec.attempt,
		Tasks:      parts,
		ShuffleID:  spec.shuffleID,
		Phase:      spec.phase,
		Start:      rep.Start,
		Duration:   rep.Total,
		SpillBytes: spill,
		FetchBytes: fetch,
		MaxTask:    rep.MaxTask,
		MeanTask:   rep.MeanTask,
	})
}

// spillStragglerNode implements spill-aware scheduling
// (Conf.SpillStraggler): before a stage launches, if the block store's
// cumulative spill wall time grew since the last check — real evidence
// the memory budget is forcing blocks to disk — the node holding the
// most staged shuffle bytes (newest materialized shuffle, ties to the
// lowest node) is modelled as memory-starved for this stage. Returns -1
// when the feature is off or no pressure was seen.
func (c *Context) spillStragglerNode() int {
	if c.conf.SpillStraggler <= 1 || c.store == nil {
		return -1
	}
	// Settle pending async spill writes so the pressure signal covers
	// everything the previous stages queued.
	c.store.Flush()
	sw := c.store.Stats().SpillWall
	c.mu.Lock()
	grew := sw > c.spillWallSeen
	if grew {
		c.spillWallSeen = sw
	}
	var st *shuffleState
	if grew {
		for i := len(c.shuffleLog) - 1; i >= 0 && st == nil; i-- {
			st = c.shuffles[c.shuffleLog[i]]
		}
	}
	c.mu.Unlock()
	if st == nil {
		return -1
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	if !st.done || st.retired {
		return -1
	}
	node, best := -1, int64(0)
	for n, b := range st.spillByNode {
		if b > best {
			node, best = n, b
		}
	}
	return node
}

// spillDilationFactors implements continuous spill-aware dilation
// (Conf.SpillDilation): under the same fresh-spill-pressure trigger as
// spillStragglerNode, every node's dilation factor is
// 1 + SpillDilation × (its staged shuffle bytes across live shuffles /
// MemoryBudget) — proportional degradation instead of a single
// worst-node penalty. Returns nil when the feature is off or no new
// pressure was seen; entries ≤ 1 mean no dilation for that node.
func (c *Context) spillDilationFactors() []float64 {
	if c.conf.SpillDilation <= 0 || c.store == nil {
		return nil
	}
	c.store.Flush()
	sw := c.store.Stats().SpillWall
	c.mu.Lock()
	grew := sw > c.spillWallSeen
	if grew {
		c.spillWallSeen = sw
	}
	var live []*shuffleState
	if grew {
		live = make([]*shuffleState, 0, len(c.shuffleLog))
		for _, id := range c.shuffleLog {
			if st := c.shuffles[id]; st != nil {
				live = append(live, st)
			}
		}
	}
	c.mu.Unlock()
	if live == nil {
		return nil
	}
	backlog := make([]int64, c.conf.Cluster.Nodes)
	for _, st := range live {
		st.mu.RLock()
		if st.done && !st.retired {
			for n, b := range st.spillByNode {
				if n < len(backlog) {
					backlog[n] += b
				}
			}
		}
		st.mu.RUnlock()
	}
	factors := make([]float64, len(backlog))
	budget := float64(c.conf.MemoryBudget)
	for n, b := range backlog {
		factors[n] = 1 + c.conf.SpillDilation*float64(b)/budget
	}
	return factors
}

// speculate applies speculative execution to a stage's virtual tasks:
// tasks slower than SpeculationMultiplier × the SpeculationQuantile task
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
	quantile := durs[int(c.conf.SpeculationQuantile*float64(len(durs)-1))]
	threshold := simtime.Duration(quantile.Seconds() * c.conf.SpeculationMultiplier)
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
		// blacklisted) the task is left to finish where it runs. With rack
		// topology the scan prefers a node OFF the straggler's fault
		// domain — slowness indicts the domain (shared ToR/PDU, a rack-wide
		// GC of a noisy neighbour), so the copy must not share it — and
		// falls back to the plain ring scan when no such node is alive.
		nodes := c.conf.Cluster.Nodes
		copyNode := -1
		if cl := c.conf.Cluster; cl.Racks > 1 {
			home := cl.RackOf(tc.Node)
			for j := 1; j < nodes; j++ {
				if n := (tc.Node + j) % nodes; !c.nodeDown(n, asOf) && cl.RackOf(n) != home {
					copyNode = n
					break
				}
			}
		}
		if copyNode < 0 {
			for j := 1; j < nodes; j++ {
				if n := (tc.Node + j) % nodes; !c.nodeDown(n, asOf) {
					copyNode = n
					break
				}
			}
		}
		if copyNode < 0 {
			continue
		}
		healthy := tc.compute - tc.slowed + c.model.TaskOverhead()
		winner := simtime.Min(tc.compute, healthy)
		c.rec.specLaunched.Add(1)
		c.recm.specLaunched.Inc()
		if healthy < tc.compute {
			c.rec.specWins.Add(1)
			c.recm.specWins.Inc()
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
func (c *Context) recordStageMetrics(kind StageKind, phase string, parts int, spill, fetch int64, skew float64, rep sim.StageReport) {
	m := c.stageMetricHandles(kind, phase)
	m.stages.Inc()
	m.tasks.Add(int64(parts))
	m.write.Add(spill)
	m.fetch.Add(fetch)
	for _, ts := range rep.Tasks {
		m.taskSeconds.Observe(ts.Raw.Seconds())
	}
	if skew > 0 {
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
func (c *Context) emitStageSpans(kind StageKind, phase string, stageID int, spill, fetch int64, rep sim.StageReport) {
	c.laneNames.Do(c.nameTraceLanes)
	cat := "stage"
	if phase != "" {
		cat = "stage," + phase
	}
	c.obsv.Add(obs.Span{
		Name: fmt.Sprintf("stage %d %s", stageID, kind), Cat: cat,
		Pid: c.pid, Tid: 0, Start: rep.Start, Dur: rep.Total,
		Args: map[string]string{
			"phase": phase,
			"tasks": fmt.Sprint(len(rep.Tasks)),
			"spill": fmt.Sprintf("%dB", spill),
			"fetch": fmt.Sprintf("%dB", fetch),
		},
	})
	for n, io := range rep.NodeIO {
		if io > 0 {
			c.obsv.Add(obs.Span{
				Name: fmt.Sprintf("io stage %d", stageID), Cat: "io",
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
			Name: fmt.Sprintf("task %d.%d", stageID, ts.Index), Cat: "task",
			Pid: c.pid, Tid: c.laneTid(ts.Node, ts.Lane),
			Start: rep.Start + ts.Start, Dur: ts.Dur,
			Args: map[string]string{"raw": ts.Raw.String()},
		})
	}
}

// ensureUpstream materializes every shuffle the dataset's lineage needs,
// parents first. Traversal stops at fully cached datasets and at already
// materialized shuffles — exactly Spark's stage-skipping behaviour.
func (c *Context) ensureUpstream(ds *dataset, visited map[*dataset]bool) {
	if visited[ds] {
		return
	}
	visited[ds] = true
	if ds.fullyCached() {
		return
	}
	if ds.shuffle != nil {
		sd := ds.shuffle
		c.mu.Lock()
		st := c.shuffles[sd.id]
		c.mu.Unlock()
		if st != nil && st.isDone() {
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
	c.runStage(StageResult, -1, ds.parts, c.CurrentPhase(), func(tc *TaskContext, split int) {
		out[split] = c.iterate(ds, split, tc)
	})
	return out
}
