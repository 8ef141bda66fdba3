// Package core is the paper's primary contribution: the execution of
// GEP-form dynamic programs (Fig. 1) on a Spark-like engine via parametric
// r-way recursive divide-&-conquer algorithms (Fig. 4).
//
// The DP table is decomposed into an r×r grid of b×b tiles held in a pair
// RDD keyed by tile coordinate (§IV-C). Each top-level iteration k runs
// three kernel stages with the dependency structure of Fig. 7:
//
//	A(k,k)  ──────►  B(k,j) ∀j   ─┐
//	   │                          ├──►  D(i,j) ∀i,j
//	   └──────────►  C(i,k) ∀i   ─┘
//
// (A feeds B, C and D; B feeds the D blocks below it in its column; C
// feeds the D blocks beside it in its row.) Which i, j participate is the
// update rule's Restricted range: every non-pivot index for semiring GEP
// (Floyd-Warshall), only the trailing submatrix for Gaussian elimination.
//
// Two drivers move tiles between stages:
//
//   - IM (In-Memory, Listing 1): kernels emit copies of their freshly
//     updated tile addressed to every consumer; combineByKey assembles
//     each target tile's operand set. All movement is RDD shuffles staged
//     on node-local disks.
//   - CB (Collect-Broadcast, Listing 2): updated pivot/panel tiles are
//     collected to the driver and redistributed through shared persistent
//     storage; only the end-of-iteration partitionBy shuffles data.
//
// Kernels inside executors are either iterative loops or parallel
// recursive r_shared-way R-DP (internal/kernels) — the paper's OpenMP
// offload, realized as a bounded goroutine pool.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dpspark/internal/costmodel"
	"dpspark/internal/kernels"
	"dpspark/internal/matrix"
	"dpspark/internal/obs"
	"dpspark/internal/rdd"
	"dpspark/internal/semiring"
)

// Block is one DP-table tile record: the pair RDD element of §IV-C.
type Block = rdd.Pair[matrix.Coord, *matrix.Tile]

// DriverKind selects the tile-movement strategy.
type DriverKind int

// Driver kinds.
const (
	// IM is the In-Memory driver (Listing 1).
	IM DriverKind = iota
	// CB is the Collect-Broadcast driver (Listing 2).
	CB
)

// String names the driver.
func (d DriverKind) String() string {
	if d == CB {
		return "CB"
	}
	return "IM"
}

// Config carries the paper's tunables for one run.
type Config struct {
	// Rule is the GEP update rule (Floyd-Warshall, Gaussian, ...).
	Rule semiring.Rule
	// BlockSize is the tile dimension b; the grid dimension r follows
	// from the problem size (with virtual padding).
	BlockSize int
	// Driver selects IM or CB.
	Driver DriverKind
	// RecursiveKernel selects r_shared-way R-DP kernels; false runs
	// iterative loop kernels.
	RecursiveKernel bool
	// RShared is the recursive kernel fan-out (≥2).
	RShared int
	// Base is the recursive base-case size (default 64).
	Base int
	// Threads is OMP_NUM_THREADS for recursive kernels. 0 inherits the
	// engine's rdd.Conf.KernelThreads, the width of the shared per-node
	// kernel pools iterative kernels split their row bands on.
	Threads int
	// Partitions is the RDD partition count (default: 2× total cores,
	// the paper's guideline).
	Partitions int
	// Partitioner overrides the default hash partitioner (the paper's
	// future-work grid partitioner lives in internal/rdd).
	Partitioner rdd.Partitioner
	// CheckpointEvery is the IM driver's lineage-truncation cadence: the
	// DP table is checkpointed every K iterations (and always after the
	// last), bounding recompute depth under failure to K iterations'
	// shuffles. Default 1 — per-iteration, the Spark FW implementations'
	// behaviour. The CB driver ignores it for truncation (its
	// collect/broadcast staging already persists each iteration's panels
	// outside the lineage) but honours it as the durable-checkpoint
	// cadence when DurableDir is set.
	CheckpointEvery int
	// DurableDir, when non-empty, makes every CheckpointEvery boundary
	// durable: the driver persists the full tile grid, the iteration
	// cursor and the engine's restartable scheduler state as an
	// atomically-written, per-section-checksummed checkpoint file under
	// this directory (see internal/store). Resume restarts from the
	// newest intact checkpoint, bit-identical to the uninterrupted run.
	// Default "": checkpoints only truncate lineage in memory.
	DurableDir string
	// KeepCheckpoints, when > 0, bounds durable checkpoint retention:
	// after each boundary's checkpoint is written, only the newest K
	// intact ckpt-*.ck files are retained — older ones are deleted, and
	// never before a newer checkpoint has verified, so a crash landing
	// anywhere inside the GC window still leaves a resumable set (see
	// store.GCCheckpoints). Requires DurableDir. Default 0: keep every
	// checkpoint.
	KeepCheckpoints int
	// DurableInterval, when > 0, spaces durable checkpoints by wall time: a
	// cadence boundary is persisted only once at least this long has
	// passed since the run's last durable point (Run/Resume start, or the
	// last boundary written) — the last boundary of the run included. A
	// boundary the run stops at (StopRequested, StopAfter) is always
	// persisted. A deferred boundary still truncates lineage, so stage
	// numbering, fault firing points and the virtual clock do not depend
	// on the interval, and a Resume from whichever boundary was written
	// gives the uninterrupted bits. Default 0: every cadence boundary is
	// persisted. Requires DurableDir.
	DurableInterval time.Duration
	// StopAfter, when >0, stops the driver loop cleanly after that many
	// iterations and returns the partial table — the kill switch of
	// checkpoint–restart demos and tests (`dpspark durable -stop`): a
	// later Resume picks up from the last durable boundary. Default 0:
	// run to completion.
	StopAfter int
	// StopRequested, when set, is polled at each iteration boundary: once
	// it reports true the driver stops like StopAfter — but first forces
	// a durable checkpoint at the stop boundary (when DurableDir is set),
	// even off the CheckpointEvery cadence, so no finished iteration is
	// lost. This is the cooperative hook behind graceful SIGTERM handling
	// and server drain: a later Resume continues from the stop boundary,
	// bit-identical. The function must be safe for concurrent use (it is
	// typically an atomic flag set from a signal handler).
	StopRequested func() bool
}

// normalize fills Config defaults and validates.
func (cfg *Config) normalize(ctx *rdd.Context) error {
	if cfg.Rule == nil {
		return fmt.Errorf("core: Config.Rule is required")
	}
	if cfg.BlockSize < 1 {
		return fmt.Errorf("core: BlockSize must be ≥1, got %d", cfg.BlockSize)
	}
	if cfg.RecursiveKernel {
		if cfg.RShared < 2 {
			return fmt.Errorf("core: RShared must be ≥2 for recursive kernels, got %d", cfg.RShared)
		}
		if cfg.Base < 1 {
			cfg.Base = 64
		}
		if cfg.Threads < 1 {
			cfg.Threads = ctx.KernelThreads()
		}
	}
	if cfg.Partitions < 1 {
		cfg.Partitions = ctx.Cluster().DefaultPartitions()
	}
	if cfg.Partitioner == nil {
		cfg.Partitioner = rdd.NewHashPartitioner(cfg.Partitions)
	}
	if cfg.CheckpointEvery < 0 {
		return fmt.Errorf("core: CheckpointEvery must be ≥ 0 (0 means every iteration), got %d", cfg.CheckpointEvery)
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 1
	}
	// A K-iteration lineage window keeps 3K shuffles alive (pivot,
	// row-col, update per iteration); the engine's shuffle cleanup must
	// not retire them while a later action (or failure recovery) can
	// still replay them.
	if cfg.Driver == IM && 3*cfg.CheckpointEvery > ctx.KeepShuffles() {
		return fmt.Errorf("core: CheckpointEvery %d needs %d live shuffles but the context keeps the last %d; IM needs CheckpointEvery ≤ %d",
			cfg.CheckpointEvery, 3*cfg.CheckpointEvery, ctx.KeepShuffles(), ctx.KeepShuffles()/3)
	}
	if cfg.StopAfter < 0 {
		return fmt.Errorf("core: StopAfter must be ≥ 0 (0 runs to completion), got %d", cfg.StopAfter)
	}
	if cfg.KeepCheckpoints < 0 {
		return fmt.Errorf("core: KeepCheckpoints must be ≥ 0 (0 keeps every checkpoint), got %d", cfg.KeepCheckpoints)
	}
	if cfg.KeepCheckpoints > 0 && cfg.DurableDir == "" {
		return fmt.Errorf("core: KeepCheckpoints %d needs DurableDir — there are no checkpoint files to retire", cfg.KeepCheckpoints)
	}
	if cfg.DurableInterval < 0 {
		return fmt.Errorf("core: DurableInterval must be ≥ 0 (0 persists every cadence boundary), got %v", cfg.DurableInterval)
	}
	if cfg.DurableInterval > 0 && cfg.DurableDir == "" {
		return fmt.Errorf("core: DurableInterval %v needs DurableDir — there are no checkpoint files to space out", cfg.DurableInterval)
	}
	return nil
}

// KernelName describes the kernel configuration on ctx for reports.
func (cfg Config) KernelName(ctx *rdd.Context) string {
	if cfg.RecursiveKernel {
		return fmt.Sprintf("rec%d-way(omp=%d)", cfg.RShared, cfg.Threads)
	}
	if t := ctx.KernelThreads(); t > 1 {
		return fmt.Sprintf("iterative(threads=%d)", t)
	}
	return "iterative"
}

// Run executes the GEP computation over the blocked DP table on the
// engine and returns the resulting table (nil for symbolic inputs), the
// run stats and the first failure, if any. The input is not mutated.
func Run(ctx *rdd.Context, bl *matrix.Blocked, cfg Config) (*matrix.Blocked, *Stats, error) {
	if bl.B != cfg.BlockSize {
		return nil, nil, fmt.Errorf("core: blocked matrix tile size %d != Config.BlockSize %d", bl.B, cfg.BlockSize)
	}
	if err := cfg.normalize(ctx); err != nil {
		return nil, nil, err
	}
	return execute(ctx, bl, cfg, 0, true)
}

// Record is Run over a symbolic n×n table that also returns the run's
// tape (rdd.Tape), or nil when the run cannot be re-priced: a fault plan
// or speculation, a failed or retried task, or an error not the model's.
func Record(ctx *rdd.Context, n int, cfg Config) (*Stats, *rdd.Tape, error) {
	ctx.RecordTape()
	_, stats, err := Run(ctx, matrix.NewSymbolicBlocked(n, cfg.BlockSize), cfg)
	if t := ctx.StopTape(); t != nil && errors.Is(err, ctx.Err()) {
		return stats, t, err
	}
	return stats, nil, err
}

// Reprice prices t, recorded by Record for an n×n table, as a run of cfg
// on ctx, a fresh context. It returns Run's result when cfg and ctx differ
// from the recorded run's only in kernel settings and executor cores,
// which change what a kernel call costs, not which calls a run makes.
func Reprice(ctx *rdd.Context, t *rdd.Tape, n int, cfg Config) (*Stats, error) {
	if err := cfg.normalize(ctx); err != nil {
		return nil, err
	}
	mark := MarkRun(ctx)
	prices := (&runner{ctx: ctx, cfg: cfg}).prices()
	ctx.Reprice(t, prices[:])
	return mark.StatsSince(ctx, matrix.Grid(n, cfg.BlockSize)), ctx.Err()
}

// execute runs the (normalized) driver loop from iteration startK.
// disown resets every input tile's ownership tag so the first kernel to
// touch one takes a defensive copy — Run's contract that the caller's
// matrix is never mutated; Resume instead keeps the checkpointed tags,
// whose replay semantics the resumed run must continue.
func execute(ctx *rdd.Context, bl *matrix.Blocked, cfg Config, startK int, disown bool) (*matrix.Blocked, *Stats, error) {
	mark := MarkRun(ctx)
	jobStart := ctx.Clock()

	var blocks []Block
	if disown {
		blocks = BlocksFromMatrix(bl)
	} else {
		blocks = blocksKeepingGen(bl)
	}
	dp := rdd.ParallelizePairs(ctx, blocks, cfg.Partitioner)
	run := &runner{ctx: ctx, cfg: cfg, r: bl.R, n: bl.N, startK: startK, lastDurable: time.Now()}

	var err error
	switch cfg.Driver {
	case CB:
		dp, err = run.collectBroadcast(dp)
	default:
		dp, err = run.inMemory(dp)
	}
	if err != nil {
		return nil, mark.StatsSince(ctx, bl.R), err
	}

	ctx.SetPhase("result")
	defer ctx.SetPhase("")
	var out *matrix.Blocked
	if bl.Symbolic() {
		// Materialize the final generation without hauling 8·n² bytes to
		// the driver (count is the terminal action).
		if _, err = dp.Count(); err != nil {
			return nil, mark.StatsSince(ctx, bl.R), err
		}
	} else {
		blocks, cerr := dp.Collect()
		if cerr != nil {
			return nil, mark.StatsSince(ctx, bl.R), cerr
		}
		out, err = MatrixFromBlocks(bl.N, bl.B, bl.R, blocks)
		if err != nil {
			return nil, mark.StatsSince(ctx, bl.R), err
		}
	}
	ctx.EmitDriverSpan(fmt.Sprintf("%s %s run r=%d", cfg.Driver, cfg.KernelName(ctx), bl.R),
		"run", jobStart, map[string]string{"driver": cfg.Driver.String(), "kernel": cfg.KernelName(ctx)})
	return out, mark.StatsSince(ctx, bl.R), nil
}

// SeededInput deterministically generates a run's input from its seed:
// a diagonally dominant matrix for Gaussian elimination, otherwise a
// graph with 30 % missing edges and weights in 1..9. The same (rule, n,
// seed) always yields the same matrix, so a served job, a durable CLI
// run and its resumed half compare by checksum.
func SeededInput(rule semiring.Rule, n int, seed int64) *matrix.Dense {
	rng := rand.New(rand.NewSource(seed))
	d := matrix.NewDense(n)
	if _, ok := rule.(semiring.GaussianRule); ok {
		d.FillDiagonallyDominant(rng)
		return d
	}
	d.Fill(func(i, j int) float64 {
		switch {
		case i == j:
			return 0
		case rng.Float64() < 0.3:
			return math.Inf(1)
		default:
			return 1 + math.Floor(rng.Float64()*9)
		}
	})
	return d
}

// BlocksFromMatrix flattens a blocked matrix into pair records. The tiles
// are disowned (gen 0) so the first kernel to touch one takes a defensive
// copy — Run's contract is that the input is never mutated.
func BlocksFromMatrix(bl *matrix.Blocked) []Block {
	out := make([]Block, 0, bl.R*bl.R)
	for _, c := range bl.Coords() {
		t := bl.Tile(c)
		t.SetGen(0)
		out = append(out, rdd.KV(c, t))
	}
	return out
}

// MatrixFromBlocks reassembles a blocked matrix from pair records,
// verifying that exactly the full grid is present.
func MatrixFromBlocks(n, b, r int, blocks []Block) (*matrix.Blocked, error) {
	out := matrix.NewSymbolicBlocked(n, b)
	if out.R != r {
		return nil, fmt.Errorf("core: grid %d does not match expected %d", out.R, r)
	}
	seen := make(map[matrix.Coord]bool, len(blocks))
	for _, blk := range blocks {
		if seen[blk.Key] {
			return nil, fmt.Errorf("core: duplicate block %v in result", blk.Key)
		}
		seen[blk.Key] = true
		// Disown the tile: it now belongs to the caller, and feeding it
		// into a later Run must force a fresh defensive copy.
		blk.Value.SetGen(0)
		out.SetTile(blk.Key, blk.Value)
	}
	if len(seen) != r*r {
		return nil, fmt.Errorf("core: result has %d blocks, want %d", len(seen), r*r)
	}
	return out, nil
}

// runner holds one Run's shared state.
type runner struct {
	ctx *rdd.Context
	cfg Config
	r   int
	// n is the unpadded problem size, recorded in durable checkpoints.
	n int
	// startK is the first iteration the driver loop runs: 0 for Run,
	// the checkpoint's iteration cursor for Resume.
	startK int
	// ckptBuf is the durable checkpoints' encode buffer, reused across the
	// run's boundaries (persist).
	ckptBuf []byte
	// lastDurable is the wall time of the run's last durable point — its
	// start, then each boundary persisted — which Config.DurableInterval
	// is measured from.
	lastDurable time.Time
}

// prices is what the cost model charges one call of each kind of the
// configured kernel on the run's b×b tiles, the only size its grid holds.
func (run *runner) prices() (p [4]rdd.Charge) {
	kc := costmodel.KernelConfig{Recursive: run.cfg.RecursiveKernel, RShared: run.cfg.RShared, Base: run.cfg.Base,
		Threads: run.ctx.KernelThreads(), CoTasks: run.ctx.ExecutorCores()}
	if run.cfg.RecursiveKernel {
		kc.Threads = run.cfg.Threads
	}
	m := run.ctx.Model()
	for kind := semiring.KindA; kind <= semiring.KindD; kind++ {
		p[kind] = rdd.Charge{
			Compute: m.KernelTime(run.cfg.Rule, kind, run.cfg.BlockSize, kc),
			Threads: m.Occupancy(kind, kc),
			Idle:    m.IdleThreads(kind, kc),
		}
	}
	return p
}

// newKernelRunner builds the run's kernel applicator: the configured
// exec, and everything about a kernel call that is the same for every
// call of the run, resolved once here — the per-kind metric handles and
// prices.
func (run *runner) newKernelRunner() *kernelRunner {
	var e kernels.PoolExec
	if run.cfg.RecursiveKernel {
		e = kernels.NewRecursiveExec(run.cfg.Rule, run.cfg.RShared, run.cfg.Base, run.cfg.Threads)
	} else {
		e = kernels.NewIterativePool(run.cfg.Rule, run.ctx.KernelThreads())
	}
	reg := run.ctx.Observer().Metrics()
	kr := &kernelRunner{exec: e, price: run.prices()}
	for kind := semiring.KindA; kind <= semiring.KindD; kind++ {
		l := obs.Labels{"exec": e.Name(), "kind": kind.String()}
		kr.m[kind] = kindMetrics{
			calls: reg.Counter("dpspark_kernel_calls_total", l),
			cost:  reg.Histogram("dpspark_kernel_seconds", l, kernelSecondsBuckets),
			occ:   reg.Gauge("dpspark_kernel_occupancy", l),
			wall:  reg.Histogram("dpspark_kernel_wall_seconds", l, kernelSecondsBuckets),
		}
	}
	return kr
}

// kindMetrics holds the resolved metric handles for one kernel kind:
// call count, modelled cost, occupancy high-water mark and the measured
// wall time of real executions (symbolic runs execute nothing and report
// no wall time).
type kindMetrics struct {
	calls *obs.Counter
	cost  *obs.Histogram
	occ   *obs.Gauge
	wall  *obs.Histogram
}

// kernelRunner applies kernels for one driver run.
type kernelRunner struct {
	// exec runs real-tile invocations with the task node's shared
	// kernel pool.
	exec kernels.PoolExec
	// price is the cost model's answer per kind (runner.prices).
	price [4]rdd.Charge
	m     [4]kindMetrics
	// tallies holds ended attempts' tallies for the next attempts.
	tallies sync.Pool
}

// kernelTally accumulates one task attempt's kernel metrics so that the
// shared registry — a mutex per histogram, per gauge — is touched once
// per attempt instead of three times per kernel call. The engine flushes
// it when the attempt ends, however it ends (rdd.AttemptLocal), which
// hands it back to its runner for a later attempt.
type kernelTally struct {
	kr    *kernelRunner
	kinds [4]kindTally
}

// kindTally is one kind's share of a kernelTally: the calls made at one
// price, and the sampled wall times not yet handed to the histogram.
//
// Reading the clock costs about as much as a b=8 kernel, so not every
// execution is timed. A timed call appends a sample — its wall time,
// weighted by one — and the untimed executions after it add to that
// sample's weight, so each sample stands for the calls it is followed by.
// The histogram's count therefore stays the exact execution count and its
// sum an unbiased estimate. A call at or above wallFloor is followed by a
// timed call, so calls that long are each timed; below it the gap to the
// next timed call doubles, up to wallStrideMax.
type kindTally struct {
	calls int64
	price rdd.Charge
	// stride is the current gap between timed calls, skip the untimed
	// executions left before the next timed one.
	stride, skip int32
	wall         []obs.Weighted
}

const (
	// wallChunk bounds how many samples an attempt buffers per kind;
	// the buffer starts at wallFirst and grows to it by doubling, since
	// most attempts time a kind a handful of times.
	wallChunk = 128
	wallFirst = 8
	// wallFloor is the wall time (seconds) from which every call is
	// timed: far above the ~60 ns a clock read costs.
	wallFloor = 10e-6
)

// wallStrideMax caps the gap between timed calls. A variable only so the
// tests can take an unsampled reference (1 times every call).
var wallStrideMax int32 = 64

// wallReads counts the clock reads made for kernel wall times — one per
// sample handed to a histogram. A test seam, not a metric.
var wallReads atomic.Int64

// timed records the wall time of a timed call as a new sample and sets
// how many executions go untimed after it.
func (k *kindTally) timed(seconds float64, h *obs.Histogram) {
	if len(k.wall) == wallChunk {
		k.observe(h)
	} else if k.wall == nil {
		k.wall = make([]obs.Weighted, 0, wallFirst)
	}
	k.wall = append(k.wall, obs.Weighted{V: seconds, N: 1})
	if seconds >= wallFloor {
		k.stride = 1
	} else {
		k.stride = min(max(2*k.stride, 2), wallStrideMax)
	}
	k.skip = k.stride - 1
}

// untimed adds an execution that was not timed to the last sample.
func (k *kindTally) untimed() {
	k.skip--
	k.wall[len(k.wall)-1].N++
}

// observe hands the buffered samples to h.
func (k *kindTally) observe(h *obs.Histogram) {
	h.ObserveWeighted(k.wall)
	wallReads.Add(int64(len(k.wall)))
	k.wall = k.wall[:0]
}

// tally returns the attempt's accumulator for this runner.
func (kr *kernelRunner) tally(tc *rdd.TaskContext) *kernelTally {
	if t, ok := tc.Local().(*kernelTally); ok && t.kr == kr {
		return t
	}
	t, _ := kr.tallies.Get().(*kernelTally)
	if t == nil {
		t = &kernelTally{kr: kr}
	}
	tc.SetLocal(t)
	return t
}

// Flush implements rdd.AttemptLocal.
func (t *kernelTally) Flush() {
	t.flush()
	t.kr.tallies.Put(t)
}

// flush hands the tally to the metrics and restarts its wall sampling.
// ObserveN adds the cost the way n Observe calls would, so
// dpspark_kernel_seconds_sum keeps its bits.
func (t *kernelTally) flush() {
	for kind := range t.kinds {
		k, m := &t.kinds[kind], &t.kr.m[kind]
		if k.calls > 0 {
			m.calls.Add(k.calls)
			m.cost.ObserveN(k.price.Compute.Seconds(), k.calls)
			m.occ.SetMax(float64(k.price.Threads))
			k.calls = 0
		}
		if len(k.wall) > 0 {
			k.observe(m.wall)
		}
		k.skip, k.stride = 0, 0
	}
}

// apply prices and (for real tiles) executes one kernel call, returning
// the updated tile. gen is the calling iteration's ownership tag
// (uint32(k)+1), captured by the driver's closures — not read from
// mutable runner state, because stage resubmission can replay an older
// iteration's kernels while the driver has already advanced. RDD records
// must behave as immutable values under lineage recomputation (which the
// CB driver performs every iteration, exactly like Spark without
// .cache(), and which failure recovery performs for lost map outputs),
// but a deep copy per call is only needed when a replay could still
// observe the input. The gen tag tracks that: gen 0 marks a tile the
// engine does not own (user input — clone it before mutating; a replay
// clones again and reproduces the identical result from the untouched
// input); a tile owned by a strictly earlier iteration is mutated in
// place, because first executions always advance the tag to at least this
// generation — 0 < tag < gen can only be a first execution; and a tile tagged with this generation or later already contains this
// kernel's effect — the call is a lineage replay (CB's deliberate
// recompute, a task retry, or a recovery recompute of an older stage) and
// returns it unchanged. Either way the modelled cost is charged in full:
// Spark really does recompute. The charged thread width is the kernel's
// occupancy — OMP threads beyond its exploitable parallelism sleep and do
// not contend for the node's cores.
func (kr *kernelRunner) apply(tc *rdd.TaskContext, gen uint32, kind semiring.Kind,
	x, u, v, w *matrix.Tile) *matrix.Tile {
	price := kr.price[kind]
	tc.ChargeCall(uint8(kind), price)
	t := kr.tally(tc)
	k := &t.kinds[kind]
	if k.calls > 0 && k.price != price {
		t.flush()
	}
	k.calls++
	k.price = price

	tag := x.Gen()
	if tag != 0 && tag >= gen {
		return x // replay of an already-applied kernel
	}
	out := x
	if tag == 0 {
		out = x.Clone()
	}
	if !out.Symbolic() {
		if k.skip > 0 {
			kr.run(tc, kind, out, u, v, w)
			k.untimed()
		} else {
			start := time.Now()
			kr.run(tc, kind, out, u, v, w)
			k.timed(time.Since(start).Seconds(), kr.m[kind].wall)
		}
	}
	out.SetGen(gen)
	return out
}

// run executes one kernel on real tiles.
func (kr *kernelRunner) run(tc *rdd.TaskContext, kind semiring.Kind, x, u, v, w *matrix.Tile) {
	kr.exec.ApplyWith(tc.KernelPool(), kind, x, u, v, w)
}

// kernelSecondsBuckets spans sub-millisecond base cases to multi-minute
// monolithic tiles.
var kernelSecondsBuckets = obs.ExpBuckets(1e-4, 2, 22)
