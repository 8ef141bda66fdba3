// Package experiments regenerates every table and figure of the paper's
// evaluation (§V) on the cluster model: Tables I–II (the executor-cores ×
// OMP_NUM_THREADS grids), Fig. 6 (implementation × kernel × block-size
// sweeps for FW-APSP and GE), Fig. 8 (portability across the Skylake and
// Haswell clusters) and Fig. 9 (weak scaling), plus the headline
// iterative-vs-recursive speedups and the ablations DESIGN.md lists.
//
// Runs are symbolic (model mode): the drivers execute their real code
// path over symbolic tiles and the cluster simulator prices every stage;
// see EXPERIMENTS.md for paper-vs-model numbers.
package experiments

import (
	"fmt"

	"dpspark/internal/cluster"
	"dpspark/internal/core"
	"dpspark/internal/matrix"
	"dpspark/internal/obs"
	"dpspark/internal/rdd"
	"dpspark/internal/semiring"
	"dpspark/internal/simtime"
)

// PaperN is the evaluation's problem size: a 32K×32K DP table.
const PaperN = 32768

// obsv, when set, is shared by every experiment context so a whole sweep
// aggregates into one trace/metrics export (cmd/dpspark -trace/-metrics).
var obsv *obs.Observer

// SetObserver routes the spans and metrics of all subsequent experiment
// runs into o; nil restores per-run private observers.
func SetObserver(o *obs.Observer) { obsv = o }

// Benchmark selects one of the paper's two GEP benchmarks.
type Benchmark int

// Benchmarks.
const (
	// FW is Floyd-Warshall all-pairs shortest paths.
	FW Benchmark = iota
	// GE is Gaussian elimination without pivoting.
	GE
)

// String names the benchmark.
func (b Benchmark) String() string {
	if b == GE {
		return "GE"
	}
	return "FW-APSP"
}

// Rule returns the benchmark's GEP update rule.
func (b Benchmark) Rule() semiring.Rule {
	if b == GE {
		return semiring.NewGaussian()
	}
	return semiring.NewFloydWarshall()
}

// Cell is one experiment configuration: a point in the paper's tuning
// space (r, r_shared, OMP_NUM_THREADS, executor-cores, partitions) on one
// cluster, benchmark and problem size. The tables, figures and the
// autotuner all price cells with Run.
type Cell struct {
	// Cluster to price on (nil → Skylake16).
	Cluster *cluster.Cluster
	// Bench selects the update rule.
	Bench Benchmark
	// N is the problem size (0 → PaperN).
	N int
	// Driver is IM or CB.
	Driver core.DriverKind
	// Block is the tile size b.
	Block int
	// Recursive selects r_shared-way R-DP kernels.
	Recursive bool
	// RShared and Threads configure recursive kernels.
	RShared, Threads int
	// ExecutorCores overrides the per-executor task slots (0 → all).
	ExecutorCores int
	// KernelThreads is the iterative kernel's row-band pool width
	// (0 or 1: serial; ignored for recursive kernels, which use Threads).
	KernelThreads int
	// Partitions overrides the RDD partition count (0 → 2× cores).
	Partitions int
}

// String renders the cell's tuning point compactly.
func (c Cell) String() string {
	kernel := "iter"
	if c.Recursive {
		kernel = fmt.Sprintf("rec%d/omp%d", c.RShared, c.Threads)
	} else if c.KernelThreads > 1 {
		kernel = fmt.Sprintf("iter/t%d", c.KernelThreads)
	}
	return fmt.Sprintf("%s b=%d %s cores=%d", c.Driver, c.Block, kernel, c.ExecutorCores)
}

// Result is a priced cell.
type Result struct {
	Cell
	// Time is the modelled job time.
	Time simtime.Duration
	// TimedOut marks runs beyond the paper's 8-hour bound.
	TimedOut bool
	// Err reports modelled failures (e.g. staging disk full).
	Err error
	// Breakdown attributes resource-seconds by cost category.
	Breakdown map[simtime.Category]simtime.Duration
	// Stats is the run's full report (critical-path phase decomposition,
	// traffic totals, straggler skew); nil when the run failed to start.
	Stats *core.Stats
}

// Note renders the failure annotation for charts ("" when the run is
// valid).
func (r Result) Note() string {
	switch {
	case r.Err != nil:
		return "failed"
	case r.TimedOut:
		return "timeout"
	default:
		return ""
	}
}

// Run prices one cell.
func Run(c Cell) Result { return run(c, nil, nil) }

// Defaulted returns the cell with its zero-value cluster and problem size
// replaced by Skylake16 and PaperN, as Run prices it.
func (c Cell) Defaulted() Cell {
	if c.Cluster == nil {
		c.Cluster = cluster.Skylake16()
	}
	if c.N == 0 {
		c.N = PaperN
	}
	return c
}

// run prices one cell under partitioner p (nil: the engine's default
// hash partitioner over c.Partitions), from sw's tape when the cell is
// part of a sweep.
func run(c Cell, p rdd.Partitioner, sw *sweep) Result {
	c = c.Defaulted()
	ctx := rdd.NewContext(rdd.Conf{
		Cluster:       c.Cluster,
		ExecutorCores: c.ExecutorCores,
		KernelThreads: c.KernelThreads,
		Observer:      obsv,
	})
	defer ctx.Close()
	cfg := core.Config{
		Rule:            c.Bench.Rule(),
		BlockSize:       c.Block,
		Driver:          c.Driver,
		RecursiveKernel: c.Recursive,
		RShared:         c.RShared,
		Threads:         c.Threads,
		Partitions:      c.Partitions,
		Partitioner:     p,
	}
	var stats *core.Stats
	var err error
	switch {
	case sw != nil && sw.tape != nil && sameShape(c, sw.first):
		stats, err = core.Reprice(ctx, sw.tape, c.N, cfg)
	case sw != nil && sw.tape == nil && obsv == nil:
		stats, sw.tape, err = core.Record(ctx, c.N, cfg)
		sw.first = c
	default:
		_, stats, err = core.Run(ctx, matrix.NewSymbolicBlocked(c.N, c.Block), cfg)
	}
	return result(c, ctx, stats, err)
}

// sweep prices a table or a RunBestThreads call from one run: its first
// cell records a tape (core.Record) that prices every later cell of the
// same shape. Other cells, and all while an observer is set, replay. The
// tape dies with the sweep, so each regeneration runs its first cell.
type sweep struct {
	first Cell
	tape  *rdd.Tape
}

// sameShape reports whether two defaulted cells differ at most in kernel
// settings and executor cores, which change what a kernel call costs but
// not which calls a run makes or what it moves.
func sameShape(a, b Cell) bool {
	ca, cb := *a.Cluster, *b.Cluster
	for _, c := range []*Cell{&a, &b} {
		c.Cluster, c.Recursive, c.RShared, c.Threads, c.ExecutorCores = nil, false, 0, 0, 0
	}
	return a == b && ca == cb
}

// result assembles a priced cell from its run's context and report.
func result(c Cell, ctx *rdd.Context, stats *core.Stats, err error) Result {
	res := Result{Cell: c, Err: err, Breakdown: ctx.Ledger().Snapshot(), Stats: stats}
	if stats != nil {
		res.Time = stats.Time
		res.TimedOut = stats.TimedOut
	}
	return res
}

// RunBestThreads prices the cell at each OMP_NUM_THREADS candidate and
// returns the fastest valid run — the paper's methodology of reporting
// the best thread count per configuration (§V-C).
func RunBestThreads(c Cell, threadCandidates []int) Result {
	if !c.Recursive || len(threadCandidates) == 0 {
		return Run(c)
	}
	var best Result
	var sw sweep
	for i, th := range threadCandidates {
		cc := c
		cc.Threads = th
		r := run(cc, nil, &sw)
		if i == 0 || Better(r, best) {
			best = r
		}
	}
	return best
}

// Better prefers valid runs, then lower times: the order every sweep
// (RunBestThreads, autotune.Search) picks its winner by.
func Better(a, b Result) bool {
	av, bv := a.Note() == "", b.Note() == ""
	if av != bv {
		return av
	}
	return a.Time < b.Time
}
