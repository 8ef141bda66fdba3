// Package dpspark executes dynamic-programming algorithms of the Gaussian
// Elimination Paradigm (GEP) — Floyd-Warshall all-pairs shortest paths,
// Gaussian elimination without pivoting, transitive closure and other
// closed-semiring path problems — on a Spark-like distributed dataflow
// engine, reproducing "Efficient Execution of Dynamic Programming
// Algorithms on Apache Spark" (IEEE CLUSTER 2020).
//
// The package is a facade over the building blocks in internal/: the
// engine (internal/rdd), the GEP drivers (internal/core), the kernels
// (internal/kernels) and the cluster cost model (internal/cluster,
// internal/costmodel, internal/sim). A Session binds a cluster
// description; solvers then run either for real (the engine computes
// actual results, goroutine-parallel) or symbolically (paper-scale
// performance modelling, no payload arithmetic):
//
//	s := dpspark.NewSession(dpspark.Local(8))
//	g := dpspark.RandomGraph(512, 0.05, 1, 10, 42)
//	dist, stats, err := s.APSP(g, dpspark.Config{BlockSize: 128})
//
// See examples/ for runnable programs and cmd/dpspark for the harness
// that regenerates every table and figure of the paper's evaluation.
package dpspark

import (
	"math/rand"

	"dpspark/internal/apsp"
	"dpspark/internal/closure"
	"dpspark/internal/cluster"
	"dpspark/internal/core"
	"dpspark/internal/ge"
	"dpspark/internal/graph"
	"dpspark/internal/lcs"
	"dpspark/internal/matrix"
	"dpspark/internal/obs"
	"dpspark/internal/rdd"
	"dpspark/internal/semiring"
)

// Re-exported building blocks. (This module ships as a self-contained
// reproduction; the aliases keep one canonical definition in internal/.)
type (
	// Graph is a directed weighted graph.
	Graph = graph.Graph
	// Matrix is a square dense matrix.
	Matrix = matrix.Dense
	// Config carries the paper's tunables: block size, driver,
	// iterative vs recursive kernels, r_shared, OMP-style threads,
	// partitions and partitioner.
	Config = core.Config
	// Stats reports a run's modelled time and outcome.
	Stats = core.Stats
	// Cluster describes the (simulated) hardware.
	Cluster = cluster.Cluster
	// Semiring is a closed semiring for path problems.
	Semiring = semiring.Semiring
	// Observer is the observability sink: span tracer plus metrics
	// registry (internal/obs).
	Observer = obs.Observer
)

// NewObserver creates a standalone observer (metrics on, tracing off
// until EnableTrace) for sharing across sessions.
func NewObserver() *Observer { return obs.New() }

// Driver kinds (tile-movement strategies).
const (
	// IM is the In-Memory shuffle driver (Listing 1 of the paper).
	IM = core.IM
	// CB is the Collect-Broadcast driver (Listing 2).
	CB = core.CB
)

// Cluster presets.
var (
	// Skylake16 is the paper's primary 16-node cluster.
	Skylake16 = cluster.Skylake16
	// Haswell16 is the paper's weaker portability cluster.
	Haswell16 = cluster.Haswell16
	// Local is a single-node cluster for real-mode runs.
	Local = cluster.Local
)

// Session binds solvers to a cluster. Each Session owns an engine context
// and a virtual clock; create a fresh Session per experiment for clean
// timing.
type Session struct {
	ctx *rdd.Context
}

// NewSession creates a session on the given cluster.
func NewSession(c *Cluster) *Session {
	return &Session{ctx: rdd.NewContext(rdd.Conf{Cluster: c})}
}

// NewSessionExecutorCores creates a session with an explicit
// executor-cores setting (concurrent task slots per node).
func NewSessionExecutorCores(c *Cluster, execCores int) *Session {
	return &Session{ctx: rdd.NewContext(rdd.Conf{Cluster: c, ExecutorCores: execCores})}
}

// NewSessionKernelThreads creates a session whose executors run
// intra-tile parallel kernels: each node owns a shared kernel pool of
// the given width, tasks split tile updates into row bands on it, and
// the default task-slot count co-tunes to cores/threads — the paper's
// executor-cores × OMP_NUM_THREADS trade-off. Results are bit-identical
// to a serial session's.
func NewSessionKernelThreads(c *Cluster, threads int) *Session {
	return &Session{ctx: rdd.NewContext(rdd.Conf{Cluster: c, KernelThreads: threads})}
}

// NewSessionObserved creates a session that reports spans and metrics
// into the given observer (pass one observer to several sessions to
// aggregate a sweep into a single trace/metrics export). execCores ≤ 0
// uses all physical cores per node.
func NewSessionObserved(c *Cluster, execCores int, o *Observer) *Session {
	return &Session{ctx: rdd.NewContext(rdd.Conf{Cluster: c, ExecutorCores: execCores, Observer: o})}
}

// Context exposes the underlying engine context (ledger, clock, model).
func (s *Session) Context() *rdd.Context { return s.ctx }

// Observer exposes the session's observability sink: the span tracer
// (Chrome trace-event export via WriteChromeTrace, opt-in through
// EnableTrace) and the metrics registry (Prometheus text export via
// Metrics().WritePrometheus).
func (s *Session) Observer() *Observer { return s.ctx.Observer() }

// APSP computes all-pairs shortest distances of a directed graph with
// Floyd-Warshall over the min-plus semiring.
func (s *Session) APSP(g *Graph, cfg Config) (*Matrix, *Stats, error) {
	return apsp.New(cfg).Solve(s.ctx, g)
}

// APSPSemiring solves the all-pairs path problem over an arbitrary closed
// semiring; d0 is the n×n label matrix (1̄ diagonal, 0̄ for absent edges).
func (s *Session) APSPSemiring(d0 *Matrix, sr Semiring, cfg Config) (*Matrix, *Stats, error) {
	cfg.Rule = semiring.SemiringRule{S: sr}
	return apsp.New(cfg).SolveMatrix(s.ctx, d0)
}

// TransitiveClosure computes reachability (0/1 matrix) of a directed
// graph — Warshall's algorithm over the boolean semiring.
func (s *Session) TransitiveClosure(g *Graph, cfg Config) (*Matrix, *Stats, error) {
	cfg.Rule = semiring.NewTransitiveClosure()
	return apsp.New(cfg).SolveMatrix(s.ctx, g.AdjacencyBool())
}

// StronglyConnectedComponents labels each vertex with its SCC (dense
// labels in [0, #components)), computed from the distributed transitive
// closure.
func (s *Session) StronglyConnectedComponents(g *Graph, cfg Config) ([]int, *Stats, error) {
	c, stats, err := closure.New(cfg).Solve(s.ctx, g)
	if err != nil {
		return nil, stats, err
	}
	return closure.Components(c), stats, nil
}

// SolveLinear solves A·x = b by distributed Gaussian elimination without
// pivoting (A must be diagonally dominant or SPD) plus driver-side back
// substitution.
func (s *Session) SolveLinear(a *Matrix, b []float64, cfg Config) ([]float64, *Stats, error) {
	return ge.New(cfg).Solve(s.ctx, a, b)
}

// Eliminate runs distributed forward elimination on an n×n GEP table and
// returns the eliminated table (use ge.LU / ge.BackSubstitute for
// factors and solutions).
func (s *Session) Eliminate(x *Matrix, cfg Config) (*Matrix, *Stats, error) {
	return ge.New(cfg).Eliminate(s.ctx, x)
}

// LCS computes the longest-common-subsequence length of two byte
// sequences with the blocked wavefront DP — the framework's beyond-GEP
// extension (sequence alignment family).
func (s *Session) LCS(a, b []byte, blockSize int) (int, *Stats, error) {
	res, err := lcs.Solve(s.ctx, a, b, lcs.Config{BlockSize: blockSize})
	if err != nil {
		return 0, nil, err
	}
	return res.Length, &Stats{Time: res.Time, Wall: res.Wall, Iterations: res.Waves}, nil
}

// ShortestPath reconstructs one shortest path u→v from a solved distance
// matrix, or nil if unreachable.
func ShortestPath(g *Graph, dist *Matrix, u, v int) []int {
	return apsp.ReconstructPath(g, dist, u, v)
}

// Residual returns max|A·x − b| for solution checking.
func Residual(a *Matrix, x, b []float64) float64 { return ge.Residual(a, x, b) }

// MinPlus returns the tropical semiring (shortest paths).
func MinPlus() Semiring { return semiring.MinPlus() }

// MaxMin returns the bottleneck semiring (widest paths).
func MaxMin() Semiring { return semiring.MaxMin() }

// RandomGraph generates an Erdős–Rényi style directed graph with edge
// probability p and uniform weights in [wLo, wHi).
func RandomGraph(n int, p, wLo, wHi float64, seed int64) *Graph {
	return graph.Random(n, p, wLo, wHi, rand.New(rand.NewSource(seed)))
}

// GridGraph generates a rows×cols road-network-style grid with random
// per-direction weights.
func GridGraph(rows, cols int, wLo, wHi float64, seed int64) *Graph {
	return graph.Grid(rows, cols, wLo, wHi, rand.New(rand.NewSource(seed)))
}

// RandomSystem generates a diagonally dominant m×m system A·x = b safe
// for elimination without pivoting.
func RandomSystem(m int, seed int64) (*Matrix, []float64) {
	rng := rand.New(rand.NewSource(seed))
	a := matrix.NewDense(m)
	a.FillDiagonallyDominant(rng)
	b := make([]float64, m)
	for i := range b {
		b[i] = rng.NormFloat64() * 10
	}
	return a, b
}
