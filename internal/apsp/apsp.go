// Package apsp solves the all-pairs shortest-path problem — the paper's
// graph benchmark — on the GEP framework: Floyd-Warshall over the
// tropical semiring, generalized (like the paper, which extends the
// Schoeneman–Zola solver from undirected to directed graphs) to any
// closed semiring and arbitrary directed inputs. It also provides path
// reconstruction from the distance matrix.
//
// Input path: Solve builds the b×b tiles straight from the graph, one
// row of d⁰ at a time (graph.DistanceRow into matrix.BlockRows), so the
// n×n d⁰ is never made dense; SolveMatrix blocks a d⁰ the caller built
// (matrix.Block, the same blocker). Either way the result is made dense
// once, at the end.
package apsp

import (
	"fmt"
	"math"

	"dpspark/internal/core"
	"dpspark/internal/graph"
	"dpspark/internal/matrix"
	"dpspark/internal/rdd"
	"dpspark/internal/semiring"
)

// Solver configures FW-APSP runs.
type Solver struct {
	// Config is the GEP execution configuration; Rule defaults to the
	// min-plus Floyd-Warshall rule when nil.
	Config core.Config
}

// New returns a solver with the given execution configuration.
func New(cfg core.Config) *Solver {
	if cfg.Rule == nil {
		cfg.Rule = semiring.NewFloydWarshall()
	}
	return &Solver{Config: cfg}
}

// Solve computes all-pairs shortest distances for the directed graph.
// The result matrix holds d(i,j), +∞ where j is unreachable from i. The
// tiles are built straight from the graph's rows (graph.DistanceRow), so
// d⁰ is never made dense; the result is SolveMatrix(g.DistanceMatrix())
// bit for bit.
func (s *Solver) Solve(ctx *rdd.Context, g *graph.Graph) (*matrix.Dense, *core.Stats, error) {
	cfg := s.Config
	if cfg.BlockSize < 1 {
		return nil, nil, fmt.Errorf("apsp: BlockSize must be set")
	}
	return s.run(ctx, matrix.BlockRows(g.N, cfg.BlockSize, cfg.Rule.Pad(), cfg.Rule.PadDiag(), g.DistanceRow))
}

// SolveMatrix runs the solver on a pre-built distance matrix (d⁰ of the
// closed-semiring formulation).
func (s *Solver) SolveMatrix(ctx *rdd.Context, d *matrix.Dense) (*matrix.Dense, *core.Stats, error) {
	cfg := s.Config
	if cfg.BlockSize < 1 {
		return nil, nil, fmt.Errorf("apsp: BlockSize must be set")
	}
	return s.run(ctx, matrix.Block(d, cfg.BlockSize, cfg.Rule.Pad(), cfg.Rule.PadDiag()))
}

// run solves the blocked d⁰ and returns the dense result.
func (s *Solver) run(ctx *rdd.Context, bl *matrix.Blocked) (*matrix.Dense, *core.Stats, error) {
	out, stats, err := core.Run(ctx, bl, s.Config)
	if err != nil {
		return nil, stats, err
	}
	return out.ToDense(), stats, nil
}

// ReconstructPath returns the vertices of one shortest path from u to v
// given the original graph and the solved distance matrix, or nil if v is
// unreachable. It walks greedily: from u it follows any edge (u,w) with
// d0(u,w) + d(w,v) = d(u,v).
func ReconstructPath(g *graph.Graph, dist *matrix.Dense, u, v int) []int {
	const eps = 1e-9
	if u < 0 || v < 0 || u >= g.N || v >= g.N || math.IsInf(dist.At(u, v), 1) {
		return nil
	}
	path := []int{u}
	cur := u
	for cur != v {
		next := -1
		for _, e := range g.Adj[cur] {
			if math.Abs(e.Weight+dist.At(e.To, v)-dist.At(cur, v)) <= eps {
				next = e.To
				break
			}
		}
		if next == -1 || len(path) > g.N {
			return nil // inconsistent inputs
		}
		path = append(path, next)
		cur = next
	}
	return path
}

// PathLength sums the edge weights along a reconstructed path using the
// cheapest parallel edges; it validates reconstruction in tests.
func PathLength(g *graph.Graph, path []int) float64 {
	var total float64
	for i := 0; i+1 < len(path); i++ {
		best := math.Inf(1)
		for _, e := range g.Adj[path[i]] {
			if e.To == path[i+1] && e.Weight < best {
				best = e.Weight
			}
		}
		total += best
	}
	return total
}
