// Package closure computes transitive closure — Warshall's algorithm, the
// paper's third canonical GEP instance — on the distributed framework,
// and labels strongly connected components from the closure matrix.
package closure

import (
	"fmt"

	"dpspark/internal/core"
	"dpspark/internal/graph"
	"dpspark/internal/matrix"
	"dpspark/internal/rdd"
	"dpspark/internal/semiring"
)

// Solver configures closure runs.
type Solver struct {
	// Config is the GEP execution configuration; Rule is forced to the
	// boolean-semiring rule.
	Config core.Config
}

// New returns a solver with the given execution configuration.
func New(cfg core.Config) *Solver {
	cfg.Rule = semiring.NewTransitiveClosure()
	return &Solver{Config: cfg}
}

// Solve computes the reachability matrix of a directed graph: out[i,j] is
// 1 iff j is reachable from i (every vertex reaches itself).
func (s *Solver) Solve(ctx *rdd.Context, g *graph.Graph) (*matrix.Dense, *core.Stats, error) {
	cfg := s.Config
	if cfg.BlockSize < 1 {
		return nil, nil, fmt.Errorf("closure: BlockSize must be set")
	}
	bl := matrix.Block(g.AdjacencyBool(), cfg.BlockSize, cfg.Rule.Pad(), cfg.Rule.PadDiag())
	out, stats, err := core.Run(ctx, bl, cfg)
	if err != nil {
		return nil, stats, err
	}
	return out.ToDense(), stats, nil
}

// Components labels strongly connected components from a closure matrix:
// u and v share a component iff each reaches the other. Labels are dense
// in [0, #components), assigned in order of first appearance.
func Components(c *matrix.Dense) []int {
	labels := make([]int, c.N)
	for i := range labels {
		labels[i] = -1
	}
	next := 0
	for u := 0; u < c.N; u++ {
		if labels[u] != -1 {
			continue
		}
		labels[u] = next
		for v := u + 1; v < c.N; v++ {
			if labels[v] == -1 && c.At(u, v) != 0 && c.At(v, u) != 0 {
				labels[v] = next
			}
		}
		next++
	}
	return labels
}
