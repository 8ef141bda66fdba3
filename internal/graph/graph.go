// Package graph provides directed weighted graphs, synthetic generators
// standing in for the paper's APSP inputs, conversion to the dense
// distance matrices the GEP solvers consume, and reference shortest-path
// algorithms (Dijkstra, plain Floyd-Warshall) used to validate results.
package graph

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"

	"dpspark/internal/matrix"
)

// Edge is a directed weighted edge from From to To.
type Edge struct {
	From, To int
	Weight   float64
}

// Graph is a directed weighted graph in adjacency-list form.
type Graph struct {
	N   int
	Adj [][]Edge // Adj[u] lists edges leaving u
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	return &Graph{N: n, Adj: make([][]Edge, n)}
}

// AddEdge inserts the directed edge u→v with weight w.
func (g *Graph) AddEdge(u, v int, w float64) {
	if u < 0 || u >= g.N || v < 0 || v >= g.N {
		panic(fmt.Sprintf("graph: edge (%d,%d) outside %d vertices", u, v, g.N))
	}
	g.Adj[u] = append(g.Adj[u], Edge{From: u, To: v, Weight: w})
}

// Edges returns the number of edges.
func (g *Graph) Edges() int {
	m := 0
	for _, es := range g.Adj {
		m += len(es)
	}
	return m
}

// DistanceMatrix converts the graph to the n×n matrix d⁰ of the
// closed-semiring formulation: d⁰[i,i] = 0, d⁰[i,j] = min edge weight for
// parallel edges, +∞ where no edge exists.
func (g *Graph) DistanceMatrix() *matrix.Dense {
	d := matrix.NewDense(g.N)
	for i := 0; i < g.N; i++ {
		g.DistanceRow(i, d.Data[i*g.N:(i+1)*g.N])
	}
	return d
}

// DistanceRow writes row i of DistanceMatrix into row (length N) and
// returns it: the solvers build their tiles from these rows
// (matrix.BlockRows) without the dense matrix. A self-loop lighter than 0
// sets the diagonal; a NaN weight never wins.
func (g *Graph) DistanceRow(i int, row []float64) []float64 {
	row = row[:g.N]
	inf := math.Inf(1)
	for j := range row {
		row[j] = inf
	}
	row[i] = 0
	for _, e := range g.Adj[i] {
		if e.Weight < row[e.To] {
			row[e.To] = e.Weight
		}
	}
	return row
}

// AdjacencyBool converts the graph to a boolean (0/1) reachability matrix
// for transitive closure: 1 on the diagonal and wherever an edge exists.
func (g *Graph) AdjacencyBool() *matrix.Dense {
	d := matrix.NewDense(g.N)
	for i := 0; i < g.N; i++ {
		d.Set(i, i, 1)
	}
	for _, es := range g.Adj {
		for _, e := range es {
			d.Set(e.From, e.To, 1)
		}
	}
	return d
}

// Random returns an Erdős–Rényi style directed graph: each ordered pair
// (u,v), u≠v, carries an edge with probability p and weight uniform in
// [wLo, wHi).
func Random(n int, p float64, wLo, wHi float64, rng *rand.Rand) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || rng.Float64() >= p {
				continue
			}
			g.AddEdge(u, v, wLo+rng.Float64()*(wHi-wLo))
		}
	}
	return g
}

// Grid returns a rows×cols 4-neighbour grid with independent random
// weights per direction — a stand-in for road networks, one of the
// transportation applications the paper cites for FW-APSP.
func Grid(rows, cols int, wLo, wHi float64, rng *rand.Rand) *Graph {
	g := New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	w := func() float64 { return wLo + rng.Float64()*(wHi-wLo) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddEdge(id(r, c), id(r, c+1), w())
				g.AddEdge(id(r, c+1), id(r, c), w())
			}
			if r+1 < rows {
				g.AddEdge(id(r, c), id(r+1, c), w())
				g.AddEdge(id(r+1, c), id(r, c), w())
			}
		}
	}
	return g
}

// dijkstraItem is a priority-queue entry.
type dijkstraItem struct {
	v    int
	dist float64
}

type dijkstraPQ []dijkstraItem

func (q dijkstraPQ) Len() int            { return len(q) }
func (q dijkstraPQ) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q dijkstraPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *dijkstraPQ) Push(x interface{}) { *q = append(*q, x.(dijkstraItem)) }
func (q *dijkstraPQ) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// Dijkstra returns single-source shortest-path distances from src.
// Weights must be non-negative. Used as an independent oracle for
// validating FW-APSP outputs.
func (g *Graph) Dijkstra(src int) []float64 {
	dist := make([]float64, g.N)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	pq := &dijkstraPQ{{v: src, dist: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(dijkstraItem)
		if it.dist > dist[it.v] {
			continue
		}
		for _, e := range g.Adj[it.v] {
			if nd := it.dist + e.Weight; nd < dist[e.To] {
				dist[e.To] = nd
				heap.Push(pq, dijkstraItem{v: e.To, dist: nd})
			}
		}
	}
	return dist
}

// APSPReference computes all-pairs shortest paths by running Dijkstra from
// every source. O(n·m·log n); for validation on small graphs only.
func (g *Graph) APSPReference() *matrix.Dense {
	d := matrix.NewDense(g.N)
	for s := 0; s < g.N; s++ {
		copy(d.Data[s*g.N:(s+1)*g.N], g.Dijkstra(s))
	}
	return d
}
