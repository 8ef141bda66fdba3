package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"dpspark"
	"dpspark/internal/graph"
	"dpspark/internal/matrix"
)

// solve runs the engine for real on the local machine through the public
// facade: -bench fw solves all-pairs shortest paths of a directed weighted
// graph, -bench ge the dense system A·x = b by Gaussian elimination without
// pivoting (A diagonally dominant or SPD).
//
//	dpspark solve -bench fw -size 512 -p 0.05 -block 128 -driver im
//	dpspark solve -bench fw -graph roads.txt -block 256 -kernel rec -rshared 4 -threads 8 -out dist.bin
//	dpspark solve -bench fw -grid 30x30 -query 0,899
//	dpspark solve -bench ge -size 1024 -block 128 -driver cb -kernel rec -rshared 4 -threads 8
//	dpspark solve -bench ge -matrix A.bin -rhs b.txt -out x.txt
func (v *inv) solve(_ context.Context, w io.Writer) error {
	rule, drv, err := ruleDriver(v.bench, v.driver)
	if err != nil {
		return err
	}
	bench, other := ruleFlagName(rule.Name()), []string{"matrix", "rhs"}
	if bench == "ge" {
		other = []string{"graph", "dimacs", "grid", "p", "query"}
	}
	for _, name := range other {
		if v.set[name] {
			return fmt.Errorf("solve: -%s does not apply to -bench %s", name, bench)
		}
	}
	if v.set["size"] && v.size < 1 {
		return fmt.Errorf("solve: -size %d, want ≥ 1", v.size)
	}
	cfg := dpspark.Config{BlockSize: v.block, Driver: drv}
	switch strings.ToLower(v.kernel) {
	case "iter":
	case "rec":
		cfg.RecursiveKernel, cfg.RShared, cfg.Threads = true, v.rshared, v.threads
	default:
		return fmt.Errorf("unknown -kernel %q (want iter or rec)", v.kernel)
	}
	s := dpspark.NewSession(dpspark.Local(v.cores))
	if bench == "ge" {
		return v.solveLinear(w, s, cfg)
	}
	return v.solveAPSP(w, s, cfg)
}

func (v *inv) solveAPSP(w io.Writer, s *dpspark.Session, cfg dpspark.Config) error {
	g, err := v.loadGraph()
	if err != nil {
		return err
	}
	var from, to int
	if v.query != "" {
		if from, to, err = parseQuery(v.query, g.N); err != nil {
			return err
		}
	}
	dist, stats, err := s.APSP(g, cfg)
	if err != nil {
		return err
	}
	reachable, sum := 0, 0.0
	for i, d := range dist.Data {
		if i/dist.N != i%dist.N && !math.IsInf(d, 1) {
			reachable++
			sum += d
		}
	}
	fmt.Fprintf(w, "solved APSP: %d vertices, %d edges, %d reachable pairs, mean distance %.3f\n",
		g.N, g.Edges(), reachable, sum/math.Max(1, float64(reachable)))
	printWall(w, stats)
	if v.query != "" {
		if path := dpspark.ShortestPath(g, dist, from, to); path == nil {
			fmt.Fprintf(w, "no path %d→%d\n", from, to)
		} else {
			fmt.Fprintf(w, "shortest path %d→%d (length %.3f): %v\n", from, to, dist.At(from, to), path)
		}
	}
	if v.out == "" {
		return nil
	}
	if err := writeFile(v.out, func(f io.Writer) error { return matrix.WriteDense(f, dist) }); err != nil {
		return err
	}
	fmt.Fprintf(w, "distance matrix written to %s\n", v.out)
	return nil
}

func (v *inv) solveLinear(w io.Writer, s *dpspark.Session, cfg dpspark.Config) error {
	a, b, err := v.loadSystem()
	if err != nil {
		return err
	}
	x, stats, err := s.SolveLinear(a, b, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "solved %d×%d system: residual max|A·x−b| = %.3g\n", a.N, a.N, dpspark.Residual(a, x, b))
	printWall(w, stats)
	if v.out == "" {
		return nil
	}
	err = writeFile(v.out, func(f io.Writer) error {
		bw := bufio.NewWriter(f)
		for _, xi := range x {
			fmt.Fprintf(bw, "%.17g\n", xi)
		}
		return bw.Flush()
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "solution written to %s\n", v.out)
	return nil
}

func printWall(w io.Writer, st *dpspark.Stats) {
	fmt.Fprintf(w, "wall %v, modelled cluster time %v over %d iterations\n",
		st.Wall.Round(time.Millisecond), st.Time, st.Iterations)
}

// loadGraph reads or generates the one graph input solve was given.
func (v *inv) loadGraph() (*dpspark.Graph, error) {
	given := 0
	for _, name := range []string{"graph", "dimacs", "grid", "size"} {
		if v.set[name] {
			given++
		}
	}
	if given != 1 {
		return nil, fmt.Errorf("solve -bench fw: give exactly one input: -graph FILE, -dimacs FILE, -grid ROWSxCOLS or -size N (random graph)")
	}
	switch {
	case v.set["graph"]:
		return readFile(v.graph, graph.ReadEdgeList)
	case v.set["dimacs"]:
		return readFile(v.dimacs, graph.ReadDIMACS)
	case v.set["grid"]:
		r, c, ok := strings.Cut(v.grid, "x")
		rows, err1 := strconv.Atoi(r)
		cols, err2 := strconv.Atoi(c)
		if !ok || err1 != nil || err2 != nil || rows < 1 || cols < 1 {
			return nil, fmt.Errorf("bad -grid %q, want ROWSxCOLS (e.g. -grid 30x30)", v.grid)
		}
		return dpspark.GridGraph(rows, cols, 1, 10, v.seed), nil
	default:
		return dpspark.RandomGraph(v.size, v.p, 1, 10, v.seed), nil
	}
}

// loadSystem reads A and b from -matrix and -rhs, or generates a
// diagonally dominant system of -size unknowns.
func (v *inv) loadSystem() (*dpspark.Matrix, []float64, error) {
	switch {
	case v.set["size"] && !v.set["matrix"] && !v.set["rhs"]:
		a, b := dpspark.RandomSystem(v.size, v.seed)
		return a, b, nil
	case v.set["size"] || !v.set["matrix"] || !v.set["rhs"]:
		return nil, nil, fmt.Errorf("solve -bench ge: give -matrix FILE and -rhs FILE, or -size N (random system)")
	}
	a, err := readFile(v.matrix, matrix.ReadDense)
	if err != nil {
		return nil, nil, err
	}
	b, err := readFile(v.rhs, readVector)
	if err != nil {
		return nil, nil, err
	}
	if len(b) != a.N {
		return nil, nil, fmt.Errorf("rhs has %d values for a %d×%d matrix", len(b), a.N, a.N)
	}
	return a, b, nil
}

// readFile opens path and parses it with read.
func readFile[T any](path string, read func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return read(f)
}

// readVector parses whitespace-separated numbers, the -rhs and -out
// format of -bench ge.
func readVector(r io.Reader) ([]float64, error) {
	var b []float64
	sc := bufio.NewScanner(r)
	sc.Split(bufio.ScanWords)
	for sc.Scan() {
		x, err := strconv.ParseFloat(sc.Text(), 64)
		if err != nil {
			return nil, fmt.Errorf("bad rhs value %q", sc.Text())
		}
		b = append(b, x)
	}
	return b, sc.Err()
}

// parseQuery parses -query U,V for a graph of n vertices.
func parseQuery(s string, n int) (int, int, error) {
	a, b, ok := strings.Cut(s, ",")
	u, err1 := strconv.Atoi(strings.TrimSpace(a))
	t, err2 := strconv.Atoi(strings.TrimSpace(b))
	if !ok || err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("bad -query %q, want U,V", s)
	}
	if u < 0 || u >= n || t < 0 || t >= n {
		return 0, 0, fmt.Errorf("-query %d,%d: vertices of this graph are 0..%d", u, t, n-1)
	}
	return u, t, nil
}
