// Command apsp solves the all-pairs shortest-path problem for a directed
// weighted graph with the distributed Floyd-Warshall solver, running the
// engine for real on the local machine.
//
// Input is either an edge-list file (-graph; format: first line the
// vertex count, then "from to weight" lines, '#' comments) or a synthetic
// graph (-random n p | -grid rows cols).
//
// Examples:
//
//	apsp -random 512 -p 0.05 -block 128 -driver IM
//	apsp -graph roads.txt -block 256 -kernel rec -rshared 4 -threads 8 -out dist.bin
//	apsp -grid 30 30 -query 0,899
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"dpspark"
	"dpspark/internal/graph"
	"dpspark/internal/matrix"
)

func main() {
	var (
		graphFile  = flag.String("graph", "", "edge-list file to solve")
		dimacsFile = flag.String("dimacs", "", "9th-DIMACS-challenge shortest-path file to solve")
		randomN    = flag.Int("random", 0, "generate a random directed graph with this many vertices")
		p          = flag.Float64("p", 0.05, "edge probability for -random")
		gridDims   = flag.String("grid", "", "generate a grid road network, e.g. -grid 30x40")
		seed       = flag.Int64("seed", 1, "generator seed")
		block      = flag.Int("block", 128, "tile size b")
		driver     = flag.String("driver", "IM", "driver: IM or CB")
		kernel     = flag.String("kernel", "iter", "kernel: iter or rec")
		rshared    = flag.Int("rshared", 4, "recursive fan-out r_shared")
		threads    = flag.Int("threads", 4, "worker threads per recursive kernel")
		cores      = flag.Int("cores", 4, "simulated local cores")
		out        = flag.String("out", "", "write the distance matrix (binary) to this file")
		query      = flag.String("query", "", "print one shortest path, e.g. -query 3,17")
	)
	flag.Parse()

	g, err := loadGraph(*graphFile, *dimacsFile, *randomN, *p, *gridDims, *seed)
	if err != nil {
		fail(err)
	}

	cfg := dpspark.Config{BlockSize: *block}
	if strings.EqualFold(*driver, "CB") {
		cfg.Driver = dpspark.CB
	}
	if strings.EqualFold(*kernel, "rec") {
		cfg.RecursiveKernel = true
		cfg.RShared = *rshared
		cfg.Threads = *threads
	}

	s := dpspark.NewSession(dpspark.Local(*cores))
	defer s.Close()
	dist, stats, err := s.APSP(g, cfg)
	if err != nil {
		fail(err)
	}

	reachable, sum := 0, 0.0
	for i, v := range dist.Data {
		if i/dist.N != i%dist.N && !math.IsInf(v, 1) {
			reachable++
			sum += v
		}
	}
	fmt.Printf("solved APSP: %d vertices, %d edges, %d reachable pairs, mean distance %.3f\n",
		g.N, g.Edges(), reachable, sum/math.Max(1, float64(reachable)))
	fmt.Printf("wall %v, modelled cluster time %v over %d iterations\n",
		stats.Wall.Round(1e6), stats.Time, stats.Iterations)

	if *query != "" {
		u, v, err := parsePair(*query)
		if err != nil {
			fail(err)
		}
		path := dpspark.ShortestPath(g, dist, u, v)
		if path == nil {
			fmt.Printf("no path %d→%d\n", u, v)
		} else {
			fmt.Printf("shortest path %d→%d (length %.3f): %v\n", u, v, dist.At(u, v), path)
		}
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := matrix.WriteDense(f, dist); err != nil {
			fail(err)
		}
		fmt.Printf("distance matrix written to %s\n", *out)
	}
}

func loadGraph(file, dimacs string, randomN int, p float64, grid string, seed int64) (*dpspark.Graph, error) {
	switch {
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ReadEdgeList(f)
	case dimacs != "":
		f, err := os.Open(dimacs)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ReadDIMACS(f)
	case grid != "":
		parts := strings.FieldsFunc(grid, func(r rune) bool { return r == 'x' || r == ',' || r == ' ' })
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad -grid %q, want ROWSxCOLS", grid)
		}
		rows, err1 := strconv.Atoi(parts[0])
		cols, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad -grid %q", grid)
		}
		return dpspark.GridGraph(rows, cols, 1, 10, seed), nil
	case randomN > 0:
		return dpspark.RandomGraph(randomN, p, 1, 10, seed), nil
	default:
		return nil, fmt.Errorf("provide -graph, -random or -grid")
	}
}

func parsePair(s string) (int, int, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad -query %q, want U,V", s)
	}
	u, err1 := strconv.Atoi(strings.TrimSpace(parts[0]))
	v, err2 := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("bad -query %q", s)
	}
	return u, v, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "apsp:", err)
	os.Exit(1)
}
