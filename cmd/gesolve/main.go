// Command gesolve solves a dense linear system A·x = b by distributed
// Gaussian elimination without pivoting (A diagonally dominant or SPD),
// running the engine for real on the local machine.
//
// Input is either a binary matrix file written by matrix.WriteDense plus
// a whitespace-separated RHS file, or a synthetic system (-random m).
//
// Examples:
//
//	gesolve -random 1024 -block 128 -driver CB -kernel rec -rshared 4 -threads 8
//	gesolve -matrix A.bin -rhs b.txt -out x.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dpspark"
	"dpspark/internal/matrix"
)

func main() {
	var (
		matrixFile = flag.String("matrix", "", "binary matrix file (matrix.WriteDense format)")
		rhsFile    = flag.String("rhs", "", "right-hand-side file (whitespace-separated numbers)")
		randomM    = flag.Int("random", 0, "generate a random diagonally dominant system of this size")
		seed       = flag.Int64("seed", 1, "generator seed")
		block      = flag.Int("block", 128, "tile size b")
		driver     = flag.String("driver", "CB", "driver: IM or CB")
		kernel     = flag.String("kernel", "iter", "kernel: iter or rec")
		rshared    = flag.Int("rshared", 4, "recursive fan-out r_shared")
		threads    = flag.Int("threads", 4, "worker threads per recursive kernel")
		cores      = flag.Int("cores", 4, "simulated local cores")
		out        = flag.String("out", "", "write the solution vector to this file")
	)
	flag.Parse()

	a, b, err := loadSystem(*matrixFile, *rhsFile, *randomM, *seed)
	if err != nil {
		fail(err)
	}

	cfg := dpspark.Config{BlockSize: *block, Driver: dpspark.CB}
	if strings.EqualFold(*driver, "IM") {
		cfg.Driver = dpspark.IM
	}
	if strings.EqualFold(*kernel, "rec") {
		cfg.RecursiveKernel = true
		cfg.RShared = *rshared
		cfg.Threads = *threads
	}

	s := dpspark.NewSession(dpspark.Local(*cores))
	defer s.Close()
	x, stats, err := s.SolveLinear(a, b, cfg)
	if err != nil {
		fail(err)
	}
	fmt.Printf("solved %d×%d system: residual max|A·x−b| = %.3g\n", a.N, a.N, dpspark.Residual(a, x, b))
	fmt.Printf("wall %v, modelled cluster time %v over %d iterations\n",
		stats.Wall.Round(1e6), stats.Time, stats.Iterations)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w := bufio.NewWriter(f)
		for _, v := range x {
			fmt.Fprintf(w, "%.17g\n", v)
		}
		if err := w.Flush(); err != nil {
			fail(err)
		}
		fmt.Printf("solution written to %s\n", *out)
	}
}

func loadSystem(matrixFile, rhsFile string, randomM int, seed int64) (*dpspark.Matrix, []float64, error) {
	if randomM > 0 {
		a, b := dpspark.RandomSystem(randomM, seed)
		return a, b, nil
	}
	if matrixFile == "" || rhsFile == "" {
		return nil, nil, fmt.Errorf("provide -matrix and -rhs, or -random")
	}
	mf, err := os.Open(matrixFile)
	if err != nil {
		return nil, nil, err
	}
	defer mf.Close()
	a, err := matrix.ReadDense(mf)
	if err != nil {
		return nil, nil, err
	}
	rf, err := os.Open(rhsFile)
	if err != nil {
		return nil, nil, err
	}
	defer rf.Close()
	var b []float64
	sc := bufio.NewScanner(rf)
	sc.Split(bufio.ScanWords)
	for sc.Scan() {
		v, err := strconv.ParseFloat(sc.Text(), 64)
		if err != nil {
			return nil, nil, fmt.Errorf("bad rhs value %q", sc.Text())
		}
		b = append(b, v)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if len(b) != a.N {
		return nil, nil, fmt.Errorf("rhs has %d values for a %d×%d matrix", len(b), a.N, a.N)
	}
	return a, b, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "gesolve:", err)
	os.Exit(1)
}
