package experiments

import (
	"strings"
	"testing"

	"dpspark/internal/cluster"
	"dpspark/internal/core"
	"dpspark/internal/simtime"
)

// testN is a reduced problem size keeping the unit tests quick while
// preserving grid shapes (r = testN / block).
const testN = 8192

func TestRunCellDefaults(t *testing.T) {
	r := Run(Cell{Bench: FW, N: testN, Driver: core.IM, Block: 1024})
	if r.Err != nil || r.Time <= 0 {
		t.Fatalf("cell %v: err=%v time=%v", r.Cell, r.Err, r.Time)
	}
	if r.N != testN || r.Cluster == nil {
		t.Fatal("defaults not filled")
	}
	if r.Breakdown[simtime.Compute] <= 0 {
		t.Fatal("breakdown missing compute")
	}
}

func TestCellString(t *testing.T) {
	c := Cell{Driver: core.CB, Block: 1024, Recursive: true, RShared: 4, Threads: 8, ExecutorCores: 32}
	s := c.String()
	for _, want := range []string{"CB", "1024", "rec4", "omp8", "cores=32"} {
		if !strings.Contains(s, want) {
			t.Fatalf("cell string %q missing %q", s, want)
		}
	}
	it := Cell{Driver: core.IM, Block: 512}
	if !strings.Contains(it.String(), "iter") {
		t.Fatalf("iterative string = %q", it.String())
	}
	wide := Cell{Driver: core.IM, Block: 512, KernelThreads: 2, ExecutorCores: 16}
	if got, want := wide.String(), "IM b=512 iter/t2 cores=16"; got != want {
		t.Fatalf("widened iterative string = %q, want %q", got, want)
	}
}

func TestRunBestThreadsPicksFastest(t *testing.T) {
	cell := Cell{Bench: GE, N: testN, Driver: core.CB, Block: 1024, Recursive: true, RShared: 4}
	best := RunBestThreads(cell, []int{2, 8})
	r2 := Run(withThreads(cell, 2))
	r8 := Run(withThreads(cell, 8))
	want := r2
	if r8.Time < r2.Time {
		want = r8
	}
	if best.Threads != want.Threads {
		t.Fatalf("best threads = %d, want %d (t2=%v t8=%v)", best.Threads, want.Threads, r2.Time, r8.Time)
	}
}

func withThreads(c Cell, th int) Cell {
	c.Threads = th
	return c
}

func TestTableIShape(t *testing.T) {
	tbl, results := TableI(testN)
	if len(results) != len(tableGridThreads)*len(tableGridCores) {
		t.Fatalf("results = %d", len(results))
	}
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Table I") {
		t.Fatal("title missing")
	}

	// The paper's qualitative claims about the grid:
	at := func(threads, cores int) Result {
		for _, r := range results {
			if r.Threads == threads && r.ExecutorCores == cores {
				return r
			}
		}
		t.Fatalf("cell omp=%d cores=%d missing", threads, cores)
		return Result{}
	}
	// (1) More executor-cores helps at fixed OMP.
	if !(at(8, 32).Time < at(8, 2).Time) {
		t.Fatal("cores=32 must beat cores=2 at omp=8")
	}
	// (2) At high cores, omp=8 beats omp=2 (thread offload pays)…
	if !(at(8, 32).Time < at(2, 32).Time) {
		t.Fatal("omp=8 must beat omp=2 at cores=32")
	}
	// (3) …and omp=32 oversubscribes and regresses.
	if !(at(32, 32).Time > at(8, 32).Time) {
		t.Fatal("omp=32 must regress vs omp=8 at cores=32")
	}
	// (4) Single-slot executors are the worst column at omp=2.
	if !(at(2, 1).Time > at(2, 32).Time) {
		t.Fatal("cores=1 must be far worse at omp=2")
	}
}

func TestTableIIShape(t *testing.T) {
	// 16K keeps r = 16: enough interior tasks per node for the
	// oversubscription effects of the paper-scale grid to appear.
	_, results := TableII(16384)
	at := func(threads, cores int) Result {
		for _, r := range results {
			if r.Threads == threads && r.ExecutorCores == cores {
				return r
			}
		}
		t.Fatalf("cell missing")
		return Result{}
	}
	if !(at(8, 32).Time < at(2, 32).Time) {
		t.Fatal("omp=8 must beat omp=2 at cores=32")
	}
	if !(at(32, 32).Time > at(8, 32).Time) {
		t.Fatal("omp=32 must regress at cores=32")
	}
	if !(at(2, 1).Time > at(8, 32).Time) {
		t.Fatal("(omp=2, cores=1) must be among the worst cells")
	}
}

// TestFig6CrossoverAndWinners checks §V-C's central claims on a reduced
// sweep: iterative ≈ recursive at small blocks (in-L2), recursive wins
// clearly at 1024+, and the right driver wins per benchmark.
func TestFig6CrossoverAndWinners(t *testing.T) {
	find := func(results []Result, driver core.DriverKind, rec bool, rs, block int) Result {
		for _, r := range results {
			if r.Driver == driver && r.Recursive == rec && r.RShared == rs && r.Block == block {
				return r
			}
		}
		t.Fatalf("cell %v rec=%v rs=%d b=%d missing", driver, rec, rs, block)
		return Result{}
	}

	_, fw := Fig6(FW, testN)
	// Recursive clearly beats iterative at block 1024 for FW.
	fwIter := find(fw, core.IM, false, 0, 1024)
	fwRec := find(fw, core.IM, true, 16, 1024)
	if !(fwRec.Time < fwIter.Time) {
		t.Fatalf("FW: recursive (%v) must beat iterative (%v) at block 1024", fwRec.Time, fwIter.Time)
	}
	// At block 256 they are comparable (within 2×).
	smallIter := find(fw, core.IM, false, 0, 256)
	smallRec := find(fw, core.IM, true, 16, 256)
	ratio := smallIter.Time.Seconds() / smallRec.Time.Seconds()
	if ratio > 2.0 || ratio < 0.5 {
		t.Fatalf("FW at block 256: iter/rec = %.2f, want comparable", ratio)
	}

	_, ge := Fig6(GE, testN)

	// Headline speedups in the paper's 2–5× band (allowing slack for the
	// reduced problem size).
	hFW := ComputeHeadline(FW, fw)
	hGE := ComputeHeadline(GE, ge)
	if hFW.Speedup < 1.3 {
		t.Fatalf("FW headline speedup = %.2f, want > 1.3", hFW.Speedup)
	}
	if hGE.Speedup < 2 {
		t.Fatalf("GE headline speedup = %.2f, want > 2", hGE.Speedup)
	}
	if hGE.Speedup < hFW.Speedup {
		t.Fatal("GE must gain more from recursive kernels than FW (heavier dependencies)")
	}
}

// TestGEDriverWinner verifies §V-C's driver asymmetry at paper scale,
// where the pivot-copy replication volume dominates: GE runs faster under
// CB, while FW (no pivot copies to D, Fig. 7) runs faster under IM.
func TestGEDriverWinner(t *testing.T) {
	geIM := Run(Cell{Bench: GE, Driver: core.IM, Block: 512})
	geCB := Run(Cell{Bench: GE, Driver: core.CB, Block: 512})
	if !(geCB.Time < geIM.Time) {
		t.Fatalf("GE at paper scale: CB (%v) must beat IM (%v)", geCB.Time, geIM.Time)
	}
	// For FW the paper reports IM ahead "in most of the cases"; the model
	// prices the two within a small factor of each other (CB's broadcast
	// distribution costs are the least-constrained part of the
	// calibration — see EXPERIMENTS.md "Known residuals"). Assert the
	// drivers stay comparable and that the GE gap is the much larger one.
	fwIM := Run(Cell{Bench: FW, Driver: core.IM, Block: 256})
	fwCB := Run(Cell{Bench: FW, Driver: core.CB, Block: 256})
	fwGap := fwIM.Time.Seconds() / fwCB.Time.Seconds()
	if fwGap > 2 || fwGap < 0.5 {
		t.Fatalf("FW drivers must stay comparable: IM %v vs CB %v", fwIM.Time, fwCB.Time)
	}
	geGap := geIM.Time.Seconds() / geCB.Time.Seconds()
	if geGap < fwGap {
		t.Fatalf("the IM→CB gain must be larger for GE (%.2f) than FW (%.2f)", geGap, fwGap)
	}
}

func TestFig8PortabilityShape(t *testing.T) {
	_, results := Fig8(testN)
	// Same configuration must be slower on the Haswell cluster.
	var c1, c2 Result
	for _, r := range results {
		if r.Block == 1024 && r.Recursive && r.Driver == core.IM {
			if r.Cluster.Name == cluster.Skylake16().Name {
				c1 = r
			} else {
				c2 = r
			}
		}
	}
	if c1.Cluster == nil || c2.Cluster == nil {
		t.Fatal("fig8 cells missing")
	}
	if !(c2.Time > 2*c1.Time) {
		t.Fatalf("cluster #2 must be ≥2× slower for IM rec4 b1024: %v vs %v", c2.Time, c1.Time)
	}
}

func TestFig9WeakScaling(t *testing.T) {
	chart, results := Fig9()
	if len(chart.Lines) != 4 {
		t.Fatalf("lines = %d", len(chart.Lines))
	}
	for _, l := range chart.Lines {
		if len(l.Points) != len(fig9Nodes) {
			t.Fatalf("series %s has %d points", l.Name, len(l.Points))
		}
	}
	// The recursive GE series must scale no worse than the iterative one:
	// compare the 64-node/1-node growth factors.
	growth := func(name string) float64 {
		for _, l := range chart.Lines {
			if l.Name == name {
				return l.Points[2].Value / l.Points[0].Value
			}
		}
		t.Fatalf("series %q missing", name)
		return 0
	}
	if g1, g2 := growth("GE CB rec4 b1024 omp8"), growth("GE CB iter b512"); g1 > g2*1.5 {
		t.Fatalf("GE recursive weak scaling (%.2f) must not be much worse than iterative (%.2f)", g1, g2)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("fig9 cell %v failed: %v", r.Cell, r.Err)
		}
	}
}
