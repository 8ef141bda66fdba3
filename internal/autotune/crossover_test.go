package autotune

import (
	"math"
	"strings"
	"testing"
	"time"

	"dpspark/internal/cluster"
	"dpspark/internal/experiments"
	"dpspark/internal/semiring"
)

// The crossover tests are structural: they pin the shape and invariants
// of the measured profiles, never absolute timings or speedups — CI
// machines (and this container) may have a single core, where parallel
// can legitimately never win.

func TestMeasureKernelScaling(t *testing.T) {
	for _, rule := range []semiring.Rule{semiring.NewFloydWarshall(), semiring.NewGaussian()} {
		prof := MeasureKernelScaling(rule, 64, []int{1, 2}, 2)
		if prof.B != 64 || len(prof.Points) != 2 {
			t.Fatalf("%s: profile shape B=%d points=%d", rule.Name(), prof.B, len(prof.Points))
		}
		for _, pt := range prof.Points {
			if pt.Time <= 0 || pt.Throughput <= 0 {
				t.Fatalf("%s t%d: non-positive sample %v / %v", rule.Name(), pt.Threads, pt.Time, pt.Throughput)
			}
		}
		if bt := prof.BestThreads(); bt != 1 && bt != 2 {
			t.Fatalf("BestThreads = %d, not in measured set", bt)
		}
		if sp := prof.Speedup(2); sp <= 0 {
			t.Fatalf("Speedup(2) = %v", sp)
		}
		if sp := prof.Speedup(16); sp != 1 {
			t.Fatalf("Speedup of an unmeasured width = %v, want neutral 1", sp)
		}
		if s := prof.String(); !strings.HasPrefix(s, "b=64:") || !strings.Contains(s, "t1=") {
			t.Fatalf("String() = %q", s)
		}
	}
}

func TestMeasureKernelKinds(t *testing.T) {
	for _, rule := range []semiring.Rule{semiring.NewFloydWarshall(), semiring.NewGaussian()} {
		costs := MeasureKernelKinds(rule, 48, 2)
		for kind, ns := range costs {
			if !(ns > 0) || math.IsInf(ns, 0) {
				t.Fatalf("%s kind %v: cost %v ns/update", rule.Name(), semiring.Kind(kind), ns)
			}
		}
		if s := costs.String(); !strings.HasPrefix(s, "A=") || !strings.HasSuffix(s, "ns/update") {
			t.Fatalf("String() = %q", s)
		}
	}
}

func TestKernelProfileEdgeCases(t *testing.T) {
	if bt := (KernelProfile{}).BestThreads(); bt != 1 {
		t.Fatalf("empty profile BestThreads = %d, want 1", bt)
	}
	if sp := (KernelProfile{}).Speedup(4); sp != 1 {
		t.Fatalf("empty profile Speedup = %v, want 1", sp)
	}
	// Ties prefer fewer threads.
	p := KernelProfile{B: 64, Points: []ScalingPoint{
		{Threads: 4, Time: time.Millisecond, Throughput: 100},
		{Threads: 2, Time: time.Millisecond, Throughput: 100},
		{Threads: 1, Time: time.Millisecond, Throughput: 100},
	}}
	if bt := p.BestThreads(); bt != 1 {
		t.Fatalf("tied profile BestThreads = %d, want narrowest", bt)
	}
}

func TestCrossover(t *testing.T) {
	// threads ≤ 1 never crosses over, without measuring anything.
	if c := Crossover(semiring.NewFloydWarshall(), 1, []int{64, 128}, 1); c != 0 {
		t.Fatalf("serial crossover = %d, want 0", c)
	}
	// A real measurement returns either a size from the list or 0.
	sizes := []int{64, 96}
	c := Crossover(semiring.NewFloydWarshall(), 2, sizes, 1)
	if c != 0 && c != 64 && c != 96 {
		t.Fatalf("crossover = %d, not in candidate sizes", c)
	}
}

func TestSplitCoresThreads(t *testing.T) {
	// A profile where 4 threads carry near-linear speedup: the split
	// should spend cores on kernel threads, and must always respect
	// slots × threads ≤ cores.
	scaling := KernelProfile{B: 512, Points: []ScalingPoint{
		{Threads: 1, Throughput: 100},
		{Threads: 2, Throughput: 195},
		{Threads: 4, Throughput: 380},
	}}
	for _, cores := range []int{1, 2, 4, 8, 16} {
		ec, kt := SplitCoresThreads(cores, scaling)
		if ec < 1 || kt < 1 || ec*kt > cores && cores >= 1 {
			t.Fatalf("cores=%d: split %d×%d out of bounds", cores, ec, kt)
		}
		if cores == 1 && kt != 1 {
			t.Fatalf("single core must stay serial, got threads=%d", kt)
		}
	}
	// Sub-linear scaling loses to task parallelism: 8 cores as 8 serial
	// slots (8×100) beat 2 slots × 4 threads (2×380/100 → 7.6 slots).
	weak := KernelProfile{B: 512, Points: []ScalingPoint{
		{Threads: 1, Throughput: 100},
		{Threads: 4, Throughput: 380},
	}}
	if ec, kt := SplitCoresThreads(8, weak); kt != 1 || ec != 8 {
		t.Fatalf("sub-linear scaling should keep serial kernels, got %d×%d", ec, kt)
	}
	// Super-linear (cache-fit) scaling wins the whole node.
	strong := KernelProfile{B: 2048, Points: []ScalingPoint{
		{Threads: 1, Throughput: 100},
		{Threads: 4, Throughput: 450},
	}}
	if ec, kt := SplitCoresThreads(8, strong); kt != 4 || ec != 2 {
		t.Fatalf("super-linear scaling should widen kernels, got %d×%d", ec, kt)
	}
	if ec, kt := SplitCoresThreads(0, strong); ec != 1 || kt != 1 {
		t.Fatalf("cores<1 must read as one serial slot, got %d×%d", ec, kt)
	}
}

// TestSearchKernelThreads: the symbolic search accepts and prices the
// widened-kernel cells, with the co-tuned cores×threads split carried on
// the cell itself.
func TestSearchKernelThreads(t *testing.T) {
	cl := cluster.Skylake16()
	space := smallSpace()
	space.BlockSizes = []int{256}
	space.KernelThreads = []int{1, 4}
	outs, best, err := Search(cl, experiments.FW, 2048, space)
	if err != nil {
		t.Fatal(err)
	}
	// 2 drivers × 1 block × (2 iter widths + 1 recursive) = 6 candidates.
	if len(outs) != 6 {
		t.Fatalf("outcomes = %d, want 6", len(outs))
	}
	sawWide := false
	for _, o := range outs {
		if o.Recursive || o.KernelThreads <= 1 {
			continue
		}
		sawWide = true
		want := cl.Node.Cores / o.KernelThreads
		if o.ExecutorCores != want {
			t.Fatalf("co-tune: threads=%d cores=%d, want %d", o.KernelThreads, o.ExecutorCores, want)
		}
		if !strings.Contains(o.String(), "iter/t4") {
			t.Fatalf("candidate string %q missing iter/t4", o.String())
		}
		if o.Note() != "" {
			t.Fatalf("widened candidate failed: %+v", o)
		}
		if _, err := Estimate(o.Cell); err != nil {
			t.Fatalf("estimate of widened candidate: %v", err)
		}
	}
	if !sawWide {
		t.Fatal("no KernelThreads=4 candidate enumerated")
	}
	if best.Note() != "" {
		t.Fatalf("best failed: %+v", best)
	}
}
