package autotune

import (
	"fmt"
	"math/rand"
	"time"

	"dpspark/internal/kernels"
	"dpspark/internal/matrix"
	"dpspark/internal/semiring"
)

// This file is the measured (not modelled) half of the tuner: it times
// real single-tile kernel executions to find where the row-band parallel
// split starts paying for its scheduling cost, and how a node's cores
// are best divided between task slots and kernel threads. The analytic
// Estimate path ranks whole configurations; these measurements calibrate
// the two knobs the analytic model cannot know for the machine it runs
// on — the serial↔parallel crossover tile size and the per-thread
// speedup curve.

// ScalingPoint is one measured sample of the single-tile scaling curve:
// the best-of-reps wall time of a full kind-D tile update at the given
// pool width.
type ScalingPoint struct {
	Threads int
	Time    time.Duration
	// Throughput is element updates per second, b³/Time.
	Throughput float64
}

// KernelProfile is the measured single-tile scaling of the iterative
// kernel at one tile size.
type KernelProfile struct {
	B      int
	Points []ScalingPoint
}

// MeasureKernelScaling times a full kind-D update of one b×b tile under
// the rule for each pool width in threads (best of reps, reps < 1 reads
// as 1) and returns the profile. Operands are deterministic and the
// destination is reset between reps, so every sample executes the exact
// same instruction stream.
func MeasureKernelScaling(rule semiring.Rule, b int, threads []int, reps int) KernelProfile {
	m := newKernelMeasure(rule, b, reps)
	prof := KernelProfile{B: b}
	for _, t := range threads {
		if t < 1 {
			t = 1
		}
		best := m.bestOf(kernels.NewPool(t), semiring.KindD)
		fb := float64(b)
		prof.Points = append(prof.Points, ScalingPoint{
			Threads:    t,
			Time:       best,
			Throughput: fb * fb * fb / best.Seconds(),
		})
	}
	return prof
}

// KindCosts is the measured serial cost of one element update, in
// nanoseconds, per kernel kind (indexed by semiring.Kind).
type KindCosts [4]float64

// MeasureKernelKinds times one serial update of a b×b tile for each
// kernel kind with the operand aliasing of the drivers — A, B and C run
// in place in the ordered loop's per-element sequence (min-plus B and C
// in cache-resident forms), D the blocked one — and returns best-of-reps
// nanoseconds per element update (kernels.Updates counts them: GE's
// pivot-row and pivot-column kinds update a triangle). The per-kind gap
// is what decides how much of a solve the 7-of-16 aliased tile updates
// of an iteration cost.
func MeasureKernelKinds(rule semiring.Rule, b, reps int) KindCosts {
	m := newKernelMeasure(rule, b, reps)
	var costs KindCosts
	for kind := semiring.KindA; kind <= semiring.KindD; kind++ {
		costs[kind] = float64(m.bestOf(nil, kind).Nanoseconds()) / float64(kernels.Updates(rule, kind, b))
	}
	return costs
}

// String renders the costs as "A=… B=… C=… D=… ns/update".
func (c KindCosts) String() string {
	return fmt.Sprintf("A=%.3f B=%.3f C=%.3f D=%.3f ns/update",
		c[semiring.KindA], c[semiring.KindB], c[semiring.KindC], c[semiring.KindD])
}

// kernelMeasure holds the deterministic operands of one measurement.
type kernelMeasure struct {
	exec              kernels.Iterative
	reps              int
	x0, u, v, w, work *matrix.Tile
}

func newKernelMeasure(rule semiring.Rule, b, reps int) *kernelMeasure {
	if reps < 1 {
		reps = 1
	}
	rng := rand.New(rand.NewSource(int64(b)))
	fill := func() *matrix.Tile {
		t := matrix.NewTile(b)
		for i := range t.Data {
			// Away from zero so Gaussian pivots never divide by ~0.
			t.Data[i] = 0.5 + rng.Float64()
		}
		return t
	}
	m := &kernelMeasure{exec: kernels.NewIterative(rule), reps: reps,
		x0: fill(), u: fill(), v: fill(), w: fill(), work: matrix.NewTile(b)}
	// A dominant diagonal on the destination and the pivot tile keeps the
	// in-place eliminations of kinds A, B, C finite.
	for i := 0; i < b; i++ {
		m.x0.Set(i, i, 2*float64(b))
		m.w.Set(i, i, 2*float64(b))
	}
	return m
}

// bestOf returns the best-of-reps wall time of one kernel call of the
// given kind on a fresh copy of the destination, with the operands the
// drivers pass (kernels.RunLocal): the pivot tile for B's u and C's v,
// the destination itself where Fig. 4's signature omits an operand.
func (m *kernelMeasure) bestOf(pool *kernels.Pool, kind semiring.Kind) time.Duration {
	u, v, w := m.u, m.v, m.w
	switch kind {
	case semiring.KindA:
		u, v, w = nil, nil, nil
	case semiring.KindB:
		u, v = m.w, nil
	case semiring.KindC:
		u, v = nil, m.w
	}
	var best time.Duration
	for rep := 0; rep < m.reps; rep++ {
		m.x0.View().CopyTo(m.work.View())
		start := time.Now()
		m.exec.ApplyWith(pool, kind, m.work, u, v, w)
		if el := time.Since(start); best == 0 || el < best {
			best = el
		}
	}
	return best
}

// point returns the sample at the given width, if measured.
func (p KernelProfile) point(threads int) (ScalingPoint, bool) {
	for _, pt := range p.Points {
		if pt.Threads == threads {
			return pt, true
		}
	}
	return ScalingPoint{}, false
}

// BestThreads returns the measured-fastest pool width, preferring fewer
// threads on ties (narrower kernels leave more task slots). Returns 1
// for an empty profile.
func (p KernelProfile) BestThreads() int {
	best, bestTp := 1, 0.0
	for _, pt := range p.Points {
		if pt.Throughput > bestTp || (pt.Throughput == bestTp && pt.Threads < best) {
			best, bestTp = pt.Threads, pt.Throughput
		}
	}
	return best
}

// Speedup returns the measured speedup of the given width over the
// serial sample (1 when either sample is missing).
func (p KernelProfile) Speedup(threads int) float64 {
	base, ok1 := p.point(1)
	pt, ok2 := p.point(threads)
	if !ok1 || !ok2 || base.Throughput <= 0 {
		return 1
	}
	return pt.Throughput / base.Throughput
}

// String renders the profile as a compact scaling curve.
func (p KernelProfile) String() string {
	s := fmt.Sprintf("b=%d:", p.B)
	for _, pt := range p.Points {
		s += fmt.Sprintf(" t%d=%v", pt.Threads, pt.Time.Round(time.Microsecond))
	}
	return s
}

// Crossover measures the scaling curve at each tile size (ascending)
// and returns the smallest size where width-threads kernels beat serial
// by more than the noise margin — the tile size below which LoopPool
// callers should stay serial. Returns 0 when parallel never wins (on a
// single-core machine, always 0).
func Crossover(rule semiring.Rule, threads int, sizes []int, reps int) int {
	if threads <= 1 {
		return 0
	}
	for _, b := range sizes {
		prof := MeasureKernelScaling(rule, b, []int{1, threads}, reps)
		// 10% over serial: below that the split is within run-to-run
		// noise and not worth the narrower task slots.
		if prof.Speedup(threads) > 1.10 {
			return b
		}
	}
	return 0
}

// SplitCoresThreads picks the cores×threads division of one node that
// maximises modelled node throughput: slots(t) × speedup(t) with
// slots(t) = cores/t, over the widths the profile measured. Ties prefer
// narrower kernels. The returned pair always satisfies
// execCores ≥ 1, kernelThreads ≥ 1 and execCores×kernelThreads ≤ cores
// (unless cores < 1, which reads as 1).
func SplitCoresThreads(cores int, p KernelProfile) (execCores, kernelThreads int) {
	if cores < 1 {
		cores = 1
	}
	bestT, bestScore := 1, float64(cores)
	for _, pt := range p.Points {
		t := pt.Threads
		if t <= 1 || t > cores {
			continue
		}
		score := float64(cores/t) * p.Speedup(t)
		if score > bestScore {
			bestT, bestScore = t, score
		}
	}
	execCores = cores / bestT
	if execCores < 1 {
		execCores = 1
	}
	return execCores, bestT
}
