package core

import (
	"math"
	"math/rand"
	"testing"

	"dpspark/internal/cluster"
	"dpspark/internal/obs"
	"dpspark/internal/rdd"
	"dpspark/internal/semiring"
)

// wallRun is one solve's kernel wall-time accounting.
type wallRun struct {
	calls, count [4]int64
	sum          float64
	reads        int64
}

// solveForWall runs Floyd–Warshall at block size b and reads back, per
// kind, the call counter and the wall histogram's count, the summed wall
// seconds, and the clock reads the kernel runner made.
func solveForWall(t *testing.T, n, b int) wallRun {
	t.Helper()
	rule := semiring.NewFloydWarshall()
	in := randomInput(rule, n, rand.New(rand.NewSource(int64(n+b))))
	ctx := rdd.NewContext(rdd.Conf{Cluster: cluster.Local(2)})
	before := wallReads.Load()
	runOnce(t, ctx, in, Config{Rule: rule, BlockSize: b, Driver: IM})
	reg := ctx.Observer().Metrics()
	r := wallRun{reads: wallReads.Load() - before}
	for kind := semiring.KindA; kind <= semiring.KindD; kind++ {
		l := obs.Labels{"exec": "iterative", "kind": kind.String()}
		h := reg.Histogram("dpspark_kernel_wall_seconds", l, kernelSecondsBuckets)
		r.calls[kind] = reg.Counter("dpspark_kernel_calls_total", l).Value()
		r.count[kind] = h.Count()
		r.sum += h.Sum()
	}
	return r
}

// TestKernelWallSampling: the kernel wall histogram counts every call
// exactly whether or not it was timed; calls at b=256 are each timed,
// calls at b=8 mostly not (at most one clock read per eight calls); and
// the sampled sum estimates the unsampled one. A host busy with other
// work stretches the calls it preempts, and the unsampled run times every
// one of them, so each side's sum is the least over alternating solves,
// repeated until the two agree or ten rounds have run.
func TestKernelWallSampling(t *testing.T) {
	for _, tc := range []struct{ n, b int }{{256, 8}, {512, 256}} {
		sampledSum, unsampledSum := math.Inf(1), math.Inf(1)
		ratio := 0.0
		for round := 0; round < 10 && (ratio < 0.5 || ratio > 2); round++ {
			sampled := solveForWall(t, tc.n, tc.b)
			var calls int64
			for kind, c := range sampled.calls {
				if c == 0 || sampled.count[kind] != c {
					t.Fatalf("b=%d kind %v: wall histogram counts %d, %d calls made",
						tc.b, semiring.Kind(kind), sampled.count[kind], c)
				}
				calls += c
			}
			switch {
			case tc.b == 256 && sampled.reads != calls:
				t.Fatalf("b=256: %d of %d calls timed, want all", sampled.reads, calls)
			case tc.b == 8 && sampled.reads*8 > calls:
				t.Fatalf("b=8: %d clock reads for %d calls, want at most one per eight", sampled.reads, calls)
			}

			unsampled := func() wallRun {
				defer func(max int32) { wallStrideMax = max }(wallStrideMax)
				wallStrideMax = 1
				return solveForWall(t, tc.n, tc.b)
			}()
			if unsampled.reads != calls || unsampled.count != sampled.count {
				t.Fatalf("b=%d unsampled reference: %d of %d calls timed, counts %v (sampled %v)",
					tc.b, unsampled.reads, calls, unsampled.count, sampled.count)
			}
			if sampled.sum <= 0 {
				t.Fatalf("b=%d: sampled wall sum %v", tc.b, sampled.sum)
			}
			sampledSum, unsampledSum = min(sampledSum, sampled.sum), min(unsampledSum, unsampled.sum)
			ratio = sampledSum / unsampledSum
			t.Logf("b=%d round %d: %d calls, %d clock reads; wall sum %.3gs sampled, %.3gs unsampled",
				tc.b, round, calls, sampled.reads, sampled.sum, unsampled.sum)
		}
		if ratio < 0.5 || ratio > 2 {
			t.Fatalf("b=%d: sampled wall sum %.3gs is %.2f× the unsampled %.3gs", tc.b, sampledSum, ratio, unsampledSum)
		}
	}
}
