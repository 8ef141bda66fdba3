package autotune

import (
	"testing"

	"dpspark/internal/cluster"
	"dpspark/internal/core"
	"dpspark/internal/experiments"
)

// TestEstimateTracksPrice: the closed-form estimator must land within a
// small factor of the replayed symbolic model across representative
// candidates — enough accuracy to rank configurations on the fly.
func TestEstimateTracksPrice(t *testing.T) {
	cl := cluster.Skylake16()
	n := 16384
	cands := []experiments.Cell{
		{Driver: core.IM, Block: 512, ExecutorCores: 32},
		{Driver: core.CB, Block: 512, ExecutorCores: 32},
		{Driver: core.IM, Block: 1024, Recursive: true, RShared: 16, Threads: 8, ExecutorCores: 32},
		{Driver: core.CB, Block: 2048, Recursive: true, RShared: 4, Threads: 16, ExecutorCores: 32},
	}
	for _, bench := range []experiments.Benchmark{experiments.FW, experiments.GE} {
		for _, cand := range cands {
			cand.Cluster, cand.Bench, cand.N = cl, bench, n
			est, err := Estimate(cand)
			if err != nil {
				t.Fatal(err)
			}
			priced := experiments.Run(cand)
			if priced.Err != nil {
				t.Fatal(priced.Err)
			}
			ratio := est.Seconds() / priced.Time.Seconds()
			// Coarse by design: no straggler/starvation modelling.
			if ratio < 0.25 || ratio > 4.0 {
				t.Fatalf("%s %v: estimate %v vs priced %v (ratio %.2f)",
					bench, cand, est, priced.Time, ratio)
			}
		}
	}
}

// TestEstimateRanksKernelFamilies: the estimator must agree with the
// replayed model on the paper's headline ordering — recursive kernels
// beat iterative at large blocks.
func TestEstimateRanksKernelFamilies(t *testing.T) {
	cl := cluster.Skylake16()
	iter, err := Estimate(experiments.Cell{Cluster: cl, Bench: experiments.FW, N: 32768,
		Driver: core.IM, Block: 2048, ExecutorCores: 32})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Estimate(experiments.Cell{Cluster: cl, Bench: experiments.FW, N: 32768,
		Driver: core.IM, Block: 2048, Recursive: true, RShared: 16, Threads: 8, ExecutorCores: 32})
	if err != nil {
		t.Fatal(err)
	}
	if rec >= iter {
		t.Fatalf("estimator must rank recursive (%v) above iterative (%v) at block 2048", rec, iter)
	}
}

// TestEstimateBestIsReasonable: the analytically chosen candidate must
// price (with the full model) within 2× of the exhaustively found best.
func TestEstimateBestIsReasonable(t *testing.T) {
	cl := cluster.Skylake16()
	bench := experiments.GE
	n := 16384
	space := Space{
		Drivers:          []core.DriverKind{core.IM, core.CB},
		BlockSizes:       []int{512, 1024, 2048},
		RShared:          []int{4, 16},
		Threads:          []int{8},
		IncludeIterative: true,
	}
	estBest, _, err := EstimateBest(cl, bench, n, space)
	if err != nil {
		t.Fatal(err)
	}
	_, trueBest, err := Search(cl, bench, n, space)
	if err != nil {
		t.Fatal(err)
	}
	chosen := experiments.Run(estBest)
	if chosen.Err != nil {
		t.Fatal(chosen.Err)
	}
	if chosen.Time.Seconds() > 2*trueBest.Time.Seconds() {
		t.Fatalf("estimator's pick %v prices at %v, exhaustive best %v at %v",
			estBest, chosen.Time, trueBest.Cell, trueBest.Time)
	}
}

func TestEstimateEmptySpace(t *testing.T) {
	if _, _, err := EstimateBest(cluster.Skylake16(), experiments.GE, 128,
		Space{BlockSizes: []int{4096}, RShared: []int{4}, Threads: []int{8}}); err == nil {
		t.Fatal("expected error")
	}
}
