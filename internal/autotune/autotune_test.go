package autotune

import (
	"testing"

	"dpspark/internal/cluster"
	"dpspark/internal/core"
	"dpspark/internal/experiments"
)

func smallSpace() Space {
	return Space{
		Drivers:          []core.DriverKind{core.IM, core.CB},
		BlockSizes:       []int{256, 512},
		RShared:          []int{4},
		Threads:          []int{8},
		IncludeIterative: true,
	}
}

func TestSearchFindsBest(t *testing.T) {
	outs, best, err := Search(cluster.Skylake16(), experiments.FW, 2048, smallSpace())
	if err != nil {
		t.Fatal(err)
	}
	// 2 drivers × 2 blocks × (1 iter + 1 recursive) = 8 candidates.
	if len(outs) != 8 {
		t.Fatalf("outcomes = %d", len(outs))
	}
	if best.Note() != "" {
		t.Fatalf("best failed: %+v", best)
	}
	for _, o := range outs {
		if o.Note() == "" && o.Time < best.Time {
			t.Fatalf("best is not minimal: %v < %v", o.Time, best.Time)
		}
	}
}

func TestSearchSkipsOversizedBlocks(t *testing.T) {
	space := smallSpace()
	space.BlockSizes = []int{4096} // larger than the problem
	if _, _, err := Search(cluster.Skylake16(), experiments.GE, 1024, space); err == nil {
		t.Fatal("expected empty-space error")
	}
}

func TestPriceDefaults(t *testing.T) {
	o := experiments.Run(experiments.Cell{Cluster: cluster.Haswell16(), Bench: experiments.GE, N: 1024,
		Driver: core.CB, Block: 256, ExecutorCores: 20})
	if o.Err != nil || o.Time <= 0 {
		t.Fatalf("price: %+v", o)
	}
}

func TestDefaultSpace(t *testing.T) {
	s := DefaultSpace(cluster.Skylake16())
	if len(s.BlockSizes) != 5 || len(s.RShared) != 4 || len(s.Threads) != 5 {
		t.Fatalf("default space = %+v", s)
	}
	if !s.IncludeIterative || s.ExecutorCores[0] != 32 {
		t.Fatal("default space settings")
	}
}
