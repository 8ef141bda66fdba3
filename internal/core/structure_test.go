package core

import (
	"math/rand"
	"strings"
	"testing"

	"dpspark/internal/matrix"
	"dpspark/internal/rdd"
	"dpspark/internal/semiring"
	"dpspark/internal/simtime"
)

// These tests pin the drivers' Spark-level structure via the engine's
// stage event log — the faithfulness contract with Listings 1 and 2.

func runStructured(t *testing.T, driver DriverKind, rule semiring.Rule) (*rdd.Context, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(71))
	in := randomInput(rule, 16, rng)
	ctx := newCtx()
	bl := matrix.Block(in, 4, rule.Pad(), rule.PadDiag()) // r = 4
	_, _, err := Run(ctx, bl, Config{Rule: rule, BlockSize: 4, Driver: driver})
	if err != nil {
		t.Fatal(err)
	}
	return ctx, bl.R
}

// TestIMStageStructure: the IM driver runs exactly three shuffles per
// grid iteration (aBlocks partitionBy, abcBlocks partitionBy, abcdBlocks
// partitionBy — the combineByKeys are co-partitioned and narrow) plus the
// checkpoint's result stage.
func TestIMStageStructure(t *testing.T) {
	ctx, r := runStructured(t, IM, semiring.NewGaussian())
	mapStages := ctx.CountStages(rdd.StageShuffleMap)
	if mapStages != 3*r {
		t.Fatalf("IM ran %d shuffle-map stages, want 3r = %d", mapStages, 3*r)
	}
	// One checkpoint result stage per iteration plus the final collect.
	results := ctx.CountStages(rdd.StageResult)
	if results != r+1 {
		t.Fatalf("IM ran %d result stages, want r+1 = %d", results, r+1)
	}
}

// TestCBStageStructure: the CB driver shuffles exactly once per iteration
// (the closing partitionBy) and runs three jobs per iteration (two
// collects plus the checkpoint).
func TestCBStageStructure(t *testing.T) {
	ctx, r := runStructured(t, CB, semiring.NewGaussian())
	mapStages := ctx.CountStages(rdd.StageShuffleMap)
	if mapStages != r {
		t.Fatalf("CB ran %d shuffle-map stages, want r = %d", mapStages, r)
	}
	results := ctx.CountStages(rdd.StageResult)
	if results != 3*r+1 {
		t.Fatalf("CB ran %d result stages, want 3r+1 = %d", results, 3*r+1)
	}
}

// TestFWShufflesLessThanGE: without pivot copies to the D blocks (the
// min-plus update never reads c[k,k]), the FW IM driver must stage fewer
// shuffle bytes per block than GE on an identical grid, even though FW
// touches all r² blocks each iteration and GE only the trailing
// submatrix.
func TestFWShufflesLessThanGE(t *testing.T) {
	spillPerUpdate := func(rule semiring.Rule) float64 {
		ctx, _ := runStructured(t, IM, rule)
		var spill int64
		for _, ev := range ctx.Events() {
			spill += ev.SpillBytes
		}
		return float64(spill)
	}
	fw := spillPerUpdate(semiring.NewFloydWarshall())
	ge := spillPerUpdate(semiring.NewGaussian())
	// FW updates ~3× the blocks of GE; if it still shipped pivot copies
	// to D its spill would exceed GE's scaled volume by far.
	if fw > 3.2*ge {
		t.Fatalf("FW spill %v vs GE %v: pivot copies leaking into FW's D stage?", fw, ge)
	}
}

// TestTimelineRendering covers the debug timeline output.
func TestTimelineRendering(t *testing.T) {
	ctx, _ := runStructured(t, IM, semiring.NewFloydWarshall())
	var sb strings.Builder
	if err := ctx.WriteTimeline(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "shuffle-map") || !strings.Contains(out, "result") {
		t.Fatalf("timeline:\n%s", out)
	}
	events := ctx.Events()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	prevStart := simtime.Duration(-1)
	for _, ev := range events {
		if ev.Start < prevStart {
			t.Fatal("events must be ordered by start time")
		}
		prevStart = ev.Start
		if ev.Tasks <= 0 || ev.Duration <= 0 {
			t.Fatalf("bad event %+v", ev)
		}
		if ev.Kind == rdd.StageShuffleMap && ev.ShuffleID < 0 {
			t.Fatal("map stage without shuffle id")
		}
	}
}

// TestCBRecomputesPanelKernels: without caching, the CB driver's closing
// shuffle replays the A and B/C kernels (Spark lineage recomputation) —
// the engine must charge that compute. The IM driver computes each
// kernel exactly once.
func TestCBRecomputesPanelKernels(t *testing.T) {
	computeOf := func(driver DriverKind) simtime.Duration {
		ctx, _ := runStructured(t, driver, semiring.NewGaussian())
		return ctx.Ledger().Snapshot()[simtime.Compute]
	}
	im := computeOf(IM)
	cb := computeOf(CB)
	if cb <= im {
		t.Fatalf("CB must charge recomputed panel kernels: CB %v vs IM %v", cb, im)
	}
}
