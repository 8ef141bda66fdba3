package dpspark

import (
	"runtime"
	"testing"

	"dpspark/internal/experiments"
	"dpspark/internal/rdd"
)

// Allocation budgets, captured on a 2-core x86-64 host at GOMAXPROCS=2.
// Across GOMAXPROCS 1–8 the measured values stay within 5 % of these;
// sync.Pool keeps its objects per P, so CI checks them at 1, 2 and 8.
const (
	fineSolveAllocs = 21_000
	fineSolveBytes  = 5_600_000
	tablesBytes     = 7_000_000
	// allocSlack is the headroom over a budget before it fails.
	allocSlack = 1.10
)

// heapDelta reports the heap allocations and bytes f makes.
func heapDelta(f func()) (mallocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestAllocBudget: allocation counts are a property of the code, not of
// the host, so they gate tightly where wall time cannot.
//   - The fine-tile solve (256 vertices, 8×8 tiles: 32 iterations over
//     1024 records) is the record path's footprint. A per-record
//     allocation multiplies its count; a per-record structure that grows
//     back (a key map, a concatenated copy of a union) is a few large
//     allocations per task and shows in its bytes.
//   - A symbolic Table I + Table II regeneration runs the first cell of
//     each table and prices the other 29 from its tape, so a
//     task-count-sized slab made per stage again (instead of taken from
//     the stage scratch pool) multiplies its bytes, and a table that
//     stops sharing its tape replays 29 cells and reads about 20× over.
//
// The race detector drops pooled objects at random and instruments
// allocation, so the budgets hold only without it.
func TestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are measured without the race detector")
	}
	g := RandomGraph(256, 0.05, 1, 10, 3)
	solve := func() {
		// Two task slots, not the default of the host's CPU count.
		sub, err := rdd.NewSubstrate(rdd.SubstrateConf{Cluster: Local(4), RealParallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		s := &Session{ctx: rdd.NewContext(rdd.Conf{Substrate: sub})}
		if _, _, err := s.APSP(g, Config{BlockSize: 8, Driver: IM}); err != nil {
			t.Fatal(err)
		}
	}
	solve()
	mallocs, bytes := heapDelta(solve)
	// A table is 30 cells on fresh Contexts, and the pools they draw on
	// are shared, so its first cell warms what the other 29 reuse; a
	// warm-up regeneration would add no information.
	_, tables := heapDelta(func() {
		experiments.TableI(benchN)
		experiments.TableII(benchN)
	})
	for _, c := range []struct {
		name        string
		got, budget uint64
	}{
		{"fine-tile solve allocations", mallocs, fineSolveAllocs},
		{"fine-tile solve bytes", bytes, fineSolveBytes},
		{"Table I + Table II bytes", tables, tablesBytes},
	} {
		t.Logf("%s: %d (%.3f× budget %d)", c.name, c.got, float64(c.got)/float64(c.budget), c.budget)
		if float64(c.got) > allocSlack*float64(c.budget) {
			t.Errorf("%s: %d, over %.2f× the budget of %d", c.name, c.got, allocSlack, c.budget)
		}
	}
}
