package experiments_test

import (
	"reflect"
	"slices"
	"testing"

	"dpspark/internal/autotune"
	"dpspark/internal/cluster"
	"dpspark/internal/core"
	"dpspark/internal/experiments"
	"dpspark/internal/rdd"
	"dpspark/internal/sim"
)

// sameResult reports whether a tape-priced result equals the replay in
// Time, TimedOut, Err, Breakdown and every Stats field but Wall (host
// time) and CritPath (built from the same segments, and a pointer).
func sameResult(got, want experiments.Result) bool {
	if got.Time != want.Time || got.TimedOut != want.TimedOut ||
		!reflect.DeepEqual(got.Err, want.Err) || !reflect.DeepEqual(got.Breakdown, want.Breakdown) ||
		(got.Stats == nil) != (want.Stats == nil) {
		return false
	}
	if got.Stats == nil {
		return true
	}
	g, w := *got.Stats, *want.Stats
	g.Wall, g.CritPath, w.Wall, w.CritPath = 0, nil, 0, nil
	return g == w
}

// TestTapePricingMatchesReplay: a cell priced from the tape of another
// cell of its shape equals its replay, experiments.Run. The tables are
// checked as they are generated (their first cell records, the other 29
// re-price); autotune.DefaultSpace is checked shape by shape, every cell
// re-priced from the first cell's tape, which must exist, and so is a run
// that fills a staging disk. Per-task shared
// reads can differ between runs — Broadcast.Get charges a node's read to
// whichever of its tasks reads first — but the simulator sums them per
// node, so the Results cannot see it.
func TestTapePricingMatchesReplay(t *testing.T) {
	for name, table := range map[string]func(int) []experiments.Result{
		"TableI":  func(n int) []experiments.Result { _, r := experiments.TableI(n); return r },
		"TableII": func(n int) []experiments.Result { _, r := experiments.TableII(n); return r },
	} {
		results := table(8192)
		if _, tape := experiments.RecordCell(results[0].Cell); tape == nil {
			t.Fatalf("%s: the first cell %v recorded no tape", name, results[0].Cell)
		}
		for _, got := range results {
			if !experiments.SameShape(got.Cell, results[0].Cell) {
				t.Fatalf("%s: cell %v does not share the first cell's tape", name, got.Cell)
			}
			if want := experiments.Run(got.Cell); !sameResult(got, want) {
				t.Errorf("%s %v: tape priced %v %+v, replay %v %+v", name, got.Cell, got.Time, got.Stats, want.Time, want.Stats)
			}
		}
	}

	// A run that fills a staging disk keeps its tape: re-pricing feeds the
	// simulator the same bytes and reaches the same failure.
	tiny := cluster.Skylake16()
	tiny.Node.Disk.Capacity = 1 << 20
	full := experiments.Cell{Cluster: tiny, Bench: experiments.FW, N: 2048, Driver: core.IM, Block: 256, Recursive: true, RShared: 4}
	rec, tape := experiments.RecordCell(withThreads(full, 2))
	if _, ok := rec.Err.(sim.ErrDiskFull); !ok || tape == nil {
		t.Fatalf("small-disk cell: err %v, tape %v; want a disk-full run with a tape", rec.Err, tape != nil)
	}
	for _, th := range []int{2, 8, 32} {
		if got, want := experiments.RepriceCell(withThreads(full, th), tape), experiments.Run(withThreads(full, th)); !sameResult(got, want) {
			t.Errorf("small-disk cell, omp %d: tape priced %v err %v, replay %v err %v", th, got.Time, got.Err, want.Time, want.Err)
		}
	}

	sizes := []int{2048}
	if !testing.Short() {
		sizes = append(sizes, 4096)
	}
	for _, n := range sizes {
		for _, cl := range []*cluster.Cluster{cluster.Skylake16(), cluster.Haswell16()} {
			for _, bench := range []experiments.Benchmark{experiments.FW, experiments.GE} {
				replays, _, _ := autotune.Search(cl, bench, n, autotune.DefaultSpace(cl))
				var recorded []experiments.Cell // one cell of each shape
				var tapes []*rdd.Tape
				for _, want := range replays {
					i := slices.IndexFunc(recorded, func(c experiments.Cell) bool { return experiments.SameShape(c, want.Cell) })
					if i < 0 {
						rec, tape := experiments.RecordCell(want.Cell)
						if tape == nil {
							t.Fatalf("n=%d %s %v %v: no tape", n, cl.Name, bench, want.Cell)
						}
						if !sameResult(rec, want) {
							t.Errorf("n=%d %s %v %v: recording run %v, replay %v", n, cl.Name, bench, want.Cell, rec.Time, want.Time)
						}
						i, recorded, tapes = len(recorded), append(recorded, want.Cell), append(tapes, tape)
					}
					if got := experiments.RepriceCell(want.Cell, tapes[i]); !sameResult(got, want) {
						t.Errorf("n=%d %s %v %v: tape priced %v %+v err %v, replay %v %+v err %v", n, cl.Name, bench, want.Cell,
							got.Time, got.Stats, got.Err, want.Time, want.Stats, want.Err)
					}
				}
			}
		}
	}
}

func withThreads(c experiments.Cell, th int) experiments.Cell {
	c.Threads = th
	return c
}
