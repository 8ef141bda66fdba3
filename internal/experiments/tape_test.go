package experiments_test

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dpspark/internal/autotune"
	"dpspark/internal/cluster"
	"dpspark/internal/core"
	"dpspark/internal/experiments"
	"dpspark/internal/obs"
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

// TestTapeMetricsMatchReplay: a cell priced from its table's tape reports
// what its replay reports through the observer — the dpspark_task_seconds
// histogram of each stage kind (bucket counts, count and the bits of its
// sum) and every stage-complete event (clock bits and detail, the task
// count among it). A re-price submits no stage, so only completions are
// compared.
func TestTapeMetricsMatchReplay(t *testing.T) {
	for name, table := range map[string]func(int) []experiments.Result{
		"TableI":  func(n int) []experiments.Result { _, r := experiments.TableI(n); return r },
		"TableII": func(n int) []experiments.Result { _, r := experiments.TableII(n); return r },
	} {
		results := table(8192)
		_, tape := experiments.RecordCell(results[0].Cell)
		if tape == nil {
			t.Fatalf("%s: the first cell %v recorded no tape", name, results[0].Cell)
		}
		for _, r := range results {
			c := r.Cell
			got, want := experiments.Observed(c, tape), experiments.Observed(c, nil)
			for _, kind := range []rdd.StageKind{rdd.StageShuffleMap, rdd.StageResult} {
				g, w := taskSeconds(got, kind), taskSeconds(want, kind)
				if w.count == 0 || !slices.Equal(g.buckets, w.buckets) || g.count != w.count || g.sumBits != w.sumBits {
					t.Errorf("%s %v, %v stages: task seconds priced %+v, replayed %+v", name, c, kind, g, w)
				}
			}
			g, w := stageCompletions(got), stageCompletions(want)
			if len(w) == 0 || !slices.Equal(g, w) {
				t.Errorf("%s %v: %d stage completions priced, %d replayed; first difference at %d",
					name, c, len(g), len(w), firstDiff(g, w))
			}
		}
	}
}

// histogramBits is what TestTapeMetricsMatchReplay compares of a histogram.
type histogramBits struct {
	buckets []string // the exposition's _bucket lines
	count   int64
	sumBits uint64
}

// taskSeconds reads the dpspark_task_seconds histogram of one stage kind.
func taskSeconds(o *obs.Observer, kind rdd.StageKind) histogramBits {
	var prom strings.Builder
	if err := o.Metrics().WritePrometheus(&prom); err != nil {
		panic(err)
	}
	var hb histogramBits
	label := fmt.Sprintf(`kind=%q`, kind.String())
	for _, line := range strings.Split(prom.String(), "\n") {
		if strings.HasPrefix(line, "dpspark_task_seconds_bucket{") && strings.Contains(line, label) {
			hb.buckets = append(hb.buckets, line)
		}
	}
	h := o.Metrics().Histogram("dpspark_task_seconds", obs.Labels{"kind": kind.String()}, nil)
	hb.count, hb.sumBits = h.Count(), math.Float64bits(h.Sum())
	return hb
}

// stageCompletion is what TestTapeMetricsMatchReplay compares of a
// stage-complete event.
type stageCompletion struct {
	clockBits             uint64
	stage, attempt, shuff int
	detail                string
}

// stageCompletions lists the observer's stage-complete events in order.
func stageCompletions(o *obs.Observer) []stageCompletion {
	if o.Flight().Dropped() > 0 {
		panic("flight recorder dropped events; the comparison would miss them")
	}
	var out []stageCompletion
	for _, ev := range o.Flight().Snapshot() {
		if ev.Type == obs.EvStageComplete {
			out = append(out, stageCompletion{math.Float64bits(ev.Clock), ev.Stage, ev.Attempt, ev.Shuffle, ev.Detail})
		}
	}
	return out
}

func firstDiff[T comparable](a, b []T) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
