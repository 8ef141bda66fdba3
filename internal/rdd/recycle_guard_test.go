package rdd_test

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"dpspark/internal/cluster"
	"dpspark/internal/core"
	"dpspark/internal/matrix"
	"dpspark/internal/rdd"
	"dpspark/internal/semiring"
	"dpspark/internal/simtime"
	"dpspark/internal/store"
)

// Use-after-recycle guard: with PoisonRecycled on, every record slice is
// overwritten as it is released (keys {-1, -1}, pointers nil), so a reader
// that still holds one — a slab released before its last reader, an
// adopted partition released with an arena — sees garbage. Each run below
// must reproduce the bits, modelled clock, recovery counters and stage log
// of the same run without the seam.

// guardRun is what a guarded run must reproduce.
type guardRun struct {
	bits   []uint64
	time   simtime.Duration
	rs     rdd.RecoveryStats
	events []rdd.StageEvent
}

// guardInput is an n×n input for rule: a sparse distance matrix for FW, a
// diagonally dominant system for GE.
func guardInput(rule semiring.Rule, n int, seed int64) *matrix.Dense {
	rng := rand.New(rand.NewSource(seed))
	d := matrix.NewDense(n)
	if _, ok := rule.(semiring.GaussianRule); ok {
		d.FillDiagonallyDominant(rng)
		return d
	}
	d.Fill(func(i, j int) float64 {
		switch {
		case i == j:
			return 0
		case rng.Float64() < 0.3:
			return math.Inf(1)
		default:
			return 1 + math.Floor(rng.Float64()*9)
		}
	})
	return d
}

// guardSolve runs one solve (a resume when meta is set) and records it.
func guardSolve(t *testing.T, conf rdd.Conf, cfg core.Config, in *matrix.Dense, meta *core.CheckpointMeta, bl *matrix.Blocked) guardRun {
	t.Helper()
	run, err := solveRecorded(conf, cfg, in, meta, bl)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// solveRecorded is guardSolve for any goroutine: it returns the error.
func solveRecorded(conf rdd.Conf, cfg core.Config, in *matrix.Dense, meta *core.CheckpointMeta, bl *matrix.Blocked) (guardRun, error) {
	ctx := rdd.NewContext(conf)
	defer ctx.Close()
	var out *matrix.Blocked
	var stats *core.Stats
	var err error
	if meta != nil {
		out, stats, err = core.Resume(ctx, meta, bl, cfg)
	} else {
		out, stats, err = core.Run(ctx, matrix.Block(in, cfg.BlockSize, cfg.Rule.Pad(), cfg.Rule.PadDiag()), cfg)
	}
	if err != nil {
		return guardRun{}, err
	}
	d := out.ToDense()
	bits := make([]uint64, len(d.Data))
	for i, v := range d.Data {
		bits[i] = math.Float64bits(v)
	}
	return guardRun{bits: bits, time: stats.Time, rs: ctx.RecoveryStats(), events: ctx.Events()}, nil
}

// poisonedMatches runs f without and with the seam and compares.
func poisonedMatches(t *testing.T, name string, f func() guardRun) {
	t.Helper()
	plain := f()
	restore := rdd.PoisonRecycled(true)
	poisoned := f()
	restore()
	if !reflect.DeepEqual(plain.bits, poisoned.bits) {
		t.Errorf("%s: result bits differ with recycled slices poisoned", name)
	}
	if plain.time != poisoned.time || plain.rs != poisoned.rs || !reflect.DeepEqual(plain.events, poisoned.events) {
		t.Errorf("%s: modelled clock, recovery counters or stage log differ with recycled slices poisoned:\n %v %+v\n %v %+v",
			name, plain.time, plain.rs, poisoned.time, poisoned.rs)
	}
}

// TestRecycleGuardSolves: FW and GE under both drivers, plain, under the
// chaos plans of the core suite (crash, disk loss, straggler with
// speculation: fetch failures and resubmission; a GC pause the detector
// falsely declares dead: zombie fencing) and resumed from a durable
// checkpoint.
func TestRecycleGuardSolves(t *testing.T) {
	local := cluster.LocalN(4, 2)
	twoSlots, err := rdd.NewSubstrate(rdd.SubstrateConf{Cluster: local, RealParallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	chaos := func() *rdd.FaultPlan {
		return &rdd.FaultPlan{Seed: 1, Events: []rdd.FaultEvent{
			rdd.ExecutorCrash{Stage: 7, Node: 1},
			rdd.DiskLoss{Stage: 11, Node: 2},
			rdd.Straggler{Stage: 6, Partition: 0, Factor: 3},
		}}
	}
	zombie := func() *rdd.FaultPlan {
		return &rdd.FaultPlan{Events: []rdd.FaultEvent{rdd.GCPause{Node: 1, From: 7, Dur: 6 * simtime.Second}}}
	}
	for _, rule := range []semiring.Rule{semiring.NewFloydWarshall(), semiring.NewGaussian()} {
		for _, driver := range []core.DriverKind{core.IM, core.CB} {
			name := rule.Name() + " " + driver.String()
			// r = 8: 24 IM shuffles, so the 8-shuffle window retires (and
			// recycles) most of them; a cadence of 2 makes the next
			// iteration's map tasks read a generation through lineage.
			in := guardInput(rule, 64, 7)
			cfg := core.Config{Rule: rule, BlockSize: 8, Driver: driver, Partitions: 8, CheckpointEvery: 2}
			poisonedMatches(t, name, func() guardRun {
				return guardSolve(t, rdd.Conf{Substrate: twoSlots}, cfg, in, nil, nil)
			})

			small := guardInput(rule, 32, 11)
			cfg = core.Config{Rule: rule, BlockSize: 8, Driver: driver, Partitions: 8}
			poisonedMatches(t, name+" chaos", func() guardRun {
				run := guardSolve(t, rdd.Conf{Cluster: local, FaultPlan: chaos(), Speculation: true}, cfg, small, nil, nil)
				if run.rs.StageResubmits == 0 || run.rs.FetchFailures == 0 {
					t.Fatalf("%s chaos: no recovery ran: %+v", name, run.rs)
				}
				return run
			})
			poisonedMatches(t, name+" zombie", func() guardRun {
				run := guardSolve(t, rdd.Conf{Cluster: local, FaultPlan: zombie(), Speculation: true,
					HeartbeatInterval: 2 * simtime.Second}, cfg, small, nil, nil)
				if run.rs.FencedCommits == 0 {
					t.Fatalf("%s zombie: no commit was fenced: %+v", name, run.rs)
				}
				return run
			})

			dir := t.TempDir()
			durable := func(restore *rdd.EngineState) rdd.Conf {
				return rdd.Conf{Cluster: local, DurableDir: dir, SpillCodec: core.TileCodec{}, Restore: restore}
			}
			dcfg := cfg
			dcfg.DurableDir = dir
			guardSolve(t, durable(nil), dcfg, small, nil, nil)
			ids := store.ListCheckpoints(dir)
			if len(ids) < 2 {
				t.Fatalf("%s: %d checkpoints, want a middle one to resume from", name, len(ids))
			}
			poisonedMatches(t, name+" resume", func() guardRun {
				meta, bl, err := core.LoadCheckpointAt(dir, ids[0])
				if err != nil {
					t.Fatal(err)
				}
				rcfg := dcfg
				rcfg.BlockSize, rcfg.Partitions, rcfg.CheckpointEvery = meta.B, meta.Partitions, meta.CheckpointEvery
				return guardSolve(t, durable(&meta.Engine), rcfg, nil, meta, bl)
			})
		}
	}
}

// TestRecycleGuardSharedSubstrate: two Contexts on one Substrate run FW IM
// solves at once — serve's shape — with recycled memory poisoned. The
// pools (record slabs, stage scratch, shuffle arrays, kernel scratch)
// cross Contexts, so a slab one job still reads while the other recycles
// it shows here. Each must reproduce the bits, modelled clock and stage
// log of the same solve run alone.
func TestRecycleGuardSharedSubstrate(t *testing.T) {
	local := cluster.LocalN(4, 2)
	rule := semiring.NewFloydWarshall()
	cfg := core.Config{Rule: rule, BlockSize: 8, Driver: core.IM, Partitions: 8, CheckpointEvery: 2}
	ins := []*matrix.Dense{guardInput(rule, 64, 7), guardInput(rule, 64, 8)}
	sub, err := rdd.NewSubstrate(rdd.SubstrateConf{Cluster: local, RealParallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	solo := make([]guardRun, len(ins))
	for i, in := range ins {
		solo[i] = guardSolve(t, rdd.Conf{Substrate: sub}, cfg, in, nil, nil)
	}
	defer rdd.PoisonRecycled(true)()
	for round := 0; round < 3; round++ {
		runs := make([]guardRun, len(ins))
		errs := make([]error, len(ins))
		var wg sync.WaitGroup
		for i, in := range ins {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runs[i], errs[i] = solveRecorded(rdd.Conf{Cluster: local, Substrate: sub}, cfg, in, nil, nil)
			}()
		}
		wg.Wait()
		for i := range ins {
			switch {
			case errs[i] != nil:
				t.Fatalf("round %d, solve %d: %v", round, i, errs[i])
			case !reflect.DeepEqual(runs[i].bits, solo[i].bits):
				t.Errorf("round %d, solve %d: result bits differ from the solo run", round, i)
			case runs[i].time != solo[i].time || !reflect.DeepEqual(runs[i].events, solo[i].events):
				t.Errorf("round %d, solve %d: modelled clock or stage log differ from the solo run: %v, want %v",
					round, i, runs[i].time, solo[i].time)
			}
		}
	}
}

// TestRecycleGuardTape: a tape whose stages count their empty tasks per
// node prices the recorded run's modelled clock and stage log, without the
// seam and in two passes with recycled memory poisoned — so no stage
// reads counts a recycled scratch still points at, the tape's own
// included.
func TestRecycleGuardTape(t *testing.T) {
	conf := rdd.Conf{Cluster: cluster.LocalN(4, 2)}
	// 64 tiles hashed over 64 partitions: most stages run empty tasks.
	cfg := core.Config{Rule: semiring.NewFloydWarshall(), BlockSize: 8, Driver: core.IM, Partitions: 64}
	rec := rdd.NewContext(conf)
	stats, tape, err := core.Record(rec, 64, cfg)
	if err != nil || tape == nil {
		t.Fatalf("recording run: err %v, tape %v", err, tape != nil)
	}
	want := guardRun{time: stats.Time, events: rec.Events()}
	reprice := func() guardRun {
		ctx := rdd.NewContext(conf)
		stats, err := core.Reprice(ctx, tape, 64, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return guardRun{time: stats.Time, events: ctx.Events()}
	}
	poisonedMatches(t, "tape", reprice)
	defer rdd.PoisonRecycled(true)()
	for pass := range 2 {
		if got := reprice(); got.time != want.time || !reflect.DeepEqual(got.events, want.events) {
			t.Errorf("poisoned pass %d: tape priced %v, the recorded run took %v (or their stage logs differ)", pass, got.time, want.time)
		}
	}
}
