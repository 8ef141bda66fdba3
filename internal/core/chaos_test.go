package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dpspark/internal/cluster"
	"dpspark/internal/matrix"
	"dpspark/internal/rdd"
	"dpspark/internal/semiring"
)

// Chaos harness: full FW-APSP and GE runs under a deterministic fault
// plan — an executor crash mid-run, a slow-task straggler and a
// staging-disk loss — must recover through stage resubmission and produce
// results bit-identical to the fault-free execution, with bounded
// modelled-time overhead and a reproducible recovery trajectory.

// chaosPlan targets the drivers' shared stage period: both IM and CB run
// 4 stages per iteration with a shuffle map at stage 4k+2 (IM also at 4k
// and 4k+1) and the checkpoint result stage at 4k+3 reading the shuffle
// staged at 4k+2. Crash and disk loss fire at result stages 7 and 11
// (iterations 1 and 2), so freshly staged map outputs are lost exactly
// when the reduce side is about to fetch them; the straggler slows a task
// of the iteration-1 update stage.
func chaosPlan() *rdd.FaultPlan {
	return &rdd.FaultPlan{
		Seed: 1,
		Events: []rdd.FaultEvent{
			rdd.ExecutorCrash{Stage: 7, Node: 1},
			rdd.DiskLoss{Stage: 11, Node: 2},
			rdd.Straggler{Stage: 6, Partition: 0, Factor: 3},
		},
	}
}

// chaosRun executes one n=32, b=8 (r=4) run under the given plan and
// returns the result, stats and recovery counters.
type chaosOut struct {
	dense *matrix.Dense
	stats *Stats
	rs    rdd.RecoveryStats
	event []rdd.StageEvent
}

func chaosRun(t *testing.T, rule semiring.Rule, driver DriverKind, in *matrix.Dense, plan *rdd.FaultPlan) chaosOut {
	t.Helper()
	ctx := rdd.NewContext(rdd.Conf{
		Cluster:     cluster.LocalN(4, 2),
		FaultPlan:   plan,
		Speculation: true,
	})
	cfg := Config{Rule: rule, BlockSize: 8, Driver: driver, Partitions: 8}
	bl := matrix.Block(in, cfg.BlockSize, rule.Pad(), rule.PadDiag())
	out, stats, err := Run(ctx, bl, cfg)
	if err != nil {
		t.Fatalf("Run(%v) under faults: %v", driver, err)
	}
	return chaosOut{dense: out.ToDense(), stats: stats, rs: ctx.RecoveryStats(), event: ctx.Events()}
}

// bitIdentical compares two dense matrices bit for bit (MaxAbsDiff would
// mask NaN/Inf and signed-zero drift).
func bitIdentical(a, b *matrix.Dense) bool {
	if a.N != b.N {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestChaosRecoveryBitIdentical: both drivers × FW and GE under the chaos
// plan must (a) fire every fault kind, (b) recover via partial map-stage
// resubmission, (c) reproduce the fault-free bits exactly, and (d) stay
// within a bounded modelled-time overhead.
func TestChaosRecoveryBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, rule := range []semiring.Rule{semiring.NewFloydWarshall(), semiring.NewGaussian()} {
		in := randomInput(rule, 32, rng)
		for _, driver := range []DriverKind{IM, CB} {
			clean := chaosRun(t, rule, driver, in, nil)
			chaos := chaosRun(t, rule, driver, in, chaosPlan())

			if !bitIdentical(clean.dense, chaos.dense) {
				t.Fatalf("%s %v: recovered result differs from fault-free bits", rule.Name(), driver)
			}

			rs := chaos.rs
			if rs.ExecutorCrashes != 1 || rs.DiskLosses != 1 || rs.Stragglers == 0 {
				t.Fatalf("%s %v: plan did not fully fire: %+v", rule.Name(), driver, rs)
			}
			if rs.FetchFailures == 0 || rs.StageResubmits == 0 || rs.RecomputedMapPartitions == 0 {
				t.Fatalf("%s %v: lost outputs must recover via resubmission: %+v", rule.Name(), driver, rs)
			}

			// Resubmissions recompute only the lost partitions: every
			// attempt>0 stage event reruns fewer tasks than its planned
			// execution.
			planned := make(map[int]int)
			for _, ev := range chaos.event {
				if ev.Kind == rdd.StageShuffleMap && ev.Attempt == 0 {
					planned[ev.StageID] = ev.Tasks
				}
			}
			resubmits := 0
			for _, ev := range chaos.event {
				if ev.Attempt == 0 {
					continue
				}
				resubmits++
				if full, ok := planned[ev.StageID]; !ok || ev.Tasks >= full {
					t.Fatalf("%s %v: resubmitted stage %d reran %d of %d tasks",
						rule.Name(), driver, ev.StageID, ev.Tasks, full)
				}
			}
			if int64(resubmits) != rs.StageResubmits {
				t.Fatalf("%s %v: %d resubmit events vs %d counted", rule.Name(), driver, resubmits, rs.StageResubmits)
			}

			// Recovery is visible in the breakdown and bounded: the run
			// must cost more than fault-free but stay within 3×.
			if chaos.stats.RecoveryTime <= 0 {
				t.Fatalf("%s %v: recovery time missing from breakdown: %+v", rule.Name(), driver, chaos.stats)
			}
			if chaos.stats.Time <= clean.stats.Time {
				t.Fatalf("%s %v: faults must cost time: %v vs %v", rule.Name(), driver, chaos.stats.Time, clean.stats.Time)
			}
			if chaos.stats.Time > 3*clean.stats.Time {
				t.Fatalf("%s %v: recovery overhead unbounded: %v vs %v", rule.Name(), driver, chaos.stats.Time, clean.stats.Time)
			}
			if clean.stats.RecoveryTime != 0 {
				t.Fatalf("%s %v: fault-free run reports recovery time %v", rule.Name(), driver, clean.stats.RecoveryTime)
			}
		}
	}
}

// TestChaosDeterministic: the same plan replayed on the same job yields
// an identical recovery trajectory — clock, counters and event log.
func TestChaosDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	rule := semiring.NewFloydWarshall()
	in := randomInput(rule, 32, rng)
	a := chaosRun(t, rule, IM, in, chaosPlan())
	b := chaosRun(t, rule, IM, in, chaosPlan())
	if a.stats.Time != b.stats.Time {
		t.Fatalf("clocks differ: %v vs %v", a.stats.Time, b.stats.Time)
	}
	if a.rs != b.rs {
		t.Fatalf("recovery stats differ:\n%+v\n%+v", a.rs, b.rs)
	}
	if !reflect.DeepEqual(a.event, b.event) {
		t.Fatal("event logs differ")
	}
	if !bitIdentical(a.dense, b.dense) {
		t.Fatal("results differ")
	}
}

// TestChaosSeededPlan: a RandomFaultPlan-driven run (the CI chaos-smoke
// configuration) recovers and matches the fault-free bits.
func TestChaosSeededPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rule := semiring.NewGaussian()
	in := randomInput(rule, 32, rng)
	// 16 planned stages (4 iterations × 4 stages), 4 nodes.
	plan := rdd.RandomFaultPlan(20260805, 16, 4, 2, 2, 1)
	clean := chaosRun(t, rule, IM, in, nil)
	chaos := chaosRun(t, rule, IM, in, plan)
	if !bitIdentical(clean.dense, chaos.dense) {
		t.Fatal("seeded chaos run must reproduce the fault-free bits")
	}
	if chaos.rs.ExecutorCrashes == 0 && chaos.rs.DiskLosses == 0 && chaos.rs.Stragglers == 0 {
		t.Fatalf("seeded plan fired nothing: %+v", chaos.rs)
	}
}

// TestCheckpointCadence: a multi-iteration lineage window (CheckpointEvery
// 2) must still recover to identical bits — recovery replays kernels from
// older generations, exercised here with a crash landing inside the
// window — and an over-wide window must be rejected against the
// context's 8-shuffle retention.
func TestCheckpointCadence(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	rule := semiring.NewFloydWarshall()
	in := randomInput(rule, 32, rng)

	run := func(plan *rdd.FaultPlan) chaosOut {
		ctx := rdd.NewContext(rdd.Conf{
			Cluster:   cluster.LocalN(4, 2),
			FaultPlan: plan,
		})
		cfg := Config{Rule: rule, BlockSize: 8, Driver: IM, Partitions: 8, CheckpointEvery: 2}
		bl := matrix.Block(in, cfg.BlockSize, rule.Pad(), rule.PadDiag())
		out, stats, err := Run(ctx, bl, cfg)
		if err != nil {
			t.Fatalf("Run with CheckpointEvery=2: %v", err)
		}
		return chaosOut{dense: out.ToDense(), stats: stats, rs: ctx.RecoveryStats()}
	}

	// With K=2 the stage period is 3,3,4 per checkpoint window; crash at
	// a mid-window stage so recompute crosses an iteration boundary.
	plan := &rdd.FaultPlan{Events: []rdd.FaultEvent{rdd.ExecutorCrash{Stage: 5, Node: 1}}}
	clean := run(nil)
	chaos := run(plan)
	if chaos.rs.ExecutorCrashes != 1 {
		t.Fatalf("crash did not fire: %+v", chaos.rs)
	}
	if !bitIdentical(clean.dense, chaos.dense) {
		t.Fatal("recovery across a checkpoint window must be bit-identical")
	}

	// Fault-free K=2 must also match K=1 exactly (cadence is a pure
	// scheduling choice).
	ctxK1 := rdd.NewContext(rdd.Conf{Cluster: cluster.LocalN(4, 2)})
	bl := matrix.Block(in, 8, rule.Pad(), rule.PadDiag())
	outK1, _, err := Run(ctxK1, bl, Config{Rule: rule, BlockSize: 8, Driver: IM, Partitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !bitIdentical(outK1.ToDense(), clean.dense) {
		t.Fatal("checkpoint cadence changed the answer")
	}

	// The window must fit the shuffle-retention budget.
	ctx := rdd.NewContext(rdd.Conf{Cluster: cluster.LocalN(4, 2)})
	_, _, err = Run(ctx, bl, Config{Rule: rule, BlockSize: 8, Driver: IM, CheckpointEvery: 4})
	const want = "core: CheckpointEvery 4 needs 12 live shuffles but the context keeps the last 8; IM needs CheckpointEvery ≤ 2"
	if err == nil || err.Error() != want {
		t.Fatalf("CheckpointEvery 4 with 8 kept shuffles: err = %v, want %q", err, want)
	}

	if _, _, err := Run(ctx, bl, Config{Rule: rule, BlockSize: 8, CheckpointEvery: -1}); err == nil {
		t.Fatal("negative CheckpointEvery must be rejected")
	}
}

// remoteChaosConf wires the remote replica tier into a durable chaos
// context: the chaos suite again, with lost staged outputs now eligible
// for restore-from-replica before the recompute fallback.
func remoteChaosConf(t *testing.T, plan *rdd.FaultPlan) rdd.Conf {
	t.Helper()
	conf := durableConf(t.TempDir(), 0, plan, nil)
	conf.RemoteDir = t.TempDir()
	return conf
}

// TestRemoteChaosBitIdentical: FW and GE under both drivers, with the
// remote tier attached, recover the chaos plan's losses through replica
// restore and still reproduce the fault-free bits exactly.
func TestRemoteChaosBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, rule := range []semiring.Rule{semiring.NewFloydWarshall(), semiring.NewGaussian()} {
		in := randomInput(rule, 32, rng)
		for _, driver := range []DriverKind{IM, CB} {
			clean := chaosRun(t, rule, driver, in, nil)
			out, ctx := durableChaosRun(t, rule, driver, in, remoteChaosConf(t, chaosPlan()), "")
			if !bitIdentical(clean.dense, out.dense) {
				t.Fatalf("%s %v: remote-backed recovery differs from fault-free bits", rule.Name(), driver)
			}
			rs := out.rs
			if rs.ExecutorCrashes != 1 || rs.DiskLosses != 1 {
				t.Fatalf("%s %v: plan did not fully fire: %+v", rule.Name(), driver, rs)
			}
			if rs.RestoredBlocks == 0 {
				t.Fatalf("%s %v: lost staged outputs must restore from replicas: %+v", rule.Name(), driver, rs)
			}
			st := out.stats
			if st.ReplicatedBlocks == 0 {
				t.Fatalf("%s %v: nothing replicated: %+v", rule.Name(), driver, st)
			}
			if st.RestoredBlocks != rs.RestoredBlocks || st.RecomputedBlocks != rs.RecomputedBlocks {
				t.Fatalf("%s %v: Stats disagrees with recovery counters: %+v vs %+v", rule.Name(), driver, st, rs)
			}
			reg := ctx.Observer().Metrics()
			if reg.CounterTotal("dpspark_remote_replicated_blocks_total") != st.ReplicatedBlocks ||
				reg.CounterTotal("dpspark_remote_restored_blocks_total") != st.RestoredBlocks {
				t.Fatalf("%s %v: remote counters disagree with stats: %+v", rule.Name(), driver, st)
			}
		}
	}
}

// TestRemoteChaosDeterministic: the restore path joins the determinism
// contract — same plan, same clock, counters, event log and bits.
func TestRemoteChaosDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	rule := semiring.NewFloydWarshall()
	in := randomInput(rule, 32, rng)
	a, _ := durableChaosRun(t, rule, IM, in, remoteChaosConf(t, chaosPlan()), "")
	b, _ := durableChaosRun(t, rule, IM, in, remoteChaosConf(t, chaosPlan()), "")
	if a.stats.Time != b.stats.Time {
		t.Fatalf("clocks differ: %v vs %v", a.stats.Time, b.stats.Time)
	}
	if a.rs != b.rs {
		t.Fatalf("recovery stats differ:\n%+v\n%+v", a.rs, b.rs)
	}
	if !reflect.DeepEqual(a.event, b.event) {
		t.Fatal("event logs differ")
	}
	if !bitIdentical(a.dense, b.dense) {
		t.Fatal("results differ")
	}
}

// TestRemoteOutageMidRunFallsBack: an outage window swallowing the crash
// degrades that recovery to recompute-only; the disk loss firing after
// the window closes restores from replicas again — one run exercising
// both paths, still bit-identical.
func TestRemoteOutageMidRunFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	rule := semiring.NewFloydWarshall()
	in := randomInput(rule, 32, rng)
	clean := chaosRun(t, rule, IM, in, nil)
	plan := chaosPlan()
	plan.Events = append(plan.Events, rdd.RemoteOutage{From: 6, Dur: 4}) // covers the stage-7 crash
	out, ctx := durableChaosRun(t, rule, IM, in, remoteChaosConf(t, plan), "")
	if !bitIdentical(clean.dense, out.dense) {
		t.Fatal("degraded-mode recovery differs from fault-free bits")
	}
	rs := out.rs
	if rs.DegradedWindows != 1 {
		t.Fatalf("degraded windows = %d, want 1: %+v", rs.DegradedWindows, rs)
	}
	if rs.RecomputedBlocks == 0 {
		t.Fatalf("the crash inside the window must fall back to recompute: %+v", rs)
	}
	if rs.RestoredBlocks == 0 {
		t.Fatalf("the disk loss past the window must restore from replicas: %+v", rs)
	}
	st := out.stats
	if st.DegradedWindows != 1 || st.RecomputedBlocks != rs.RecomputedBlocks {
		t.Fatalf("Stats disagrees with recovery counters: %+v vs %+v", st, rs)
	}
	if n := ctx.Observer().Metrics().CounterTotal("dpspark_remote_degraded_windows_total"); n != 1 {
		t.Fatalf("degraded-window counter = %d, want 1", n)
	}
}

// TestRemoteCorruptReplicaFallsBack: damaging a staged block and its
// replica together (the paired selection rule) defeats the restore; the
// replica's checksum failure is detected and recompute repairs the run.
func TestRemoteCorruptReplicaFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	rule := semiring.NewGaussian()
	in := randomInput(rule, 32, rng)
	clean := chaosRun(t, rule, IM, in, nil)
	plan := &rdd.FaultPlan{Events: []rdd.FaultEvent{
		rdd.Corruption{Stage: 7, Block: 1},
		rdd.RemoteCorruption{Stage: 7, Block: 1},
	}}
	out, ctx := durableChaosRun(t, rule, IM, in, remoteChaosConf(t, plan), "")
	if !bitIdentical(clean.dense, out.dense) {
		t.Fatal("corrupt-replica recovery differs from fault-free bits")
	}
	rs := out.rs
	if rs.Corruptions != 1 || rs.RemoteCorruptions != 1 {
		t.Fatalf("both corruption events must fire: %+v", rs)
	}
	if rs.RecomputedBlocks == 0 {
		t.Fatalf("a corrupt replica must force the recompute fallback: %+v", rs)
	}
	if n := ctx.Observer().Metrics().CounterTotal("dpspark_remote_corrupt_replicas_detected_total"); n == 0 {
		t.Fatal("replica checksum failure went undetected")
	}
}

// TestRecoveryTimeInStats: the recovery share surfaces through
// Stats.RecoveryTime and overlaps (never inflates) the phase sum.
func TestRecoveryTimeInStats(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	rule := semiring.NewFloydWarshall()
	in := randomInput(rule, 32, rng)
	chaos := chaosRun(t, rule, IM, in, chaosPlan())
	st := chaos.stats
	sum := st.ComputeTime + st.ShuffleTime + st.BroadcastTime + st.OverheadTime
	if d := (sum - st.Time).Seconds(); d > 1e-9 || d < -1e-9 {
		t.Fatalf("phase sum %v != time %v", sum, st.Time)
	}
	if st.RecoveryTime <= 0 || st.RecoveryTime >= st.Time {
		t.Fatalf("recovery time out of range: %+v", st)
	}
}
