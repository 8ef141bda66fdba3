package rdd

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dpspark/internal/cluster"
	"dpspark/internal/obs"
	"dpspark/internal/simtime"
)

// Reduce-side fault-injection tests: executor crashes and staging-disk
// losses invalidate shuffle map outputs, a later fetch surfaces a
// FetchFailed, and the scheduler resubmits the parent map stage for
// exactly the lost partitions — Spark's recovery path, on the simulated
// engine.

// shuffledDoubles builds a one-shuffle job: `parts` map partitions stage
// buckets (the Map discards the source partitioner, so the PartitionBy is
// a real shuffle), then a result stage fetches every bucket.
func shuffledDoubles(ctx *Context, parts int) *RDD[Pair[int, int]] {
	in := Map(Parallelize(ctx, ints(20), parts), func(_ *TaskContext, x int) Pair[int, int] {
		return KV(x, 2*x)
	})
	return PartitionBy(in, NewHashPartitioner(parts))
}

// collectSorted collects the pairs into a key-indexed map.
func collectPairs(t *testing.T, r *RDD[Pair[int, int]]) map[int]int {
	t.Helper()
	got, err := CollectMap(r)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	return got
}

// TestFetchFailureResubmitsMapStage: a crash firing at the reduce stage
// invalidates the crashed node's map outputs; the reduce-side fetch must
// fail, the map stage must be resubmitted for only the lost partitions,
// and the job must still produce the right answer.
func TestFetchFailureResubmitsMapStage(t *testing.T) {
	const parts = 4
	// Stage 0 is the shuffle map stage, stage 1 the collecting result
	// stage; the crash fires as stage 1 starts, after the map outputs
	// were staged (partitions 0 and 2 live on node 0).
	ctx := NewContext(Conf{
		Cluster:   cluster.LocalN(2, 2),
		FaultPlan: &FaultPlan{Events: []FaultEvent{ExecutorCrash{Stage: 1, Node: 0}}},
	})
	got := collectPairs(t, shuffledDoubles(ctx, parts))
	if len(got) != 20 || got[7] != 14 {
		t.Fatalf("collect = %v", got)
	}

	rs := ctx.RecoveryStats()
	if rs.ExecutorCrashes != 1 {
		t.Fatalf("crashes = %d, want 1", rs.ExecutorCrashes)
	}
	if rs.FetchFailures == 0 {
		t.Fatalf("reduce-side fetch must fail after the crash: %+v", rs)
	}
	if rs.StageResubmits == 0 {
		t.Fatalf("map stage must be resubmitted: %+v", rs)
	}
	// Only node 0's two map partitions are recomputed — never the full
	// stage.
	if rs.RecomputedMapPartitions == 0 || rs.RecomputedMapPartitions >= int64(parts)*rs.StageResubmits {
		t.Fatalf("resubmission must recompute only the lost partitions: %+v", rs)
	}

	// The event log shows the resubmission: same stage ID, attempt 1,
	// fewer tasks than the planned run.
	var planned, resubmitted *StageEvent
	for i := range ctx.Events() {
		ev := &ctx.Events()[i]
		if ev.Kind != StageShuffleMap {
			continue
		}
		switch ev.Attempt {
		case 0:
			planned = ev
		default:
			resubmitted = ev
		}
	}
	if planned == nil || resubmitted == nil {
		t.Fatalf("events = %+v", ctx.Events())
	}
	if resubmitted.StageID != planned.StageID {
		t.Fatalf("resubmission must reuse the stage ID: %d vs %d", resubmitted.StageID, planned.StageID)
	}
	if resubmitted.Tasks >= planned.Tasks {
		t.Fatalf("resubmission reran %d of %d tasks", resubmitted.Tasks, planned.Tasks)
	}
}

// TestConcurrentFetchDuringRecovery: reduce tasks fetching while another
// task's FetchFailed recovery is mid-recompute must never observe a
// bucket with a lost partition's contribution silently missing — the
// stale refs stay visible (and keep raising FetchFailed) until the
// recompute's merge replaces them atomically. Many reduce tasks race one
// recovery here; repetitions make the drop-to-merge window, if it ever
// reopens, a reliable failure instead of a rare flake.
func TestConcurrentFetchDuringRecovery(t *testing.T) {
	for rep := 0; rep < 25; rep++ {
		ctx := NewContext(Conf{
			Cluster:         cluster.LocalN(2, 2),
			RealParallelism: 8,
			FaultPlan:       &FaultPlan{Events: []FaultEvent{ExecutorCrash{Stage: 1, Node: 0}}},
		})
		got := collectPairs(t, shuffledDoubles(ctx, 16))
		if len(got) != 20 {
			t.Fatalf("rep %d: result lost records: %d of 20: %v", rep, len(got), got)
		}
		for k, v := range got {
			if v != 2*k {
				t.Fatalf("rep %d: got[%d] = %d, want %d", rep, k, v, 2*k)
			}
		}
	}
}

// TestDiskLossRecoveredWithoutBlacklist: a staging-disk loss invalidates
// the node's map outputs like a crash, but the executor stays schedulable
// (no blacklist placements).
func TestDiskLossRecoveredWithoutBlacklist(t *testing.T) {
	ctx := NewContext(Conf{
		Cluster:   cluster.LocalN(2, 2),
		FaultPlan: &FaultPlan{Events: []FaultEvent{DiskLoss{Stage: 1, Node: 1}}},
	})
	got := collectPairs(t, shuffledDoubles(ctx, 4))
	if len(got) != 20 {
		t.Fatalf("collect = %v", got)
	}
	rs := ctx.RecoveryStats()
	if rs.DiskLosses != 1 || rs.StageResubmits == 0 {
		t.Fatalf("disk loss must trigger resubmission: %+v", rs)
	}
	if rs.BlacklistPlacements != 0 {
		t.Fatalf("disk loss must not blacklist the executor: %+v", rs)
	}
}

// TestCrashedExecutorTasksRePlaced: tasks of the crashing stage die with
// the executor ("executor lost"), are retried, and the retry lands on
// another node because the crashed one is blacklisted.
func TestCrashedExecutorTasksRePlaced(t *testing.T) {
	ctx := NewContext(Conf{
		Cluster:   cluster.LocalN(2, 2),
		FaultPlan: &FaultPlan{Events: []FaultEvent{ExecutorCrash{Stage: 0, Node: 1}}},
	})
	got := collectPairs(t, shuffledDoubles(ctx, 4))
	if len(got) != 20 {
		t.Fatalf("collect = %v", got)
	}
	rs := ctx.RecoveryStats()
	if rs.TaskRetries == 0 {
		t.Fatalf("first attempts must die with the executor: %+v", rs)
	}
	if rs.BlacklistPlacements == 0 {
		t.Fatalf("retries must be placed off the blacklisted node: %+v", rs)
	}
}

// TestBlacklistBackoffDoubles: repeated crashes of the same node extend
// the blacklist exponentially from defaultBlacklistBackoff.
func TestBlacklistBackoffDoubles(t *testing.T) {
	ctx := NewContext(Conf{
		Cluster: cluster.LocalN(2, 2),
		FaultPlan: &FaultPlan{Events: []FaultEvent{
			ExecutorCrash{Stage: 0, Node: 1},
			ExecutorCrash{Stage: 1, Node: 1},
		}},
	})
	start := ctx.Clock()
	ctx.fireStageFaults(0)
	first := ctx.faults.downUntil[1] - start
	mid := ctx.Clock()
	ctx.fireStageFaults(1)
	second := ctx.faults.downUntil[1] - mid
	if first != 30*simtime.Second {
		t.Fatalf("first backoff = %v", first)
	}
	if second != 60*simtime.Second {
		t.Fatalf("second backoff must double: %v", second)
	}
}

// TestStragglerDilatesAndSpeculationRecovers: an injected straggler must
// slow the job, and enabling speculation must claw most of that time back
// (the copy on a healthy executor wins).
func TestStragglerDilatesAndSpeculationRecovers(t *testing.T) {
	run := func(plan *FaultPlan, speculate bool) (simtime.Duration, RecoveryStats) {
		ctx := NewContext(Conf{
			Cluster:     cluster.LocalN(2, 2),
			FaultPlan:   plan,
			Speculation: speculate,
		})
		r := Map(Parallelize(ctx, ints(8), 4), func(tc *TaskContext, x int) int {
			tc.ChargeCompute(10*simtime.Second, 1)
			return x
		})
		if _, err := r.Collect(); err != nil {
			t.Fatal(err)
		}
		return ctx.Clock(), ctx.RecoveryStats()
	}

	plan := &FaultPlan{Events: []FaultEvent{Straggler{Stage: 0, Partition: 1, Factor: 8}}}
	clean, _ := run(nil, false)
	slow, srs := run(plan, false)
	spec, prs := run(plan, true)

	if srs.Stragglers != 1 {
		t.Fatalf("straggler injections = %+v", srs)
	}
	if slow < clean+60*simtime.Second {
		t.Fatalf("factor-8 straggler on a 10s task must add ~70s: clean %v, slow %v", clean, slow)
	}
	if prs.SpeculativeTasks == 0 || prs.SpeculationWins == 0 {
		t.Fatalf("speculation must launch and win a copy: %+v", prs)
	}
	if spec >= slow {
		t.Fatalf("speculation must beat the straggler: %v vs %v", spec, slow)
	}
	if spec < clean {
		t.Fatalf("the losing copy's work is not free: %v vs clean %v", spec, clean)
	}
}

// TestRecoveryMetricsExported: after a chaos run every exported recovery
// series, looked up by its published name and labels, equals the
// RecoveryStats field it mirrors — one row per ledger row that has both.
// Three jobs on one context (durable store, detector) walk the plan
// through a straggler, a crash, a GC pause long enough to be falsely
// declared, a disk loss and a corrupt block.
func TestRecoveryMetricsExported(t *testing.T) {
	conf := durableConf(t, 0)
	conf.Speculation = true
	conf.HeartbeatInterval = simtime.Second
	conf.FaultPlan = &FaultPlan{Events: []FaultEvent{
		Straggler{Stage: 0, Partition: 1, Factor: 8},
		ExecutorCrash{Stage: 1, Node: 0},
		// Node 0 is still blacklisted when job 1 maps: node 1 stages it all.
		GCPause{Node: 1, From: 3, Dur: 4 * simtime.Second},
		DiskLoss{Stage: 5, Node: 0},
		Corruption{Stage: 5, Block: 1},
	}}
	ctx := newContext(t, conf)
	for job := 0; job < 3; job++ {
		in := Map(Parallelize(ctx, ints(20), 4), func(tc *TaskContext, x int) Pair[int, int] {
			tc.ChargeCompute(10*simtime.Second, 1)
			return KV(x, 2*x)
		})
		if got := collectPairs(t, PartitionBy(in, NewHashPartitioner(4))); len(got) != 20 || got[7] != 14 {
			t.Fatalf("job %d: collect = %v", job, got)
		}
	}

	rs := ctx.RecoveryStats()
	rows := []struct {
		name, kind string // kind: the fault_injections_total label
		want       int64
		moved      bool // the run above must have counted it
	}{
		{"dpspark_task_retries_total", "", rs.TaskRetries, true},
		{"dpspark_fetch_failures_total", "", rs.FetchFailures, true},
		{"dpspark_stage_resubmits_total", "", rs.StageResubmits, true},
		{"dpspark_recomputed_map_partitions_total", "", rs.RecomputedMapPartitions, true},
		{"dpspark_speculative_tasks_total", "", rs.SpeculativeTasks, true},
		{"dpspark_speculation_wins_total", "", rs.SpeculationWins, true},
		{"dpspark_blacklist_placements_total", "", rs.BlacklistPlacements, true},
		{"dpspark_detector_suspicions_total", "", rs.Suspicions, true},
		{"dpspark_detector_false_suspicions_total", "", rs.FalseSuspicions, true},
		{"dpspark_detector_fenced_commits_total", "", rs.FencedCommits, true},
		{"dpspark_fault_injections_total", "executor-crash", rs.ExecutorCrashes, true},
		{"dpspark_fault_injections_total", "disk-loss", rs.DiskLosses, true},
		{"dpspark_fault_injections_total", "straggler", rs.Stragglers, true},
		{"dpspark_fault_injections_total", "corruption", rs.Corruptions, true},
	}
	reg := ctx.Observer().Metrics()
	for _, row := range rows {
		var labels obs.Labels
		if row.kind != "" {
			labels = obs.Labels{"kind": row.kind}
		}
		got := reg.Counter(row.name, labels).Value()
		if got != row.want || (row.moved && got == 0) {
			t.Errorf("%s%v = %d, RecoveryStats has %d (must move: %v)", row.name, labels, got, row.want, row.moved)
		}
	}
	mirrored := 0
	for _, row := range ledgerRows {
		if row.field != nil && row.metric+row.inject != "" {
			mirrored++
		}
	}
	if mirrored != len(rows) {
		t.Fatalf("the ledger mirrors %d RecoveryStats fields into series, this table checks %d", mirrored, len(rows))
	}
}

// TestFetchFailureCountedOncePerRecovery: one lost map output, eight
// reduce tasks released onto it together. However many of them see the
// loss before it is repaired, it is one recovery round: FetchFailures is
// 1, and the counters and the modelled clock are the serial run's, bit
// for bit. Each reducer charges compute before it reaches the lost
// shuffle, so a clock that charged fetch-failed attempts for the part
// they ran would differ with the number of observers.
func TestFetchFailureCountedOncePerRecovery(t *testing.T) {
	const reducers = 8
	run := func(par int) (simtime.Duration, RecoveryStats) {
		ctx := NewContext(Conf{
			Cluster:         cluster.LocalN(2, 2),
			RealParallelism: par,
			// The crash fires as the result stage starts: map partition 0,
			// staged on node 0, is lost, and the reducers homed there die
			// with it once before they are re-placed.
			FaultPlan: &FaultPlan{Events: []FaultEvent{ExecutorCrash{Stage: 1, Node: 0}}},
		})
		part := NewHashPartitioner(reducers)
		lostSide := PartitionBy(Map(Parallelize(ctx, ints(64), 2), func(_ *TaskContext, x int) Pair[int, int] {
			return KV(x, 2*x)
		}), part)
		// The other side of the union gates the reducers: each charges its
		// compute, then waits until all of them are running (a task waits
		// at most once, so retries pass; one worker cannot wait at all).
		var arrived sync.WaitGroup
		arrived.Add(reducers)
		var waited [reducers]atomic.Bool
		keys := make([]Pair[int, int], reducers)
		for i := range keys {
			keys[i] = KV(1000+i, 0)
		}
		gate := MapValues(ParallelizePairs(ctx, keys, part), func(tc *TaskContext, _ int, v int) int {
			tc.ChargeCompute(10*simtime.Second, 1)
			if par >= reducers && waited[tc.Partition].CompareAndSwap(false, true) {
				arrived.Done()
				arrived.Wait()
			}
			return v
		})
		got := collectPairs(t, gate.Union(lostSide))
		if len(got) != 64+reducers || got[7] != 14 {
			t.Fatalf("parallelism %d: collect = %v", par, got)
		}
		return ctx.Clock(), ctx.RecoveryStats()
	}
	serialClock, serial := run(1)
	if serial.FetchFailures != 1 || serial.BlacklistPlacements == 0 {
		t.Fatalf("serial run: %+v", serial)
	}
	clock, rs := run(reducers)
	if rs.FetchFailures != 1 {
		t.Errorf("FetchFailures = %d with %d concurrent reducers, want 1 (one recovery round)", rs.FetchFailures, reducers)
	}
	if rs != serial {
		t.Errorf("recovery stats depend on interleaving:\n  serial   %+v\n  parallel %+v", serial, rs)
	}
	if math.Float64bits(clock.Seconds()) != math.Float64bits(serialClock.Seconds()) {
		t.Errorf("modelled clock depends on interleaving: serial %v, parallel %v", serialClock, clock)
	}
}

// TestRandomFaultPlanDeterministic: the same seed yields the same plan;
// the plan passes its own validation for the cluster it was drawn for.
func TestRandomFaultPlanDeterministic(t *testing.T) {
	a := RandomFaultPlan(42, 12, 4, 2, 2, 1)
	b := RandomFaultPlan(42, 12, 4, 2, 2, 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different plans:\n%+v\n%+v", a, b)
	}
	c := RandomFaultPlan(43, 12, 4, 2, 2, 1)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds should differ")
	}
	if err := a.validate(4, false); err != nil {
		t.Fatalf("drawn plan invalid: %v", err)
	}
	if CountEvents[ExecutorCrash](a) != 2 || CountEvents[Straggler](a) != 2 || CountEvents[DiskLoss](a) != 1 {
		t.Fatalf("plan = %+v", a)
	}

	// The detector-era event kinds generate behind chained opts, equally
	// deterministic, without disturbing the base plan's draws.
	d := a.WithRandomGCPauses(5, 12, 4, 2).WithRandomPartitions(6, 12, 4, 1)
	e := a.WithRandomGCPauses(5, 12, 4, 2).WithRandomPartitions(6, 12, 4, 1)
	if !reflect.DeepEqual(d, e) {
		t.Fatalf("same seeds, different chained plans:\n%+v\n%+v", d, e)
	}
	if CountEvents[GCPause](d) != 2 || CountEvents[Partition](d) != 1 {
		t.Fatalf("chained plan = %+v", d)
	}
	if CountEvents[GCPause](a)+CountEvents[Partition](a) != 0 {
		t.Fatalf("chaining must copy, not mutate: %+v", a)
	}
	if err := d.validate(4, true); err != nil {
		t.Fatalf("chained plan invalid: %v", err)
	}
	if err := d.validate(4, false); err == nil {
		t.Fatal("GC pauses and partitions must be rejected without the detector")
	}
}

// TestFaultPlanRunsAreDeterministic: two contexts driven by the same plan
// produce identical clocks, recovery counters and event logs.
func TestFaultPlanRunsAreDeterministic(t *testing.T) {
	plan := RandomFaultPlan(7, 2, 2, 1, 1, 1)
	run := func() (simtime.Duration, RecoveryStats, []StageEvent) {
		ctx := NewContext(Conf{Cluster: cluster.LocalN(2, 2), FaultPlan: plan, Speculation: true})
		collectPairs(t, shuffledDoubles(ctx, 4))
		return ctx.Clock(), ctx.RecoveryStats(), ctx.Events()
	}
	c1, r1, e1 := run()
	c2, r2, e2 := run()
	if c1 != c2 {
		t.Fatalf("clocks differ: %v vs %v", c1, c2)
	}
	if r1 != r2 {
		t.Fatalf("recovery stats differ:\n%+v\n%+v", r1, r2)
	}
	if !reflect.DeepEqual(e1, e2) {
		t.Fatalf("event logs differ:\n%+v\n%+v", e1, e2)
	}
}

// TestRandomFaultPlanGolden pins the generators' draws: the event list of
// the record-path golden's plan chained through every WithRandom*, printed
// in generation order. Captured before the per-kind plan slices became one
// Events list; the recovery goldens and the chaos suites rest on it.
func TestRandomFaultPlanGolden(t *testing.T) {
	p := RandomFaultPlan(16, 30, 4, 2, 2, 1).
		WithRandomCorruptions(17, 30, 2).
		WithRandomGCPauses(18, 30, 4, 2).
		WithRandomPartitions(19, 30, 4, 2)
	var got strings.Builder
	for _, ev := range p.Events {
		fmt.Fprintf(&got, "%#v\n", ev)
	}
	if got.String() != randomFaultPlanGolden {
		t.Fatalf("generators drew a different plan:\n%swant:\n%s", got.String(), randomFaultPlanGolden)
	}
}

const randomFaultPlanGolden = `rdd.ExecutorCrash{Stage:7, Node:3, Down:0}
rdd.ExecutorCrash{Stage:15, Node:3, Down:0}
rdd.Straggler{Stage:20, Partition:7, Factor:4.6117562132306125}
rdd.Straggler{Stage:3, Partition:0, Factor:2.85705992262095}
rdd.DiskLoss{Stage:19, Node:1}
rdd.Corruption{Stage:15, Block:31863, Torn:true}
rdd.Corruption{Stage:8, Block:29928, Torn:false}
rdd.GCPause{Node:0, From:8, Dur:2.206549092681544}
rdd.GCPause{Node:2, From:9, Dur:6.4621137238874}
rdd.Partition{Nodes:[]int{1, 0}, From:10, Dur:7.414460852092496}
rdd.Partition{Nodes:[]int{2}, From:3, Dur:4.641757663820156}
`
