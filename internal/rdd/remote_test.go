package rdd

import (
	"reflect"
	"strings"
	"testing"

	"dpspark/internal/cluster"
	"dpspark/internal/simtime"
)

// Remote-tier tests: replicas restore lost shuffle outputs before the
// recompute fallback fires, outage/slowdown windows degrade the engine
// to recompute-only without wedging it, and the new Conf knobs and plan
// events validate in the usual single sites.

// remoteConf is durableConf plus a remote replica tier rooted in its own
// temp directory.
func remoteConf(t *testing.T, budget int64) Conf {
	t.Helper()
	conf := durableConf(t, budget)
	conf.RemoteDir = t.TempDir()
	return conf
}

// TestRemoteRestoreAfterCrash: an executor crash that loses staged map
// outputs recovers by re-installing the blocks from their remote
// replicas — no stage resubmission, bit-identical result.
func TestRemoteRestoreAfterCrash(t *testing.T) {
	clean := NewContext(Conf{Cluster: cluster.LocalN(2, 2)})
	want := collectPairs(t, shuffledDoubles(clean, 4))

	conf := remoteConf(t, 0)
	conf.FaultPlan = &FaultPlan{Events: []FaultEvent{ExecutorCrash{Stage: 1, Node: 0}}}
	ctx := newContext(t, conf)
	got := collectPairs(t, shuffledDoubles(ctx, 4))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restore changed results: %v vs %v", got, want)
	}

	rs := ctx.RecoveryStats()
	if rs.FetchFailures == 0 {
		t.Fatalf("crash must surface a fetch failure: %+v", rs)
	}
	if rs.RestoredBlocks == 0 {
		t.Fatalf("lost outputs must restore from replicas: %+v", rs)
	}
	if rs.RecomputedBlocks != 0 || rs.StageResubmits != 0 || rs.RecomputedMapPartitions != 0 {
		t.Fatalf("restore must preempt the recompute path entirely: %+v", rs)
	}
	reg := ctx.Observer().Metrics()
	if n := reg.CounterTotal("dpspark_remote_restored_blocks_total"); n != rs.RestoredBlocks {
		t.Fatalf("restored counter = %d, want %d", n, rs.RestoredBlocks)
	}
	if st := ctx.StoreStats(); st.RemoteRestored != rs.RestoredBlocks {
		t.Fatalf("store restored %d blocks, recovery saw %d", st.RemoteRestored, rs.RestoredBlocks)
	}
	// The restore re-homed the lost outputs: every staged block verifies.
	for _, key := range ctx.Store().Keys("shuffle/") {
		if _, err := ctx.Store().Get(key); err != nil {
			t.Fatalf("block %q unreadable after restore: %v", key, err)
		}
	}
	// The simulated remote reads were charged to the clock as recovery
	// time (overlapping the shared-fs component, like recompute stages).
	if ctx.Breakdown().Recovery <= 0 {
		t.Fatalf("restore reads must cost recovery time: %+v", ctx.Breakdown())
	}
}

// TestRemoteOutageDegradesToRecompute: with the tier down for the whole
// job, replication parks, restore is skipped, and recovery falls back to
// the PR 3 resubmission path; a later job whose stages close the window
// brings the tier back and drains the parked queue.
func TestRemoteOutageDegradesToRecompute(t *testing.T) {
	conf := remoteConf(t, 0)
	conf.FaultPlan = &FaultPlan{Events: []FaultEvent{
		ExecutorCrash{Stage: 1, Node: 0},
		RemoteOutage{From: 0, Dur: 2},
	}}
	ctx := newContext(t, conf)
	got := collectPairs(t, shuffledDoubles(ctx, 4))
	if len(got) != 20 || got[7] != 14 {
		t.Fatalf("collect = %v", got)
	}
	rs := ctx.RecoveryStats()
	if rs.RestoredBlocks != 0 {
		t.Fatalf("restore must be skipped while the tier is down: %+v", rs)
	}
	if rs.RecomputedBlocks == 0 || rs.StageResubmits == 0 {
		t.Fatalf("degraded mode must fall back to recompute: %+v", rs)
	}
	if rs.DegradedWindows != 1 {
		t.Fatalf("degraded windows = %d, want 1: %+v", rs.DegradedWindows, rs)
	}
	if st := ctx.StoreStats(); st.ReplicatedBlocks != 0 || st.RemoteQueue == 0 {
		t.Fatalf("replication must park, not drop, during the outage: %+v", st)
	}

	// Stages 2 and 3 lie past the window: the tier recovers, the parked
	// queue drains, and the second job's outputs replicate too.
	got = collectPairs(t, shuffledDoubles(ctx, 4))
	if len(got) != 20 {
		t.Fatalf("post-outage collect = %v", got)
	}
	ctx.Store().FlushReplication()
	if st := ctx.StoreStats(); st.ReplicatedBlocks == 0 || st.RemoteQueue != 0 {
		t.Fatalf("queue must drain once the window closes: %+v", st)
	}
	reg := ctx.Observer().Metrics()
	if n := reg.CounterTotal("dpspark_remote_degraded_windows_total"); n != 1 {
		t.Fatalf("degraded-window counter = %d, want 1", n)
	}
	if n := reg.CounterTotal("dpspark_remote_recomputed_blocks_total"); n != rs.RecomputedBlocks {
		t.Fatalf("recomputed counter = %d, want %d", n, rs.RecomputedBlocks)
	}
}

// TestRemoteSlowTimeoutFallsBack: a slowdown window dilating remote reads
// past the op timeout exhausts the retry budget (exponential
// backoff) and recovery falls back to recompute.
func TestRemoteSlowTimeoutFallsBack(t *testing.T) {
	conf := remoteConf(t, 0)
	conf.FaultPlan = &FaultPlan{Events: []FaultEvent{
		ExecutorCrash{Stage: 1, Node: 0},
		RemoteSlow{From: 0, Dur: 4, Factor: 1e12},
	}}
	ctx := newContext(t, conf)
	got := collectPairs(t, shuffledDoubles(ctx, 4))
	if len(got) != 20 {
		t.Fatalf("collect = %v", got)
	}
	rs := ctx.RecoveryStats()
	if rs.RemoteRetries == 0 {
		t.Fatalf("dilated reads must time out and retry: %+v", rs)
	}
	if rs.RestoredBlocks != 0 || rs.RecomputedBlocks == 0 {
		t.Fatalf("exhausted retries must fall back to recompute: %+v", rs)
	}
	reg := ctx.Observer().Metrics()
	if n := reg.CounterTotal("dpspark_remote_retries_total"); n != rs.RemoteRetries {
		t.Fatalf("retry counter = %d, want %d", n, rs.RemoteRetries)
	}
	// Timeouts and backoffs are modelled costs, not wall time: each
	// failed attempt charged at least the op timeout.
	if ctx.Breakdown().Recovery < 2*simtime.Second {
		t.Fatalf("timed-out attempts must cost at least one deadline: %+v", ctx.Breakdown())
	}
}

// TestRemoteCorruptReplicaForcesRecompute: damaging a staged block AND
// its replica (the paired selection rule) defeats the restore path; the
// checksum failure on the replica is detected and recovery recomputes.
func TestRemoteCorruptReplicaForcesRecompute(t *testing.T) {
	clean := NewContext(Conf{Cluster: cluster.LocalN(2, 2)})
	want := collectPairs(t, shuffledDoubles(clean, 4))

	conf := remoteConf(t, 0)
	conf.FaultPlan = &FaultPlan{Events: []FaultEvent{
		Corruption{Stage: 1, Block: 1},
		RemoteCorruption{Stage: 1, Block: 1},
	}}
	ctx := newContext(t, conf)
	got := collectPairs(t, shuffledDoubles(ctx, 4))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("corrupt replica changed results: %v vs %v", got, want)
	}
	rs := ctx.RecoveryStats()
	if rs.Corruptions != 1 || rs.RemoteCorruptions != 1 {
		t.Fatalf("both corruption events must fire: %+v", rs)
	}
	if rs.RecomputedBlocks == 0 || rs.StageResubmits == 0 {
		t.Fatalf("a corrupt replica must force the recompute fallback: %+v", rs)
	}
	reg := ctx.Observer().Metrics()
	if n := reg.CounterTotal("dpspark_remote_corrupt_replicas_detected_total"); n == 0 {
		t.Fatal("replica checksum failure went undetected")
	}
}

// TestRemoteFaultPlanRunsAreDeterministic: the remote events join the
// determinism contract — same plan, same clock/counters/event log.
func TestRemoteFaultPlanRunsAreDeterministic(t *testing.T) {
	plan := &FaultPlan{Events: []FaultEvent{
		ExecutorCrash{Stage: 1, Node: 0},
		RemoteSlow{From: 0, Dur: 4, Factor: 2},
	}}
	run := func() (simtime.Duration, RecoveryStats, []StageEvent) {
		conf := remoteConf(t, 0)
		conf.FaultPlan = plan
		ctx := newContext(t, conf)
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
	if r1.RestoredBlocks == 0 {
		t.Fatalf("a gentle slowdown must not defeat the restore: %+v", r1)
	}
}

// TestConfNormalizeRemoteKnobs: the remote tier validates in the same
// single normalize site, and a durable store plus a remote tier pass.
func TestConfNormalizeRemoteKnobs(t *testing.T) {
	base := func() Conf { return Conf{Cluster: cluster.LocalN(2, 2)} }
	t.Run("remote without durable", func(t *testing.T) {
		conf := base()
		conf.RemoteDir = "somewhere"
		err := conf.normalize()
		if err == nil || !strings.Contains(err.Error(), "RemoteDir") {
			t.Fatalf("normalize = %v, want mention of RemoteDir", err)
		}
	})

	t.Run("defaults", func(t *testing.T) {
		conf := base()
		conf.DurableDir = t.TempDir()
		conf.RemoteDir = t.TempDir()
		if err := conf.normalize(); err != nil {
			t.Fatalf("normalize: %v", err)
		}
	})
}

// TestFaultPlanValidateRemoteEvents: malformed remote windows and
// corruption events are rejected; a remote-only plan is not Empty.
func TestFaultPlanValidateRemoteEvents(t *testing.T) {
	cases := []struct {
		name string
		plan FaultPlan
		want string
	}{
		{"outage negative from", FaultPlan{Events: []FaultEvent{RemoteOutage{From: -1, Dur: 1}}}, "RemoteOutage"},
		{"outage zero dur", FaultPlan{Events: []FaultEvent{RemoteOutage{From: 0, Dur: 0}}}, "RemoteOutage"},
		{"slow zero dur", FaultPlan{Events: []FaultEvent{RemoteSlow{From: 0, Dur: 0, Factor: 2}}}, "RemoteSlow"},
		{"slow factor at 1", FaultPlan{Events: []FaultEvent{RemoteSlow{From: 0, Dur: 2, Factor: 1}}}, "factor"},
		{"corruption negative stage", FaultPlan{Events: []FaultEvent{RemoteCorruption{Stage: -1}}}, "RemoteCorruption"},
		{"corruption negative block", FaultPlan{Events: []FaultEvent{RemoteCorruption{Stage: 1, Block: -2}}}, "RemoteCorruption"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.plan.validate(4, 1, false)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("validate = %v, want mention of %q", err, tc.want)
			}
		})
	}
	if (&FaultPlan{Events: []FaultEvent{RemoteOutage{From: 0, Dur: 1}}}).Empty() {
		t.Fatal("a remote-only plan is not empty")
	}
}
