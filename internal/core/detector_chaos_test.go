package core

import (
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"

	"dpspark/internal/cluster"
	"dpspark/internal/matrix"
	"dpspark/internal/rdd"
	"dpspark/internal/semiring"
	"dpspark/internal/simtime"
)

// Failure-detector chaos harness: heartbeat/lease suspicion, detection-
// latency charging and zombie-attempt fencing under false suspicion.
// Every scenario must reproduce the fault-free bits and a deterministic
// modelled clock — the detector changes when losses are *learned*, never
// what the job computes.

// detectorRun executes one n=32, b=8 run under the given Conf (detector
// knobs and fault plan included) and returns the output plus the
// context, for counter assertions.
func detectorRun(t *testing.T, rule semiring.Rule, driver DriverKind, in *matrix.Dense, conf rdd.Conf) (chaosOut, *rdd.Context) {
	t.Helper()
	ctx := newDurableCtx(t, conf)
	cfg := Config{Rule: rule, BlockSize: 8, Driver: driver, Partitions: 8}
	bl := matrix.Block(in, cfg.BlockSize, rule.Pad(), rule.PadDiag())
	out, stats, err := Run(ctx, bl, cfg)
	if err != nil {
		t.Fatalf("Run(%v) under detector chaos: %v", driver, err)
	}
	return chaosOut{dense: out.ToDense(), stats: stats, rs: ctx.RecoveryStats(), event: ctx.Events()}, ctx
}

// detectorConf is the baseline heartbeat detector: 2s lease interval,
// dead after 2 missed leases (4s detection latency).
func detectorConf(plan *rdd.FaultPlan) rdd.Conf {
	return rdd.Conf{
		Cluster:           cluster.LocalN(4, 2),
		FaultPlan:         plan,
		Speculation:       true,
		HeartbeatInterval: 2 * simtime.Second,
	}
}

// TestChaosFalseSuspicionFenced: for FW and GE under both drivers, a
// stop-the-world GC pause longer than the detection latency falsely
// declares an alive executor dead. The scheduler invalidates its map
// outputs and resubmits; the zombie attempt's late commits are fenced
// by the map-output commit lease; the bits match fault-free exactly.
func TestChaosFalseSuspicionFenced(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, rule := range []semiring.Rule{semiring.NewFloydWarshall(), semiring.NewGaussian()} {
		in := randomInput(rule, 32, rng)
		for _, driver := range []DriverKind{IM, CB} {
			clean := chaosRun(t, rule, driver, in, nil)
			// The pause fires at result stage 7, which fetches the shuffle
			// staged at stage 6 — node 1's freshly staged outputs are
			// invalidated exactly when the reduce side needs them.
			plan := &rdd.FaultPlan{Events: []rdd.FaultEvent{rdd.GCPause{Node: 1, From: 7, Dur: 6 * simtime.Second}}}
			chaos, ctx := detectorRun(t, rule, driver, in, detectorConf(plan))

			if !bitIdentical(clean.dense, chaos.dense) {
				t.Fatalf("%s %v: false-suspicion recovery differs from fault-free bits", rule.Name(), driver)
			}
			rs := chaos.rs
			if rs.Suspicions == 0 || rs.FalseSuspicions != 1 {
				t.Fatalf("%s %v: pause must be suspected then falsely declared: %+v", rule.Name(), driver, rs)
			}
			if rs.ExecutorCrashes != 0 {
				t.Fatalf("%s %v: a GC pause is not a crash: %+v", rule.Name(), driver, rs)
			}
			if rs.StageResubmits == 0 || rs.RecomputedMapPartitions == 0 {
				t.Fatalf("%s %v: invalidated outputs must recover via resubmission: %+v", rule.Name(), driver, rs)
			}
			if rs.FencedCommits == 0 {
				t.Fatalf("%s %v: the zombie attempt's commits must be fenced: %+v", rule.Name(), driver, rs)
			}
			st := chaos.stats
			if st.DetectionTime <= 0 {
				t.Fatalf("%s %v: detection latency missing from stats: %+v", rule.Name(), driver, st)
			}
			if st.Suspicions != rs.Suspicions || st.FalseSuspicions != rs.FalseSuspicions || st.FencedCommits != rs.FencedCommits {
				t.Fatalf("%s %v: Stats disagrees with recovery counters: %+v vs %+v", rule.Name(), driver, st, rs)
			}
			reg := ctx.Observer().Metrics()
			if reg.CounterTotal("dpspark_detector_suspicions_total") != rs.Suspicions ||
				reg.CounterTotal("dpspark_detector_false_suspicions_total") != rs.FalseSuspicions ||
				reg.CounterTotal("dpspark_detector_fenced_commits_total") != rs.FencedCommits {
				t.Fatalf("%s %v: detector metrics disagree with counters: %+v", rule.Name(), driver, rs)
			}
			if chaos.stats.Time <= clean.stats.Time {
				t.Fatalf("%s %v: false suspicion must cost time: %v vs %v", rule.Name(), driver, chaos.stats.Time, clean.stats.Time)
			}
			if chaos.stats.Time > 3*clean.stats.Time {
				t.Fatalf("%s %v: recovery overhead unbounded: %v vs %v", rule.Name(), driver, chaos.stats.Time, clean.stats.Time)
			}
		}
	}
}

// TestChaosDetectionLatencyCharged: with the detector on, a real crash
// is learned only after the missed-heartbeat lease runs out — exactly
// two HeartbeatIntervals of modelled clock, attributed to
// DetectionTime, overlapping (never inflating) the phase sum.
func TestChaosDetectionLatencyCharged(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	rule := semiring.NewFloydWarshall()
	in := randomInput(rule, 32, rng)
	plan := &rdd.FaultPlan{Events: []rdd.FaultEvent{rdd.ExecutorCrash{Stage: 7, Node: 1}}}

	instant := chaosRun(t, rule, IM, in, plan)
	detected, _ := detectorRun(t, rule, IM, in, detectorConf(plan))

	if !bitIdentical(instant.dense, detected.dense) {
		t.Fatal("detection latency changed the answer")
	}
	want := 2 * 2 * simtime.Second // misses × interval, one declaring boundary
	if detected.stats.DetectionTime != want {
		t.Fatalf("DetectionTime = %v, want %v", detected.stats.DetectionTime, want)
	}
	if instant.stats.DetectionTime != 0 {
		t.Fatalf("instant detection must charge nothing: %v", instant.stats.DetectionTime)
	}
	if detected.stats.Time <= instant.stats.Time {
		t.Fatalf("waiting out the lease must cost time: %v vs %v", detected.stats.Time, instant.stats.Time)
	}
	st := detected.stats
	sum := st.ComputeTime + st.ShuffleTime + st.BroadcastTime + st.OverheadTime
	if d := (sum - st.Time).Seconds(); d > 1e-9 || d < -1e-9 {
		t.Fatalf("phase sum %v != time %v", sum, st.Time)
	}
	if st.DetectionTime > st.OverheadTime {
		t.Fatalf("detection wait must overlap overhead: %+v", st)
	}
}

// TestChaosDetectorDeterministic: suspicion, false declaration and
// fencing all key off the virtual clock — the same plan replayed
// yields the identical clock, counters, event log and bits.
func TestChaosDetectorDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	rule := semiring.NewFloydWarshall()
	in := randomInput(rule, 32, rng)
	plan := &rdd.FaultPlan{Events: []rdd.FaultEvent{
		rdd.GCPause{Node: 1, From: 7, Dur: 6 * simtime.Second},
		rdd.Partition{Nodes: []int{2}, From: 11, Dur: 5 * simtime.Second},
	}}
	conf := detectorConf(plan)
	a, _ := detectorRun(t, rule, IM, in, conf)
	b, _ := detectorRun(t, rule, IM, in, conf)
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
	if a.rs.FalseSuspicions != 2 {
		t.Fatalf("both stalls must be falsely declared: %+v", a.rs)
	}
}

// fuzzEnvInt reads an integer knob for the nightly chaos-fuzz job from
// the environment, falling back to a fixed default so regular CI runs
// stay deterministic.
func fuzzEnvInt(t *testing.T, key string, def int64) int64 {
	t.Helper()
	env := os.Getenv(key)
	if env == "" {
		return def
	}
	v, err := strconv.ParseInt(env, 10, 64)
	if err != nil {
		t.Fatalf("%s=%q: %v", key, env, err)
	}
	return v
}

// TestChaosFuzz is the nightly chaos-fuzz entry point. DPSPARK_CHAOS_SEED
// (fixed default on regular runs) seeds DPSPARK_CHAOS_ROUNDS rounds of a
// random fault plan mixing crashes, disk losses, stragglers, GC pauses and
// network partitions, all under the heartbeat detector. Whatever the seed
// draws, the run must reproduce the fault-free bits, replay to an
// identical clock/counter/event trajectory, and stay inside the recovery
// overhead budget.
func TestChaosFuzz(t *testing.T) {
	seed := fuzzEnvInt(t, "DPSPARK_CHAOS_SEED", 20260808)
	rounds := int(fuzzEnvInt(t, "DPSPARK_CHAOS_ROUNDS", 1))
	rules := []semiring.Rule{semiring.NewFloydWarshall(), semiring.NewGaussian()}
	drivers := []DriverKind{IM, CB}
	for i := 0; i < rounds; i++ {
		s := seed + int64(i)
		t.Run("seed"+strconv.FormatInt(s, 10), func(t *testing.T) {
			rule, driver := rules[i%2], drivers[(i/2)%2]
			rng := rand.New(rand.NewSource(s))
			in := randomInput(rule, 32, rng)
			// 16 planned stages: 4 iterations × 4 stages at n=32, b=8.
			plan := rdd.RandomFaultPlan(s, 16, 4, 2, 2, 1).
				WithRandomGCPauses(s+1, 16, 4, 2).
				WithRandomPartitions(s+2, 16, 4, 1)
			conf := detectorConf(plan)

			clean := chaosRun(t, rule, driver, in, nil)
			a, _ := detectorRun(t, rule, driver, in, conf)
			b, _ := detectorRun(t, rule, driver, in, conf)

			if !bitIdentical(clean.dense, a.dense) {
				t.Fatalf("%s %v: fuzzed chaos run differs from fault-free bits", rule.Name(), driver)
			}
			if a.stats.Time != b.stats.Time || a.rs != b.rs {
				t.Fatalf("replay diverged:\n%+v\n%+v", a.rs, b.rs)
			}
			if !reflect.DeepEqual(a.event, b.event) {
				t.Fatal("replay event logs differ")
			}
			rs := a.rs
			if rs.ExecutorCrashes == 0 && rs.DiskLosses == 0 {
				t.Fatalf("fuzzed plan fired no hard faults: %+v", rs)
			}
			if rs.Suspicions == 0 {
				t.Fatalf("crashed and stalled nodes must be suspected: %+v", rs)
			}
			limit := 4*clean.stats.Time + a.stats.DetectionTime
			if a.stats.Time > limit {
				t.Fatalf("fuzzed recovery unbounded: %v vs limit %v (clean %v)", a.stats.Time, limit, clean.stats.Time)
			}
		})
	}
}
