package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dpspark/internal/cluster"
	"dpspark/internal/matrix"
	"dpspark/internal/rdd"
	"dpspark/internal/semiring"
	"dpspark/internal/store"
)

// Durable chaos harness: the full FW-APSP and GE runs of the chaos suite
// again, this time with the block store and driver checkpointer wired in
// — staging, spill-to-disk eviction, seeded block corruption and
// kill/resume must all leave the result bits identical to the plain
// in-memory execution.

// durableConf builds a chaos-suite context whose engine stages through a
// durable block store under the given memory budget (0 = unbounded).
func durableConf(dir string, budget int64, plan *rdd.FaultPlan, restore *rdd.EngineState) rdd.Conf {
	return rdd.Conf{
		Cluster:      cluster.LocalN(4, 2),
		FaultPlan:    plan,
		Speculation:  true,
		DurableDir:   dir,
		MemoryBudget: budget,
		SpillCodec:   TileCodec{},
		Restore:      restore,
	}
}

// newDurableCtx is rdd.NewContext plus a Close when the test ends, so the
// store's background writers have stopped before t.TempDir is removed.
func newDurableCtx(t *testing.T, conf rdd.Conf) *rdd.Context {
	t.Helper()
	ctx := rdd.NewContext(conf)
	t.Cleanup(ctx.Close)
	return ctx
}

// durableChaosRun mirrors chaosRun with a durable context.
func durableChaosRun(t *testing.T, rule semiring.Rule, driver DriverKind, in *matrix.Dense,
	conf rdd.Conf, dir string) (chaosOut, *rdd.Context) {
	t.Helper()
	ctx := newDurableCtx(t, conf)
	cfg := Config{Rule: rule, BlockSize: 8, Driver: driver, Partitions: 8, DurableDir: dir}
	bl := matrix.Block(in, cfg.BlockSize, rule.Pad(), rule.PadDiag())
	out, stats, err := Run(ctx, bl, cfg)
	if err != nil {
		t.Fatalf("durable Run(%v): %v", driver, err)
	}
	return chaosOut{dense: out.ToDense(), stats: stats, rs: ctx.RecoveryStats(), event: ctx.Events()}, ctx
}

// TestDurableKillResumeSweep is the kill-at-every-checkpoint-boundary
// sweep: for FW and GE under both drivers, a durable run must (a) match
// the plain run's bits exactly, and (b) be resumable from EVERY saved
// checkpoint boundary — as if the driver had been killed right after
// writing it — with each resumed run reproducing the same final bits.
func TestDurableKillResumeSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, rule := range []semiring.Rule{semiring.NewFloydWarshall(), semiring.NewGaussian()} {
		in := randomInput(rule, 32, rng)
		for _, driver := range []DriverKind{IM, CB} {
			clean := chaosRun(t, rule, driver, in, nil)
			dir := t.TempDir()
			durable, _ := durableChaosRun(t, rule, driver, in, durableConf(dir, 0, nil, nil), dir)
			if !bitIdentical(clean.dense, durable.dense) {
				t.Fatalf("%s %v: durable run differs from plain bits", rule.Name(), driver)
			}
			ids := store.ListCheckpoints(dir)
			if len(ids) != 4 { // r=4, CheckpointEvery 1
				t.Fatalf("%s %v: expected 4 checkpoints, got %v", rule.Name(), driver, ids)
			}
			for _, id := range ids {
				meta, bl, err := LoadCheckpointAt(dir, id)
				if err != nil {
					t.Fatalf("%s %v: load checkpoint %d: %v", rule.Name(), driver, id, err)
				}
				if meta.Iteration != id {
					t.Fatalf("%s %v: checkpoint %d has cursor %d", rule.Name(), driver, id, meta.Iteration)
				}
				ctx := newDurableCtx(t, durableConf(dir, 0, nil, &meta.Engine))
				cfg := Config{Rule: rule, BlockSize: meta.B, Driver: driver,
					Partitions: meta.Partitions, CheckpointEvery: meta.CheckpointEvery, DurableDir: dir}
				out, _, err := Resume(ctx, meta, bl, cfg)
				if err != nil {
					t.Fatalf("%s %v: resume from %d: %v", rule.Name(), driver, id, err)
				}
				if !bitIdentical(clean.dense, out.ToDense()) {
					t.Fatalf("%s %v: resume from checkpoint %d differs from plain bits", rule.Name(), driver, id)
				}
			}
		}
	}
}

// TestDurableResumeUnderFaults kills the driver at every boundary of a
// faulted run: the resumed contexts restore the fired-event flags and
// stage cursors, so the plan's remaining events fire at the same stages
// and the bits still match the fault-free run.
func TestDurableResumeUnderFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	rule := semiring.NewFloydWarshall()
	in := randomInput(rule, 32, rng)
	plan := chaosPlan()
	plan.Events = append(plan.Events, rdd.Corruption{Stage: 7, Block: 0})

	clean := chaosRun(t, rule, IM, in, nil)
	dir := t.TempDir()
	durable, ctx := durableChaosRun(t, rule, IM, in, durableConf(dir, 0, plan, nil), dir)
	if !bitIdentical(clean.dense, durable.dense) {
		t.Fatal("faulted durable run differs from fault-free bits")
	}
	if rs := durable.rs; rs.ExecutorCrashes != 1 || rs.DiskLosses != 1 || rs.Corruptions != 1 {
		t.Fatalf("plan did not fully fire: %+v", rs)
	}
	if n := ctx.Observer().Metrics().CounterTotal("dpspark_corrupt_blocks_detected_total"); n == 0 {
		t.Fatal("corruption must be detected by checksum verification")
	}

	for _, id := range store.ListCheckpoints(dir) {
		meta, bl, err := LoadCheckpointAt(dir, id)
		if err != nil {
			t.Fatalf("load checkpoint %d: %v", id, err)
		}
		rctx := newDurableCtx(t, durableConf(dir, 0, chaosPlanWithCorruption(), &meta.Engine))
		cfg := Config{Rule: rule, BlockSize: meta.B, Driver: IM,
			Partitions: meta.Partitions, CheckpointEvery: meta.CheckpointEvery, DurableDir: dir}
		out, _, err := Resume(rctx, meta, bl, cfg)
		if err != nil {
			t.Fatalf("resume from %d under faults: %v", id, err)
		}
		if !bitIdentical(clean.dense, out.ToDense()) {
			t.Fatalf("faulted resume from checkpoint %d differs from fault-free bits", id)
		}
	}
}

// chaosPlanWithCorruption rebuilds the faulted sweep's plan (each resume
// needs its own copy: fired flags are validated against plan lengths).
func chaosPlanWithCorruption() *rdd.FaultPlan {
	p := chaosPlan()
	p.Events = append(p.Events, rdd.Corruption{Stage: 7, Block: 0})
	return p
}

// TestDurableCorruptionPlusCrash: a seeded block corruption and an
// executor crash in the same run must both recover — corruption detected
// by checksum, repaired through the partial-recompute path — and land on
// the fault-free bits, for both update rules.
func TestDurableCorruptionPlusCrash(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, rule := range []semiring.Rule{semiring.NewFloydWarshall(), semiring.NewGaussian()} {
		in := randomInput(rule, 32, rng)
		clean := chaosRun(t, rule, IM, in, nil)
		dir := t.TempDir()
		plan := &rdd.FaultPlan{Events: []rdd.FaultEvent{
			rdd.ExecutorCrash{Stage: 7, Node: 1},
			rdd.Corruption{Stage: 11, Block: 1, Torn: true},
		}}
		chaos, ctx := durableChaosRun(t, rule, IM, in, durableConf(dir, 0, plan, nil), dir)
		if !bitIdentical(clean.dense, chaos.dense) {
			t.Fatalf("%s: corruption+crash run differs from fault-free bits", rule.Name())
		}
		rs := chaos.rs
		if rs.ExecutorCrashes != 1 || rs.Corruptions != 1 {
			t.Fatalf("%s: both events must fire: %+v", rule.Name(), rs)
		}
		if rs.FetchFailures == 0 || rs.StageResubmits == 0 || rs.RecomputedMapPartitions == 0 {
			t.Fatalf("%s: damage must recover via partial recompute: %+v", rule.Name(), rs)
		}
		st := chaos.stats
		if st.CorruptBlocks == 0 {
			t.Fatalf("%s: corrupt block not detected in store stats: %+v", rule.Name(), st)
		}
		reg := ctx.Observer().Metrics()
		if n := reg.CounterTotal("dpspark_corrupt_blocks_detected_total"); n == 0 {
			t.Fatalf("%s: dpspark_corrupt_blocks_detected_total not incremented", rule.Name())
		}
		if n := reg.CounterTotal("dpspark_spilled_blocks_total"); n == 0 {
			t.Fatalf("%s: corruption forces a spill; dpspark_spilled_blocks_total is 0", rule.Name())
		}
	}
}

// TestDurableEvictionPressure: a tiny memory budget forces heavy
// spill-to-disk eviction; the bits must be identical to the unbounded
// store (and to the plain run) for FW and GE under both drivers, because
// tier placement changes no virtual charge and no record content.
func TestDurableEvictionPressure(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, rule := range []semiring.Rule{semiring.NewFloydWarshall(), semiring.NewGaussian()} {
		in := randomInput(rule, 32, rng)
		for _, driver := range []DriverKind{IM, CB} {
			clean := chaosRun(t, rule, driver, in, nil)
			free, _ := durableChaosRun(t, rule, driver, in, durableConf(t.TempDir(), 0, nil, nil), "")
			dir := t.TempDir()
			tight, ctx := durableChaosRun(t, rule, driver, in, durableConf(dir, 2048, nil, nil), "")
			if !bitIdentical(clean.dense, free.dense) || !bitIdentical(clean.dense, tight.dense) {
				t.Fatalf("%s %v: eviction pressure changed the bits", rule.Name(), driver)
			}
			ss := ctx.StoreStats()
			if ss.Evicted == 0 || ss.Spilled == 0 {
				t.Fatalf("%s %v: 2KiB budget must evict: %+v", rule.Name(), driver, ss)
			}
			if tight.stats.EvictedBlocks != ss.Evicted || tight.stats.SpilledBlocks != ss.Spilled {
				t.Fatalf("%s %v: Stats disagrees with store: %+v vs %+v", rule.Name(), driver, tight.stats, ss)
			}
			if reg := ctx.Observer().Metrics(); reg.CounterTotal("dpspark_evicted_blocks_total") != ss.Evicted {
				t.Fatalf("%s %v: eviction counter mismatch", rule.Name(), driver)
			}
		}
	}
}

// TestDurableStopAfter: StopAfter cleanly stops the loop mid-run, the
// partial table's checkpoint is on disk, and the CLI-style resume (load
// newest, rebuild Config from meta) completes to the full-run bits.
func TestDurableStopAfter(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	rule := semiring.NewGaussian()
	in := randomInput(rule, 32, rng)
	full := chaosRun(t, rule, CB, in, nil)

	dir := t.TempDir()
	ctx := newDurableCtx(t, durableConf(dir, 0, nil, nil))
	cfg := Config{Rule: rule, BlockSize: 8, Driver: CB, Partitions: 8, DurableDir: dir, StopAfter: 2}
	bl := matrix.Block(in, cfg.BlockSize, rule.Pad(), rule.PadDiag())
	if _, _, err := Run(ctx, bl, cfg); err != nil {
		t.Fatalf("stopped run: %v", err)
	}
	meta, tbl, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatalf("LoadCheckpoint after stop: %v", err)
	}
	if meta.Iteration != 2 {
		t.Fatalf("newest checkpoint cursor = %d, want 2", meta.Iteration)
	}
	rctx := newDurableCtx(t, durableConf(dir, 0, nil, &meta.Engine))
	rcfg := Config{Rule: rule, BlockSize: meta.B, Driver: CB,
		Partitions: meta.Partitions, CheckpointEvery: meta.CheckpointEvery, DurableDir: dir}
	out, _, err := Resume(rctx, meta, tbl, rcfg)
	if err != nil {
		t.Fatalf("resume after stop: %v", err)
	}
	if !bitIdentical(full.dense, out.ToDense()) {
		t.Fatal("stop+resume differs from the uninterrupted bits")
	}
}

// TestDurableStopRequested: the cooperative stop hook (the signal
// handler's path) stops the loop at the next iteration boundary and
// forces a durable checkpoint there even off the CheckpointEvery
// cadence, so resume continues from the stop point bit-identically.
func TestDurableStopRequested(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	rule := semiring.NewGaussian()
	in := randomInput(rule, 32, rng)
	full := chaosRun(t, rule, CB, in, nil)

	dir := t.TempDir()
	ctx := newDurableCtx(t, durableConf(dir, 0, nil, nil))
	// The flag flips after the first boundary poll: the run stops at
	// iteration 2 — off the every-3 cadence, so the checkpoint there
	// exists only because the stop forced it.
	var polls int
	cfg := Config{Rule: rule, BlockSize: 8, Driver: CB, Partitions: 8,
		DurableDir: dir, CheckpointEvery: 3,
		StopRequested: func() bool { polls++; return polls > 1 }}
	bl := matrix.Block(in, cfg.BlockSize, rule.Pad(), rule.PadDiag())
	if _, _, err := Run(ctx, bl, cfg); err != nil {
		t.Fatalf("stopped run: %v", err)
	}
	meta, tbl, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatalf("LoadCheckpoint after stop: %v", err)
	}
	if meta.Iteration != 2 {
		t.Fatalf("stop boundary checkpoint cursor = %d, want the forced off-cadence 2", meta.Iteration)
	}
	rctx := newDurableCtx(t, durableConf(dir, 0, nil, &meta.Engine))
	rcfg := Config{Rule: rule, BlockSize: meta.B, Driver: CB,
		Partitions: meta.Partitions, CheckpointEvery: meta.CheckpointEvery, DurableDir: dir}
	out, _, err := Resume(rctx, meta, tbl, rcfg)
	if err != nil {
		t.Fatalf("resume after stop: %v", err)
	}
	if !bitIdentical(full.dense, out.ToDense()) {
		t.Fatal("stop+resume differs from the uninterrupted bits")
	}
}

// TestCheckpointGCRetention: KeepCheckpoints bounds the on-disk
// checkpoint set to the newest K intact boundaries, without changing the
// bits, and the pruned directory still resumes.
func TestCheckpointGCRetention(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	rule := semiring.NewGaussian()
	in := randomInput(rule, 32, rng)
	clean := chaosRun(t, rule, IM, in, nil)

	dir := t.TempDir()
	ctx := newDurableCtx(t, durableConf(dir, 0, nil, nil))
	cfg := Config{Rule: rule, BlockSize: 8, Driver: IM, Partitions: 8,
		DurableDir: dir, KeepCheckpoints: 2}
	bl := matrix.Block(in, cfg.BlockSize, rule.Pad(), rule.PadDiag())
	out, _, err := Run(ctx, bl, cfg)
	if err != nil {
		t.Fatalf("Run with retention: %v", err)
	}
	if !bitIdentical(clean.dense, out.ToDense()) {
		t.Fatal("retention changed the bits")
	}
	// r=4 boundaries were written; only the newest two survive.
	if ids := store.ListCheckpoints(dir); len(ids) != 2 || ids[0] != 3 || ids[1] != 4 {
		t.Fatalf("ListCheckpoints = %v, want [3 4]", ids)
	}

	// The pruned directory resumes from its oldest surviving boundary.
	meta, tbl, err := LoadCheckpointAt(dir, 3)
	if err != nil {
		t.Fatalf("load pruned checkpoint: %v", err)
	}
	rctx := newDurableCtx(t, durableConf(dir, 0, nil, &meta.Engine))
	rcfg := Config{Rule: rule, BlockSize: meta.B, Driver: IM, Partitions: meta.Partitions,
		CheckpointEvery: meta.CheckpointEvery, DurableDir: dir, KeepCheckpoints: 2}
	resumed, _, err := Resume(rctx, meta, tbl, rcfg)
	if err != nil {
		t.Fatalf("resume from pruned dir: %v", err)
	}
	if !bitIdentical(clean.dense, resumed.ToDense()) {
		t.Fatal("resume from pruned dir differs from fault-free bits")
	}

	// The knob validates in core's normalize.
	vctx := rdd.NewContext(rdd.Conf{Cluster: cluster.LocalN(4, 2)})
	vbl := matrix.Block(in, 8, rule.Pad(), rule.PadDiag())
	if _, _, err := Run(vctx, vbl, Config{Rule: rule, BlockSize: 8, KeepCheckpoints: -1}); err == nil {
		t.Fatal("negative KeepCheckpoints must be rejected")
	}
	if _, _, err := Run(vctx, vbl, Config{Rule: rule, BlockSize: 8, KeepCheckpoints: 2}); err == nil {
		t.Fatal("KeepCheckpoints without DurableDir must be rejected")
	}
}

// TestCheckpointGCCrashWindowResume: a driver killed after writing a new
// boundary but before GC finished deleting an old one leaves a stale
// checkpoint behind; the restarted driver still resumes from the newest
// boundary and its next retention pass sweeps the leftover.
func TestCheckpointGCCrashWindowResume(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	rule := semiring.NewFloydWarshall()
	in := randomInput(rule, 32, rng)
	clean := chaosRun(t, rule, IM, in, nil)

	runInto := func(dir string, keep int) {
		ctx := newDurableCtx(t, durableConf(dir, 0, nil, nil))
		cfg := Config{Rule: rule, BlockSize: 8, Driver: IM, Partitions: 8,
			DurableDir: dir, KeepCheckpoints: keep}
		bl := matrix.Block(in, cfg.BlockSize, rule.Pad(), rule.PadDiag())
		if _, _, err := Run(ctx, bl, cfg); err != nil {
			t.Fatalf("run into %s: %v", dir, err)
		}
	}
	keepAll, pruned := t.TempDir(), t.TempDir()
	runInto(keepAll, 0)
	runInto(pruned, 2)

	// Reconstruct the crash window: boundary 1 (deleted by the pruned
	// run's GC) reappears next to the surviving [3 4].
	stale := fmt.Sprintf("ckpt-%06d.ck", 1)
	raw, err := os.ReadFile(filepath.Join(keepAll, stale))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(pruned, stale), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// The restarted driver ignores the stale boundary: newest wins.
	meta, tbl, err := LoadCheckpoint(pruned)
	if err != nil {
		t.Fatalf("load after crash window: %v", err)
	}
	if meta.Iteration != 4 {
		t.Fatalf("newest checkpoint cursor = %d, want 4", meta.Iteration)
	}
	// Resume one iteration earlier so a boundary persists and retention
	// runs again — the stale file must be gone afterwards.
	meta, tbl, err = LoadCheckpointAt(pruned, 3)
	if err != nil {
		t.Fatal(err)
	}
	rctx := newDurableCtx(t, durableConf(pruned, 0, nil, &meta.Engine))
	rcfg := Config{Rule: rule, BlockSize: meta.B, Driver: IM, Partitions: meta.Partitions,
		CheckpointEvery: meta.CheckpointEvery, DurableDir: pruned, KeepCheckpoints: 2}
	out, _, err := Resume(rctx, meta, tbl, rcfg)
	if err != nil {
		t.Fatalf("resume across the crash window: %v", err)
	}
	if !bitIdentical(clean.dense, out.ToDense()) {
		t.Fatal("crash-window resume differs from fault-free bits")
	}
	if ids := store.ListCheckpoints(pruned); len(ids) != 2 || ids[0] != 3 || ids[1] != 4 {
		t.Fatalf("stale checkpoint not swept: %v", ids)
	}
}

// TestResumeValidation: Resume refuses mismatched rule, driver,
// partitions or cadence, and core's normalize rejects the new knobs'
// invalid values.
func TestResumeValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	rule := semiring.NewFloydWarshall()
	in := randomInput(rule, 32, rng)
	dir := t.TempDir()
	durableChaosRun(t, rule, IM, in, durableConf(dir, 0, nil, nil), dir)
	meta, bl, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}

	try := func(name string, mutate func(*Config)) {
		ctx := newDurableCtx(t, durableConf(t.TempDir(), 0, nil, &meta.Engine))
		cfg := Config{Rule: rule, BlockSize: meta.B, Driver: IM,
			Partitions: meta.Partitions, CheckpointEvery: meta.CheckpointEvery}
		mutate(&cfg)
		if _, _, err := Resume(ctx, meta, bl.Clone(), cfg); err == nil {
			t.Fatalf("%s: Resume must reject the mismatch", name)
		}
	}
	try("rule", func(c *Config) { c.Rule = semiring.NewGaussian() })
	try("driver", func(c *Config) { c.Driver = CB })
	try("partitions", func(c *Config) { c.Partitions = 4 })
	try("cadence", func(c *Config) { c.CheckpointEvery = 2 })

	ctx := rdd.NewContext(rdd.Conf{Cluster: cluster.LocalN(4, 2)})
	blk := matrix.Block(in, 8, rule.Pad(), rule.PadDiag())
	if _, _, err := Run(ctx, blk, Config{Rule: rule, BlockSize: 8, StopAfter: -1}); err == nil {
		t.Fatal("negative StopAfter must be rejected")
	}
}

// TestEngineStateParentFormatRefused: a checkpoint whose engine section
// carries the per-kind fired arrays older binaries wrote must fail to load,
// naming the key — silently dropping it would re-fire events that already
// fired. (The serve layer answers any load error with a clean re-run.)
func TestEngineStateParentFormatRefused(t *testing.T) {
	rule := semiring.NewFloydWarshall()
	in := randomInput(rule, 32, rand.New(rand.NewSource(27)))
	dir := t.TempDir()
	durableChaosRun(t, rule, IM, in, durableConf(dir, 0, nil, nil), dir)
	id, meta, blocks, ok := store.LatestCheckpoint(dir)
	if !ok {
		t.Fatal("no checkpoint written")
	}
	old := strings.Replace(string(meta), `"engine":{`, `"engine":{"crash_fired":[true],`, 1)
	if old == string(meta) {
		t.Fatalf("meta has no engine section: %s", meta)
	}
	parent := t.TempDir()
	if err := store.WriteCheckpoint(parent, id, []byte(old), blocks); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCheckpoint(parent); err == nil || !strings.Contains(err.Error(), "crash_fired") {
		t.Fatalf("LoadCheckpoint = %v, want a refusal naming crash_fired", err)
	}
	if _, _, err := LoadCheckpoint(dir); err != nil {
		t.Fatalf("the checkpoint as written must load: %v", err)
	}
}
