package core

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"dpspark/internal/matrix"
	"dpspark/internal/rdd"
	"dpspark/internal/semiring"
	"dpspark/internal/simtime"
	"dpspark/internal/store"
)

// In-task staging under faults, and the on-disk formats it must not move.

// killOnceCodec is TileCodec, except that the first Append of a grid block
// at coordinate at panics right after encoding it: the map task holding
// that block dies with encoded buckets in hand. A coordinate is emitted by
// exactly one task per stage, so the victim is the same task every run.
type killOnceCodec struct {
	TileCodec
	at     matrix.Coord
	killed *atomic.Bool
}

func (c killOnceCodec) Append(dst []byte, rec rdd.Record) ([]byte, bool) {
	dst, ok := c.TileCodec.Append(dst, rec)
	if b, isBlock := rec.(Block); ok && isBlock && b.Key == c.at && c.killed.CompareAndSwap(false, true) {
		panic("killOnceCodec: map task killed after encoding")
	}
	return dst, ok
}

// TestDurableStagingChaosBitIdentical: one seeded plan that falsely
// suspects an executor (zombie commits to fence) and corrupts a staged
// block, run three ways — in memory, durable, and durable with a map task
// killed after it encoded. All three must land on the fault-free bits and
// fence the same zombie commits, and the killed task's retry must
// leave exactly the blocks of the run that was not killed.
func TestDurableStagingChaosBitIdentical(t *testing.T) {
	rule := semiring.NewFloydWarshall()
	in := randomInput(rule, 32, rand.New(rand.NewSource(29)))
	clean := chaosRun(t, rule, IM, in, nil)

	plan := func() *rdd.FaultPlan {
		return &rdd.FaultPlan{Events: []rdd.FaultEvent{
			rdd.GCPause{Node: 1, From: 7, Dur: 6 * simtime.Second},
			rdd.Corruption{Stage: 11, Block: 1},
		}}
	}
	detector := func(conf rdd.Conf) rdd.Conf {
		conf.HeartbeatInterval = 2 * simtime.Second
		return conf
	}
	// Without a store the corruption event has nothing to damage.
	mem, _ := detectorRun(t, rule, IM, in, detectorConf(plan()))

	// A 2 KiB budget keeps every staged tile moving through the disk tier.
	durable, dctx := detectorRun(t, rule, IM, in, detector(durableConf(t.TempDir(), 2048, plan(), nil)))

	kconf := detector(durableConf(t.TempDir(), 2048, plan(), nil))
	killed := new(atomic.Bool)
	kconf.SpillCodec = killOnceCodec{at: matrix.Coord{I: 2, J: 1}, killed: killed}
	kill, kctx := detectorRun(t, rule, IM, in, kconf)
	if !killed.Load() {
		t.Fatal("the kill never fired")
	}

	for name, out := range map[string]chaosOut{"in-memory": mem, "durable": durable, "durable+kill": kill} {
		if !bitIdentical(clean.dense, out.dense) {
			t.Fatalf("%s run differs from fault-free bits", name)
		}
		if out.rs.FalseSuspicions != 1 {
			t.Fatalf("%s: the GC pause must be falsely declared dead once: %+v", name, out.rs)
		}
		// 2 is what this plan fenced before the encode moved into the task.
		if out.rs.FencedCommits != 2 {
			t.Fatalf("%s: FencedCommits = %d, want 2", name, out.rs.FencedCommits)
		}
	}
	if durable.rs.Corruptions != 1 || kill.rs.Corruptions != 1 || mem.rs.Corruptions != 0 {
		t.Fatalf("corruption must fire exactly when a store exists: %d / %d / %d",
			mem.rs.Corruptions, durable.rs.Corruptions, kill.rs.Corruptions)
	}
	if kill.stats.ShuffleBytes != durable.stats.ShuffleBytes {
		t.Fatalf("ShuffleBytes: killed run %d, durable run %d", kill.stats.ShuffleBytes, durable.stats.ShuffleBytes)
	}
	if kill.rs.TaskRetries != durable.rs.TaskRetries+1 {
		t.Fatalf("the kill must cost exactly one task retry: %d vs %d", kill.rs.TaskRetries, durable.rs.TaskRetries)
	}

	// No leak, no double staging: both stores hold the same live blocks,
	// every one of them verifies, and the tier accounting agrees.
	dkeys, kkeys := dctx.Store().Keys("shuffle/"), kctx.Store().Keys("shuffle/")
	if len(dkeys) == 0 || !reflect.DeepEqual(dkeys, kkeys) {
		t.Fatalf("staged block sets differ: %d vs %d keys", len(dkeys), len(kkeys))
	}
	for _, key := range kkeys {
		want, err := dctx.Store().Get(key)
		if err != nil {
			t.Fatalf("durable run: block %q: %v", key, err)
		}
		got, err := kctx.Store().Get(key)
		if err != nil {
			t.Fatalf("killed run: block %q: %v", key, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %q differs between the killed and the clean durable run", key)
		}
	}
	ds, ks := dctx.StoreStats(), kctx.StoreStats()
	if ds.MemBlocks+ds.DiskBlocks != ks.MemBlocks+ks.DiskBlocks || ds.MemBytes+ds.DiskBytes != ks.MemBytes+ks.DiskBytes {
		t.Fatalf("store contents differ: %+v vs %+v", ds, ks)
	}
}

// TestCheckpointFormatGolden pins the checkpoint file format against a
// file written by the commit before the encode moved (testdata): the same
// run must write the same bytes, and the old file must resume to the
// uninterrupted run's bits. Together: either side's checkpoints resume
// under the other.
func TestCheckpointFormatGolden(t *testing.T) {
	const goldenDir, id = "testdata/golden-fw-im-n24-b8", 2
	golden, err := os.ReadFile(filepath.Join(goldenDir, "ckpt-000002.ck"))
	if err != nil {
		t.Fatal(err)
	}
	rule := semiring.NewFloydWarshall()
	in := randomInput(rule, 24, rand.New(rand.NewSource(77)))
	dir := t.TempDir()
	full, _ := durableChaosRun(t, rule, IM, in, durableConf(dir, 0, nil, nil), dir)
	written, err := os.ReadFile(filepath.Join(dir, "ckpt-000002.ck"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, golden) {
		t.Fatalf("checkpoint %d is %d bytes and differs from the %d-byte golden file", id, len(written), len(golden))
	}

	// Resume from a copy of the golden file (Resume writes later
	// checkpoints next to it).
	old := t.TempDir()
	if err := os.WriteFile(filepath.Join(old, "ckpt-000002.ck"), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	meta, bl, err := LoadCheckpointAt(old, id)
	if err != nil {
		t.Fatalf("golden checkpoint does not load: %v", err)
	}
	ctx := newDurableCtx(t, durableConf(old, 0, nil, &meta.Engine))
	out, _, err := Resume(ctx, meta, bl, Config{Rule: rule, BlockSize: meta.B, Driver: IM,
		Partitions: meta.Partitions, CheckpointEvery: meta.CheckpointEvery, DurableDir: old})
	if err != nil {
		t.Fatalf("resume from the golden checkpoint: %v", err)
	}
	if !bitIdentical(full.dense, out.ToDense()) {
		t.Fatal("resume from the golden checkpoint differs from the uninterrupted run")
	}
	if ids := store.ListCheckpoints(old); len(ids) != 2 || ids[1] != 3 {
		t.Fatalf("resumed run's checkpoints = %v, want [2 3]", ids)
	}
}
