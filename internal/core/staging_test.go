package core

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"dpspark/internal/cluster"
	"dpspark/internal/matrix"
	"dpspark/internal/rdd"
	"dpspark/internal/semiring"
	"dpspark/internal/simtime"
	"dpspark/internal/store"
)

// In-task staging under faults, and the on-disk formats it must not move.

// killOnceCodec is TileCodec, except that the first Append of a bucket
// holding the grid block at coordinate at panics right after encoding it:
// the map task holding that block dies with encoded buckets in hand. A
// coordinate is emitted by exactly one task per stage, so the victim is
// the same task every run.
type killOnceCodec struct {
	TileCodec
	at     matrix.Coord
	killed *atomic.Bool
}

func (c killOnceCodec) Append(dst []byte, bucket rdd.Bucket) ([]byte, bool) {
	dst, ok := c.TileCodec.Append(dst, bucket)
	blocks, isBlocks := bucket.([]Block)
	if ok && isBlocks && slices.ContainsFunc(blocks, func(b Block) bool { return b.Key == c.at }) && c.killed.CompareAndSwap(false, true) {
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

// tileOnceCodec is TileCodec checking every bucket it stages: the block
// decodes to records that share tiles exactly where the bucket's records
// do — so each distinct tile is written in full once — and carry their
// generation tags. Append runs in the map tasks, so failures are kept
// for the test goroutine.
type tileOnceCodec struct {
	TileCodec
	blocks, records, full *atomic.Int64
	failure               *atomic.Pointer[string]
}

func (c tileOnceCodec) Append(dst []byte, bucket rdd.Bucket) ([]byte, bool) {
	start := len(dst)
	dst, ok := c.TileCodec.Append(dst, bucket)
	if !ok {
		return dst, ok
	}
	want, empty := bucketTiles(bucket)
	dec, err := c.TileCodec.Decode(dst[start:], empty)
	var msg string
	if err != nil {
		msg = err.Error()
	} else {
		got, _ := bucketTiles(dec)
		msg = sharingMismatch(want, got)
		distinct := make(map[*matrix.Tile]bool)
		for _, t := range got {
			distinct[t] = true
		}
		c.full.Add(int64(len(distinct)))
	}
	if msg != "" {
		c.failure.CompareAndSwap(nil, &msg)
	}
	c.blocks.Add(1)
	c.records.Add(int64(len(want)))
	return dst, ok
}

// TestIMDurableBlocksCarryEachTileOnce: an IM durable run whose 2 KiB
// budget sends every staged block through the disk tier writes each tile
// in full at most once per block — the repeats are back-references — and
// lands on the bits of a run without a store.
func TestIMDurableBlocksCarryEachTileOnce(t *testing.T) {
	rule := semiring.NewFloydWarshall()
	in := randomInput(rule, 256, rand.New(rand.NewSource(54)))
	cfg := Config{Rule: rule, BlockSize: 32, Driver: IM}
	run := func(conf rdd.Conf) *matrix.Dense {
		ctx := newDurableCtx(t, conf)
		out, _, err := Run(ctx, matrix.Block(in, cfg.BlockSize, rule.Pad(), rule.PadDiag()), cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return out.ToDense()
	}
	want := run(rdd.Conf{Cluster: cluster.LocalN(4, 2)})

	codec := tileOnceCodec{blocks: new(atomic.Int64), records: new(atomic.Int64), full: new(atomic.Int64),
		failure: new(atomic.Pointer[string])}
	conf := durableConf(t.TempDir(), 2048, nil, nil)
	conf.SpillCodec = codec
	if !bitIdentical(want, run(conf)) {
		t.Fatal("durable run differs from the run without a store")
	}
	if msg := codec.failure.Load(); msg != nil {
		t.Fatalf("a staged block does not carry its bucket's tiles once each: %s", *msg)
	}
	blocks, records, full := codec.blocks.Load(), codec.records.Load(), codec.full.Load()
	if full >= records {
		t.Fatalf("%d blocks, %d records, %d tiles in full: no bucket repeated a tile", blocks, records, full)
	}
	t.Logf("%d blocks, %d records, %d tiles in full", blocks, records, full)
}

// TestStagedSharedTilesDecodeFromDisk: a tile sent to several consumers
// in one reduce partition is staged once in that bucket's block; once the
// block lives on disk the engine's read decodes it, and those consumers
// share one decoded tile with the original's bits and generation tag —
// the records of the in-place read, sharing only within a bucket.
func TestStagedSharedTilesDecodeFromDisk(t *testing.T) {
	ctx := newDurableCtx(t, durableConf(t.TempDir(), 0, nil, nil))
	tiles := []*matrix.Tile{codecTile(4, false, 1), codecTile(4, false, 2), codecTile(4, true, 3)}
	tiles[0].SetGen(7)
	var recs []rdd.Pair[matrix.Coord, Msg]
	for i := range 12 {
		recs = append(recs, rdd.KV(matrix.Coord{I: i, J: i % 5}, Msg{RoleRow, tiles[i%3]}))
	}
	part := rdd.NewHashPartitioner(3)
	// One map partition: each reduce partition reads exactly one bucket.
	sh := rdd.PartitionBy(rdd.Parallelize(ctx, recs, 1), part)
	inPlace, err := sh.Collect()
	if err != nil {
		t.Fatal(err)
	}
	keys := ctx.Store().Keys("shuffle/")
	for _, key := range keys {
		if err := ctx.Store().Spill(key); err != nil {
			t.Fatal(err)
		}
	}
	decoded, err := sh.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != part.NumPartitions() || len(decoded) != len(inPlace) {
		t.Fatalf("%d blocks, %d decoded records; want %d and %d", len(keys), len(decoded), part.NumPartitions(), len(inPlace))
	}
	shared := 0
	for i, d := range decoded {
		w := inPlace[i]
		if d.Key != w.Key || d.Value.Role != w.Value.Role || !bytes.Equal(matrix.EncodeTile(d.Value.Tile), matrix.EncodeTile(w.Value.Tile)) {
			t.Fatalf("record %d: decoded %v/%v differs from the in-place read %v/%v", i, d.Key, d.Value.Role, w.Key, w.Value.Role)
		}
		if d.Value.Tile == w.Value.Tile {
			t.Fatalf("record %d was read in place, not decoded", i)
		}
		for j := range i {
			want := w.Value.Tile == inPlace[j].Value.Tile && part.Partition(w.Key) == part.Partition(inPlace[j].Key)
			if got := d.Value.Tile == decoded[j].Value.Tile; got != want {
				t.Fatalf("records %d and %d: decoded share a tile = %v, want %v", j, i, got, want)
			}
			if want {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Fatal("no bucket repeated a tile")
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
