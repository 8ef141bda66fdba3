package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dpspark/internal/obs"
)

func openWithRemote(t *testing.T, budget int64, reg *obs.Registry, policy func(string) bool) (*Store, *FSTier) {
	t.Helper()
	s := open(t, budget, reg)
	tier, err := NewFSTier(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.AttachRemote(tier, policy)
	return s, tier
}

func TestFSTierRoundTrip(t *testing.T) {
	tier, err := NewFSTier(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xC3}, 500)
	if err := tier.Put("shuffle/1/m0/r1", payload); err != nil {
		t.Fatal(err)
	}
	got, err := tier.Get("shuffle/1/m0/r1")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %x, %v", got, err)
	}
	if !tier.Has("shuffle/1/m0/r1") || tier.Has("nope") {
		t.Fatal("Has mismatch")
	}
	if _, err := tier.Get("nope"); err == nil {
		t.Fatal("Get of unknown replica must error")
	}
	if keys := tier.Keys("shuffle/"); len(keys) != 1 || keys[0] != "shuffle/1/m0/r1" {
		t.Fatalf("Keys = %v", keys)
	}
	if err := tier.Delete("shuffle/1/m0/r1"); err != nil {
		t.Fatal(err)
	}
	if tier.Has("shuffle/1/m0/r1") {
		t.Fatal("deleted replica still present")
	}
	if err := tier.Delete("nope"); err != nil {
		t.Fatalf("Delete of unknown key must be a no-op, got %v", err)
	}
}

func TestFSTierCorruptReplica(t *testing.T) {
	for _, torn := range []bool{false, true} {
		t.Run(fmt.Sprintf("torn=%v", torn), func(t *testing.T) {
			tier, err := NewFSTier(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := tier.Put("x", []byte("replica payload bytes")); err != nil {
				t.Fatal(err)
			}
			if !tier.Corrupt("x", torn) {
				t.Fatal("Corrupt returned false")
			}
			_, err = tier.Get("x")
			ce, ok := err.(*CorruptError)
			if !ok {
				t.Fatalf("Get after Corrupt: err = %v, want *CorruptError", err)
			}
			if ce.Torn != torn {
				t.Fatalf("Torn = %v, want %v", ce.Torn, torn)
			}
			if tier.Corrupt("nope", torn) {
				t.Fatal("Corrupt of unknown replica returned true")
			}
		})
	}
}

func TestReplicationPolicyAndFlush(t *testing.T) {
	reg := obs.NewRegistry()
	s, tier := openWithRemote(t, 0, reg, func(key string) bool {
		return key[0] == 's'
	})
	if err := s.Put("s/1", []byte("replicated")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("bc/1", []byte("not replicated")); err != nil {
		t.Fatal(err)
	}
	s.FlushReplication()
	if !tier.Has("s/1") {
		t.Fatal("policy-accepted block not replicated")
	}
	if tier.Has("bc/1") {
		t.Fatal("policy-rejected block replicated")
	}
	st := s.Stats()
	if st.ReplicatedBlocks != 1 || st.RemoteQueue != 0 {
		t.Fatalf("stats after flush: %+v", st)
	}
	if got := reg.CounterTotal("dpspark_remote_replicated_blocks_total"); got != 1 {
		t.Fatalf("replicated counter = %d, want 1", got)
	}
	// Replicas survive local deletion of everything else only via Delete's
	// housekeeping: deleting the local block removes the replica too.
	s.Delete("s/1")
	if tier.Has("s/1") {
		t.Fatal("Delete left the remote replica behind")
	}
}

func TestReplicationParksDuringOutageAndDrains(t *testing.T) {
	s, tier := openWithRemote(t, 0, nil, nil)
	s.SetRemoteAvailable(false)
	for i := 0; i < 3; i++ {
		if err := s.Put(fmt.Sprintf("k/%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// FlushReplication must return immediately (queue parked), not wedge.
	s.FlushReplication()
	if st := s.Stats(); st.RemoteQueue != 3 || st.ReplicatedBlocks != 0 {
		t.Fatalf("parked queue stats: %+v", st)
	}
	if tier.Has("k/0") {
		t.Fatal("replica written while tier down")
	}
	s.SetRemoteAvailable(true)
	s.FlushReplication()
	for i := 0; i < 3; i++ {
		if !tier.Has(fmt.Sprintf("k/%d", i)) {
			t.Fatalf("backlog key k/%d not drained after recovery", i)
		}
	}
	if st := s.Stats(); st.RemoteQueue != 0 || st.ReplicatedBlocks != 3 {
		t.Fatalf("drained queue stats: %+v", st)
	}
}

func TestRestoreFromRemoteRepairsDamagedBlock(t *testing.T) {
	reg := obs.NewRegistry()
	s, _ := openWithRemote(t, 0, reg, nil)
	payload := bytes.Repeat([]byte{0x77}, 300)
	if err := s.Put("blk", payload); err != nil {
		t.Fatal(err)
	}
	s.FlushReplication()
	// Damage the local copy; the store now reports it lost.
	if !s.Corrupt("blk", false) {
		t.Fatal("Corrupt returned false")
	}
	if _, err := s.Get("blk"); err == nil {
		t.Fatal("damaged local block must fail verification")
	}
	n, err := s.RestoreFromRemote("blk")
	if err != nil || n != int64(len(payload)) {
		t.Fatalf("RestoreFromRemote = %d, %v", n, err)
	}
	mustGet(t, s, "blk", payload)
	if !s.InMemory("blk") {
		t.Fatal("restored block not re-installed in the memory tier")
	}
	if st := s.Stats(); st.RemoteRestored != 1 {
		t.Fatalf("RemoteRestored = %d, want 1", st.RemoteRestored)
	}
	if got := reg.CounterTotal("dpspark_remote_restored_blocks_total"); got != 1 {
		t.Fatalf("restored counter = %d, want 1", got)
	}
}

func TestRestoreFromRemoteFailures(t *testing.T) {
	reg := obs.NewRegistry()
	s, tier := openWithRemote(t, 0, reg, nil)
	// Missing replica.
	if _, err := s.RestoreFromRemote("ghost"); err == nil {
		t.Fatal("restore of a never-replicated key must error")
	}
	// Corrupt replica: counted and surfaced as *CorruptError.
	if err := s.Put("bad", []byte("payload that will rot")); err != nil {
		t.Fatal(err)
	}
	s.FlushReplication()
	if !tier.Corrupt("bad", false) {
		t.Fatal("tier.Corrupt returned false")
	}
	if _, err := s.RestoreFromRemote("bad"); err == nil {
		t.Fatal("restore of a corrupt replica must error")
	} else if _, ok := err.(*CorruptError); !ok {
		t.Fatalf("err = %v, want *CorruptError", err)
	}
	if st := s.Stats(); st.RemoteCorruptDetected != 1 {
		t.Fatalf("RemoteCorruptDetected = %d, want 1", st.RemoteCorruptDetected)
	}
	if got := reg.CounterTotal("dpspark_remote_corrupt_replicas_detected_total"); got != 1 {
		t.Fatalf("corrupt-replica counter = %d, want 1", got)
	}
	// Unavailable tier.
	s.SetRemoteAvailable(false)
	if _, err := s.RestoreFromRemote("bad"); err == nil {
		t.Fatal("restore while the tier is down must error")
	}
	// No tier at all.
	bare := open(t, 0, nil)
	if bare.RemoteAttached() || bare.RemoteAvailable() {
		t.Fatal("fresh store claims a remote tier")
	}
	if _, err := bare.RestoreFromRemote("x"); err == nil {
		t.Fatal("restore without a tier must error")
	}
	bare.FlushReplication() // must be a no-op, not a hang
}

func TestAsyncSpillBitIdentityAndDirtyReads(t *testing.T) {
	// Two stores with the same budget and write sequence: the eviction
	// *choices* (Spilled/Evicted counts, which blocks leave memory) are
	// decided synchronously under the lock, so they must match exactly no
	// matter how the background writer's timing floats; and every read —
	// dirty (pinned, awaiting its write), in-flight or on disk — returns
	// the exact bytes that were put.
	blk := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 64+i) }
	run := func() (Stats, *Store) {
		s := open(t, 256, nil)
		for i := 0; i < 16; i++ {
			if err := s.Put(fmt.Sprintf("b/%d", i), blk(i)); err != nil {
				t.Fatal(err)
			}
			// Interleave reads while spills are potentially still queued.
			mustGet(t, s, fmt.Sprintf("b/%d", i/2), blk(i/2))
		}
		s.Flush()
		return s.Stats(), s
	}
	a, _ := run()
	b, s := run()
	if a.Spilled != b.Spilled || a.Evicted != b.Evicted ||
		a.MemBlocks != b.MemBlocks || a.DiskBlocks != b.DiskBlocks {
		t.Fatalf("eviction choice diverged across runs:\n%+v\n%+v", a, b)
	}
	for i := 0; i < 16; i++ {
		mustGet(t, s, fmt.Sprintf("b/%d", i), blk(i))
	}
}

func TestAsyncSpillFlushSettlesQueue(t *testing.T) {
	s := open(t, 128, nil)
	for i := 0; i < 32; i++ {
		if err := s.Put(fmt.Sprintf("q/%d", i), bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	st := s.Stats()
	if st.SpillWall <= 0 {
		t.Fatalf("flushed store recorded no spill wall time: %+v", st)
	}
	if st.MemBytes > 128 {
		t.Fatalf("memory tier over budget after flush: %+v", st)
	}
	// After Flush no block may still be dirty: disk-resident blocks must
	// really be on disk (delete one's file out from under it to prove the
	// read goes to disk, then restore it).
	files, _ := filepath.Glob(filepath.Join(s.dir, "*.blk"))
	if int64(len(files)) != st.DiskBlocks {
		t.Fatalf("%d spill files for %d disk blocks", len(files), st.DiskBlocks)
	}
}

func TestGCCheckpointsRetention(t *testing.T) {
	dir := t.TempDir()
	for id := 1; id <= 5; id++ {
		if err := WriteCheckpoint(dir, id, []byte(fmt.Sprintf(`{"iter":%d}`, id)), []byte("blocks")); err != nil {
			t.Fatal(err)
		}
	}
	deleted := GCCheckpoints(dir, 2)
	if len(deleted) != 3 || deleted[0] != 1 || deleted[2] != 3 {
		t.Fatalf("deleted = %v, want [1 2 3]", deleted)
	}
	if ids := ListCheckpoints(dir); len(ids) != 2 || ids[0] != 4 || ids[1] != 5 {
		t.Fatalf("remaining = %v, want [4 5]", ids)
	}
	// keep <= 0 keeps everything; keep larger than what exists deletes
	// nothing.
	if del := GCCheckpoints(dir, 0); del != nil {
		t.Fatalf("keep=0 deleted %v", del)
	}
	if del := GCCheckpoints(dir, 10); del != nil {
		t.Fatalf("keep=10 deleted %v", del)
	}
}

func TestGCCheckpointsNeverDeletesBeforeNewerVerifies(t *testing.T) {
	dir := t.TempDir()
	for id := 1; id <= 4; id++ {
		if err := WriteCheckpoint(dir, id, []byte(fmt.Sprintf(`{"iter":%d}`, id)), []byte("blocks")); err != nil {
			t.Fatal(err)
		}
	}
	// Damage the two newest: retention keep=2 must fall back to the older
	// intact pair and delete nothing (fewer intact than asked keeps all),
	// then with keep=1 it must retain id 2 (the newest intact) and the
	// damaged-but-newer files for post-mortem.
	for _, id := range []int{3, 4} {
		raw, err := os.ReadFile(ckptFile(dir, id))
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)-6] ^= 0xFF
		if err := os.WriteFile(ckptFile(dir, id), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if del := GCCheckpoints(dir, 3); del != nil {
		t.Fatalf("keep=3 with only 2 intact deleted %v", del)
	}
	deleted := GCCheckpoints(dir, 1)
	if len(deleted) != 1 || deleted[0] != 1 {
		t.Fatalf("deleted = %v, want [1]", deleted)
	}
	ids := ListCheckpoints(dir)
	if len(ids) != 3 || ids[0] != 2 {
		t.Fatalf("remaining = %v, want [2 3 4]", ids)
	}
	if id, _, _, ok := LatestCheckpoint(dir); !ok || id != 2 {
		t.Fatalf("LatestCheckpoint = %d ok=%v, want 2 true", id, ok)
	}
}
