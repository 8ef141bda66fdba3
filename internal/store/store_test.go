package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dpspark/internal/obs"
)

func open(t *testing.T, budget int64, reg *obs.Registry) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), Options{MemoryBudget: budget, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Registered after TempDir, so the background spill writer has
	// exited before the directory is removed.
	t.Cleanup(s.Close)
	return s
}

func mustGet(t *testing.T, s *Store, key string, want []byte) {
	t.Helper()
	got, err := s.Get(key)
	if err != nil {
		t.Fatalf("Get(%q): %v", key, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Get(%q) = %x, want %x", key, got, want)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	s := open(t, 0, nil)
	payloads := map[string][]byte{
		"shuffle/3/p0": []byte("alpha"),
		"shuffle/3/p1": {},
		"bc/1":         bytes.Repeat([]byte{0xAB}, 4096),
	}
	for k, v := range payloads {
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	for k, v := range payloads {
		mustGet(t, s, k, v)
		if !s.InMemory(k) {
			t.Fatalf("%q spilled under unbounded budget", k)
		}
	}
	if _, err := s.Get("missing"); err == nil {
		t.Fatal("Get of unknown key must error")
	}
	if s.Has("missing") {
		t.Fatal("Has(missing) = true")
	}
}

func TestStoreEvictionUnderBudget(t *testing.T) {
	reg := obs.NewRegistry()
	s := open(t, 256, reg)
	blk := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 100) }
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("b/%d", i), blk(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Settle the async spill writer so SpillWall covers every queued write.
	s.Flush()
	st := s.Stats()
	if st.MemBytes > 256 {
		t.Fatalf("memory tier %d bytes over budget 256", st.MemBytes)
	}
	if st.Evicted == 0 || st.Spilled == 0 {
		t.Fatalf("expected evictions and spills, got %+v", st)
	}
	if got := reg.CounterTotal("dpspark_evicted_blocks_total"); got != st.Evicted {
		t.Fatalf("evicted counter %d != stats %d", got, st.Evicted)
	}
	if got := reg.CounterTotal("dpspark_spilled_blocks_total"); got != st.Spilled {
		t.Fatalf("spilled counter %d != stats %d", got, st.Spilled)
	}
	// Every block — memory- or disk-resident — must read back exactly.
	for i := 0; i < 5; i++ {
		mustGet(t, s, fmt.Sprintf("b/%d", i), blk(i))
	}
	// LRU order: b/0 was written first and never touched before the
	// re-reads above, so it must have been among the spilled ones.
	if s.InMemory("b/0") {
		t.Fatal("oldest block survived eviction in memory")
	}
	if st.SpillWall <= 0 {
		t.Fatalf("spill wall time not recorded: %v", st.SpillWall)
	}
}

func TestStoreSingleBlockOverBudget(t *testing.T) {
	s := open(t, 10, nil)
	big := bytes.Repeat([]byte{7}, 100)
	if err := s.Put("big", big); err != nil {
		t.Fatal(err)
	}
	if s.InMemory("big") {
		t.Fatal("block larger than the whole budget stayed in memory")
	}
	mustGet(t, s, "big", big)
}

func TestStoreCorruptionDetected(t *testing.T) {
	for _, torn := range []bool{false, true} {
		t.Run(fmt.Sprintf("torn=%v", torn), func(t *testing.T) {
			reg := obs.NewRegistry()
			s := open(t, 0, reg)
			if err := s.Put("x", []byte("some block payload")); err != nil {
				t.Fatal(err)
			}
			if !s.Corrupt("x", torn) {
				t.Fatal("Corrupt returned false")
			}
			if s.InMemory("x") {
				t.Fatal("corrupted block still memory-resident")
			}
			_, err := s.Get("x")
			ce, ok := err.(*CorruptError)
			if !ok {
				t.Fatalf("Get after Corrupt: err = %v, want *CorruptError", err)
			}
			if ce.Torn != torn {
				t.Fatalf("Torn = %v, want %v", ce.Torn, torn)
			}
			if got := reg.CounterTotal("dpspark_corrupt_blocks_detected_total"); got != 1 {
				t.Fatalf("corrupt counter = %d, want 1", got)
			}
			// Recovery path: recompute overwrites the damaged block.
			if err := s.Put("x", []byte("recomputed")); err != nil {
				t.Fatal(err)
			}
			mustGet(t, s, "x", []byte("recomputed"))
		})
	}
}

// TestStoreResident: Resident is true exactly while a Get would be served
// from memory — the memory tier (touching LRU as Get does) or bytes pinned
// for the spill writer — and false for a block on disk, a corrupted one,
// or a key the store does not hold.
func TestStoreResident(t *testing.T) {
	blk := bytes.Repeat([]byte{1}, 100)
	t.Run("memory tier touches LRU like Get", func(t *testing.T) {
		// Two stores fill to the budget and touch their oldest block, one
		// with Get and one with Resident; the next Put must evict the same
		// victim from both.
		victims := func(touch func(s *Store)) []bool {
			s := open(t, 300, nil)
			for _, k := range []string{"a", "b", "c"} {
				if err := s.Put(k, blk); err != nil {
					t.Fatal(err)
				}
			}
			touch(s)
			if err := s.Put("d", blk); err != nil {
				t.Fatal(err)
			}
			return []bool{s.InMemory("a"), s.InMemory("b"), s.InMemory("c"), s.InMemory("d")}
		}
		want := victims(func(s *Store) { mustGet(t, s, "a", blk) })
		got := victims(func(s *Store) {
			if !s.Resident("a") {
				t.Fatal("memory-tier block not resident")
			}
		})
		if fmt.Sprint(got) != fmt.Sprint(want) || !got[0] || got[1] {
			t.Fatalf("in memory after Resident %v, after Get %v; want a kept and b evicted", got, want)
		}
	})
	t.Run("pinned, then on disk", func(t *testing.T) {
		s := open(t, 50, nil)
		// Claim the writer's slot so no writer starts: the evicted block
		// stays pinned until the loop below is started by hand.
		s.mu.Lock()
		s.spillWorker = true
		s.mu.Unlock()
		if err := s.Put("a", blk); err != nil {
			t.Fatal(err)
		}
		if s.InMemory("a") || !s.Resident("a") {
			t.Fatalf("pinned block: InMemory %v, Resident %v; want false, true", s.InMemory("a"), s.Resident("a"))
		}
		go s.spillWorkerLoop()
		s.Flush()
		if s.Resident("a") {
			t.Fatal("block on disk reported resident")
		}
		mustGet(t, s, "a", blk)
	})
	t.Run("corrupted, deleted, unknown", func(t *testing.T) {
		s := open(t, 0, nil)
		for _, k := range []string{"x", "y"} {
			if err := s.Put(k, blk); err != nil {
				t.Fatal(err)
			}
		}
		if !s.Resident("x") {
			t.Fatal("fresh block not resident")
		}
		if !s.Corrupt("x", false) {
			t.Fatal("Corrupt returned false")
		}
		s.Delete("y")
		for _, k := range []string{"x", "y", "nope"} {
			if s.Resident(k) {
				t.Errorf("Resident(%q) = true", k)
			}
		}
	})
}

func TestStoreCorruptUnknownKey(t *testing.T) {
	s := open(t, 0, nil)
	if s.Corrupt("nope", false) {
		t.Fatal("Corrupt of unknown key returned true")
	}
}

func TestStoreDeleteAndPrefix(t *testing.T) {
	s := open(t, 0, nil)
	for _, k := range []string{"sh/1/a", "sh/1/b", "sh/2/a", "bc/1"} {
		if err := s.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Spill("sh/1/a"); err != nil { // one victim on disk
		t.Fatal(err)
	}
	if n := s.DeletePrefix("sh/1/"); n != 2 {
		t.Fatalf("DeletePrefix removed %d, want 2", n)
	}
	if got := s.Keys("sh/"); len(got) != 1 || got[0] != "sh/2/a" {
		t.Fatalf("Keys(sh/) = %v", got)
	}
	s.Delete("bc/1")
	if s.Has("bc/1") {
		t.Fatal("deleted key still present")
	}
	// The spilled victim's file must be gone too.
	files, _ := filepath.Glob(filepath.Join(s.dir, "*.blk"))
	if len(files) != 0 {
		t.Fatalf("stray spill files after delete: %v", files)
	}
	st := s.Stats()
	if st.DiskBlocks != 0 || st.DiskBytes != 0 {
		t.Fatalf("disk tier not empty after deletes: %+v", st)
	}
}

func TestStoreKeySanitization(t *testing.T) {
	s := open(t, 0, nil)
	keys := []string{"a/b", "a_b", "a%2fb", "weird key\n!", "ünïcode"}
	for i, k := range keys {
		if err := s.Put(k, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if err := s.Spill(k); err != nil {
			t.Fatal(err)
		}
	}
	// Injective mapping: every key must land in a distinct file and read
	// back its own payload.
	for i, k := range keys {
		mustGet(t, s, k, []byte{byte(i)})
	}
	files, _ := filepath.Glob(filepath.Join(s.dir, "*.blk"))
	if len(files) != len(keys) {
		t.Fatalf("%d spill files for %d keys", len(files), len(keys))
	}
}

func TestStoreConcurrent(t *testing.T) {
	s := open(t, 2048, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := fmt.Sprintf("g%d/k%d", g, i%10)
				payload := bytes.Repeat([]byte{byte(g)}, 64+i)
				if err := s.Put(k, payload); err != nil {
					panic(err)
				}
				if got, err := s.Get(k); err == nil && len(got) > 0 && got[0] != byte(g) {
					panic("cross-goroutine payload mixup")
				}
				s.Keys(fmt.Sprintf("g%d/", g))
			}
		}(g)
	}
	wg.Wait()
}

// TestStoreClose: Close drains the background writer (every evicted
// block's file is on disk when it returns), refuses later Puts, leaves
// stored blocks readable, and may be called again — also while other
// goroutines are still putting.
func TestStoreClose(t *testing.T) {
	s := open(t, 128, nil)
	for i := 0; i < 32; i++ {
		if err := s.Put(fmt.Sprintf("c/%d", i), bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	st := s.Stats()
	if st.Spilled == 0 {
		t.Fatalf("Close left work undone: %+v", st)
	}
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("c/%d", i)
		if !s.InMemory(key) {
			if _, err := os.Stat(s.fileFor(key)); err != nil {
				t.Fatalf("evicted block %q not on disk after Close: %v", key, err)
			}
		}
		mustGet(t, s, key, bytes.Repeat([]byte{byte(i)}, 100))
	}
	if err := s.Put("late", []byte("x")); err == nil {
		t.Fatal("Put after Close must fail")
	}
	s.Close() // idempotent

	// Close racing writers: every Put either lands or is refused, and no
	// background writer is left running afterwards.
	r := open(t, 64, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := r.Put(fmt.Sprintf("g%d/%d", g, i%8), bytes.Repeat([]byte{byte(g)}, 48)); err != nil {
					return // closed under us
				}
			}
		}(g)
	}
	r.Close()
	wg.Wait()
	r.mu.Lock()
	running := r.spillWorker || len(r.spillQ) > 0
	r.mu.Unlock()
	if running {
		t.Fatal("a background writer outlived Close")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	meta := []byte(`{"iter":3}`)
	blocks := bytes.Repeat([]byte{0x5A}, 1000)
	if err := WriteCheckpoint(dir, 3, meta, blocks); err != nil {
		t.Fatal(err)
	}
	m, b, err := ReadCheckpoint(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m, meta) || !bytes.Equal(b, blocks) {
		t.Fatal("checkpoint round trip mismatch")
	}
	// Overwrite with new content at the same id.
	if err := WriteCheckpoint(dir, 3, []byte(`{"iter":3,"v":2}`), blocks); err != nil {
		t.Fatal(err)
	}
	m, _, err = ReadCheckpoint(dir, 3)
	if err != nil || !bytes.Contains(m, []byte(`"v":2`)) {
		t.Fatalf("overwrite not visible: %s %v", m, err)
	}
}

func TestLatestCheckpointSkipsDamaged(t *testing.T) {
	dir := t.TempDir()
	for id := 1; id <= 3; id++ {
		meta := []byte(fmt.Sprintf(`{"iter":%d}`, id))
		if err := WriteCheckpoint(dir, id, meta, []byte("blocks")); err != nil {
			t.Fatal(err)
		}
	}
	// Tear checkpoint 3 and bit-flip checkpoint 2; only 1 stays valid.
	p3 := ckptFile(dir, 3)
	info, _ := os.Stat(p3)
	if err := os.Truncate(p3, info.Size()/2); err != nil {
		t.Fatal(err)
	}
	p2 := ckptFile(dir, 2)
	raw, _ := os.ReadFile(p2)
	raw[len(raw)-6] ^= 0xFF
	if err := os.WriteFile(p2, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	id, meta, _, ok := LatestCheckpoint(dir)
	if !ok || id != 1 {
		t.Fatalf("LatestCheckpoint = %d ok=%v, want 1 true", id, ok)
	}
	if !bytes.Contains(meta, []byte(`"iter":1`)) {
		t.Fatalf("meta = %s", meta)
	}

	if _, _, err := ReadCheckpoint(dir, 3); err == nil {
		t.Fatal("torn checkpoint read must error")
	} else if ce, ok := err.(*CorruptError); !ok || !ce.Torn {
		t.Fatalf("err = %v, want torn *CorruptError", err)
	}
	if _, _, err := ReadCheckpoint(dir, 2); err == nil {
		t.Fatal("bit-flipped checkpoint read must error")
	}
}

func TestLatestCheckpointEmpty(t *testing.T) {
	if _, _, _, ok := LatestCheckpoint(t.TempDir()); ok {
		t.Fatal("empty dir reported a checkpoint")
	}
	if _, _, _, ok := LatestCheckpoint(filepath.Join(t.TempDir(), "nope")); ok {
		t.Fatal("missing dir reported a checkpoint")
	}
	if ids := ListCheckpoints(t.TempDir()); len(ids) != 0 {
		t.Fatalf("ListCheckpoints on empty dir = %v", ids)
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open("", Options{}); err == nil {
		t.Fatal("Open with empty dir must error")
	}
	// A file where the dir should be is not creatable.
	base := t.TempDir()
	f := filepath.Join(base, "occupied")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(f, "sub"), Options{}); err == nil {
		t.Fatal("Open under a regular file must error")
	}
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
