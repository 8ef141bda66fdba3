// Package store is the engine's BlockManager: a budgeted in-memory block
// tier that evicts least-recently-used blocks to a checksummed on-disk
// tier, plus atomic driver checkpoint files (checkpoint.go).
//
// Blocks are opaque byte slices keyed by string; the rdd layer encodes
// shuffle buckets and broadcast payloads through a Codec (tiles ride
// matrix.AppendTile). A block lives in exactly one local tier at a time:
// inserts land in memory, eviction under MemoryBudget pressure spills to
// disk, and disk reads verify a CRC32C before returning bytes — a
// mismatch or torn write surfaces as *CorruptError so the caller can
// route it into the FetchFailed → partial-recompute path instead of
// consuming silent garbage.
//
// Spills are asynchronous: eviction *chooses* its victims
// deterministically under the lock (LRU order, counted immediately) but
// only enqueues the disk write to a background writer, keeping the bytes
// pinned on the entry (dirty) until they hit disk. Only the wall-clock
// moment the file appears floats; every observable byte is identical to
// the synchronous path, and the synchronous path remains as the
// fallback when the queue is full.
//
// The store never decides *when* corruption happens: Corrupt is the
// deliberate, seeded injection hook used by the fault plan, mirroring how
// PR 3 injects crashes. Everything else is defensive only.
package store

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"dpspark/internal/obs"
)

// blockMagic marks a spilled block file ("DPB1").
const blockMagic = 0x44504231

// blockHeaderLen is magic + crc + payload length.
const blockHeaderLen = 4 + 4 + 8

// asyncSpillCap bounds the dirty blocks awaiting the background writer;
// eviction beyond it falls back to the synchronous write path so memory
// pressure can never build an unbounded pinned backlog.
const asyncSpillCap = 256

// crcTable is the Castagnoli polynomial used for all on-disk checksums
// (same polynomial as Spark's shuffle checksum and most storage systems).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// CorruptError reports a disk block whose bytes failed verification.
// Torn distinguishes a short/truncated file (interrupted write) from a
// full-length file whose checksum does not match (bit rot / injected
// flip).
type CorruptError struct {
	Key  string
	Torn bool
}

func (e *CorruptError) Error() string {
	if e.Torn {
		return fmt.Sprintf("store: block %q torn (truncated write)", e.Key)
	}
	return fmt.Sprintf("store: block %q checksum mismatch", e.Key)
}

// Options configure Open.
type Options struct {
	// MemoryBudget caps the bytes held in the memory tier; blocks beyond
	// it are evicted LRU-first to disk. <= 0 means unbounded (blocks only
	// reach disk via Corrupt or explicit spill).
	MemoryBudget int64
	// Registry receives the spill/eviction/corruption counters
	// (dpspark_{spilled_blocks,evicted_blocks,corrupt_blocks_detected}_total).
	// Nil is fine; the store keeps its own Stats either way.
	Registry *obs.Registry
	// Flight, when non-nil, receives structured eviction and
	// corruption-detection events for the engine's flight recorder.
	Flight *obs.FlightRecorder
}

// Stats is a point-in-time snapshot of the store.
type Stats struct {
	MemBlocks  int64
	MemBytes   int64
	DiskBlocks int64
	DiskBytes  int64
	// Spilled counts blocks written to the disk tier (eviction or forced).
	// Counted when the spill is *chosen*, so the count is deterministic
	// even though the write itself is asynchronous.
	Spilled int64
	// Evicted counts blocks pushed out of memory by budget pressure.
	Evicted int64
	// CorruptDetected counts disk reads that failed verification.
	CorruptDetected int64
	// SpillWall is real wall-clock time spent writing spill files — the
	// one store cost that is genuinely host time, not simulated time.
	// With async spill it accrues when the background writer finishes;
	// call Flush before reading it if every pending write must be in.
	SpillWall time.Duration
}

// entry is one block. data != nil && !dirty means memory (elem is its LRU
// slot); data != nil && dirty means the block was evicted but its bytes
// are pinned awaiting the background spill writer (accounted to the disk
// tier already); data == nil means its bytes live in the disk file named
// by fileFor(key).
type entry struct {
	key  string
	size int64
	data []byte
	elem *list.Element
	// dirty pins an async-evicted block's bytes until the writer lands
	// them; writing marks the write currently in flight.
	dirty   bool
	writing bool
}

// Store is a concurrency-safe tiered block store rooted at one
// directory. The zero value is not usable; call Open.
type Store struct {
	dir    string
	budget int64

	mu      sync.Mutex
	cond    *sync.Cond // signals background-writer progress
	blocks  map[string]*entry
	lru     *list.List // front = most recent; values are *entry
	memUsed int64
	disk    int64 // bytes on disk (dirty blocks counted here already)
	diskN   int64 // blocks on disk
	stats   Stats
	// closed refuses new blocks; set by Close.
	closed bool

	// Async spill: FIFO of dirty entries awaiting the single background
	// writer (lazily started, exits when drained).
	spillQ      []*entry
	spillWorker bool

	flight    *obs.FlightRecorder
	spilled   *obs.Counter
	evicted   *obs.Counter
	corrupted *obs.Counter
}

// Open creates (if needed) dir and returns a Store over it. Stale block
// files from a previous process in the same dir are ignored: the store
// only reads keys it wrote in this process, so a crashed run's spill
// files are simply overwritten or left behind.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	s := &Store{
		dir:    dir,
		budget: opts.MemoryBudget,
		blocks: make(map[string]*entry),
		lru:    list.New(),
		flight: opts.Flight,
	}
	s.cond = sync.NewCond(&s.mu)
	if opts.Registry != nil {
		s.spilled = opts.Registry.Counter("dpspark_spilled_blocks_total", nil)
		s.evicted = opts.Registry.Counter("dpspark_evicted_blocks_total", nil)
		s.corrupted = opts.Registry.Counter("dpspark_corrupt_blocks_detected_total", nil)
	}
	return s, nil
}

// recordFlight emits one flight-recorder event for a block, stamping
// the engine's virtual clock via the recorder's clock source. Safe to
// call with s.mu held: the recorder's clock source reads the simulator
// clock, and the simulator never calls back into the store.
func (s *Store) recordFlight(typ, key string) {
	if s.flight == nil {
		return
	}
	s.flight.Record(obs.Event{
		Clock: -1, Type: typ,
		Stage: -1, Attempt: -1, Part: -1, Node: -1, Shuffle: -1,
		Detail: key,
	})
}

// Put stores data under key, replacing any previous block. The slice is
// retained; callers must not mutate it afterwards. The insert lands in
// the memory tier and then evicts LRU blocks while over budget (possibly
// spilling the new block itself if it alone exceeds the budget). It fails
// once the store is closed.
func (s *Store) Put(key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		// Checked on every pass: dropLocked releases the lock while it
		// waits, and a Close in that window must still refuse this block.
		if s.closed {
			return errClosed
		}
		old, ok := s.blocks[key]
		if !ok {
			break
		}
		// dropLocked may wait for an in-flight background write (releasing
		// the lock); re-check until the key is really free.
		s.dropLocked(old)
	}
	e := &entry{key: key, size: int64(len(data)), data: data}
	e.elem = s.lru.PushFront(e)
	s.blocks[key] = e
	s.memUsed += e.size
	return s.evictLocked()
}

// Get returns the block's bytes. Memory hits refresh the block's LRU
// position; dirty (spill-pending) blocks are served from their pinned
// bytes; disk hits verify the checksum and return *CorruptError on
// mismatch or torn write (the bad file is left in place for post-mortem —
// callers recover by recompute + Put, which overwrites it). The returned
// slice must be treated as read-only.
func (s *Store) Get(key string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.blocks[key]
	if !ok {
		return nil, fmt.Errorf("store: no block %q", key)
	}
	if e.data != nil {
		if e.elem != nil {
			s.lru.MoveToFront(e.elem)
		}
		return e.data, nil
	}
	data, err := readBlockFile(s.fileFor(key), key)
	if err != nil {
		if isCorrupt(err) {
			s.stats.CorruptDetected++
			if s.corrupted != nil {
				s.corrupted.Inc()
			}
			s.recordFlight(obs.EvCorrupt, key)
		}
		return nil, err
	}
	return data, nil
}

// Has reports whether key is stored (any local tier).
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.blocks[key]
	return ok
}

// InMemory reports whether key currently lives in the memory tier (a
// dirty block awaiting its spill write already counts as disk).
func (s *Store) InMemory(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.blocks[key]
	return ok && e.data != nil && !e.dirty
}

// Delete removes the block from whichever tier holds it. Unknown keys
// are a no-op.
func (s *Store) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.blocks[key]; ok {
		s.dropLocked(e)
	}
}

// DeletePrefix removes every block whose key starts with prefix and
// returns how many were dropped. Used to retire a whole shuffle's buckets
// in one call.
func (s *Store) DeletePrefix(prefix string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var victims []*entry
	for k, e := range s.blocks {
		if strings.HasPrefix(k, prefix) {
			victims = append(victims, e)
		}
	}
	for _, e := range victims {
		s.dropLocked(e)
	}
	return len(victims)
}

// Keys returns the sorted keys matching prefix, across the local tiers.
func (s *Store) Keys(prefix string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for k := range s.blocks {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Corrupt is the seeded fault-injection hook: it forces the block to the
// disk tier (spilling it if memory-resident, settling a pending async
// write first), then damages the file — truncating it mid-payload when
// torn, flipping one payload byte otherwise — so the next Get fails
// verification. Returns false if the key is unknown or the file cannot
// be damaged (e.g. empty payload with torn=false). The memory copy is
// dropped so the damage is observable.
func (s *Store) Corrupt(key string, torn bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.blocks[key]
	if !ok {
		return false
	}
	if e.dirty {
		if s.settleLocked(e) != nil {
			return false
		}
	} else if e.data != nil {
		if err := s.spillLocked(e); err != nil {
			return false
		}
	}
	if s.blocks[key] != e {
		return false // replaced while settling the pending write
	}
	return damageBlockFile(s.fileFor(key), torn)
}

// Spill forces a block's bytes onto disk: a memory-resident block is
// spilled synchronously (counted as a spill, not an eviction) and a
// dirty block's pending async write is settled now. Disk-resident or
// unknown keys are a no-op.
func (s *Store) Spill(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.blocks[key]
	if !ok || e.data == nil {
		return nil
	}
	if e.dirty {
		return s.settleLocked(e)
	}
	return s.spillLocked(e)
}

// Flush blocks until every queued async spill has landed on disk and no
// background spill write is in flight.
func (s *Store) Flush() {
	s.mu.Lock()
	for len(s.spillQ) > 0 || s.spillWorker {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// errClosed is what Put returns after Close.
var errClosed = errors.New("store: closed")

// Close drains the background spill writer and waits for it to exit, so
// no goroutine of the store touches its directory afterwards (a caller
// may remove it). Later Puts fail; blocks already stored stay readable.
// Idempotent, and safe to call while other goroutines still use the
// store.
func (s *Store) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for s.spillWorker {
		s.cond.Wait()
	}
}

// Stats returns a snapshot of the store's tier sizes and counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.MemBlocks = int64(s.lru.Len())
	st.MemBytes = s.memUsed
	st.DiskBlocks = s.diskN
	st.DiskBytes = s.disk
	return st
}

// evictLocked pushes LRU blocks out of memory until the memory tier fits
// the budget. The victim *choice* and the eviction/spill counts are
// deterministic (this lock, LRU order); the disk write itself is handed
// to the background writer unless the queue is full, in which case the
// synchronous path runs inline. Called with s.mu held.
func (s *Store) evictLocked() error {
	if s.budget <= 0 {
		return nil
	}
	for s.memUsed > s.budget && s.lru.Len() > 0 {
		e := s.lru.Back().Value.(*entry)
		s.stats.Evicted++
		if s.evicted != nil {
			s.evicted.Inc()
		}
		s.recordFlight(obs.EvEviction, e.key)
		if len(s.spillQ) < asyncSpillCap {
			s.enqueueSpillLocked(e)
		} else if err := s.spillLocked(e); err != nil {
			return err
		}
	}
	return nil
}

// enqueueSpillLocked moves e to the disk tier logically (accounting +
// spill count now, deterministically) and queues the write for the
// background writer, pinning the bytes via dirty. Called with s.mu held;
// e must be memory-resident.
func (s *Store) enqueueSpillLocked(e *entry) {
	s.stats.Spilled++
	if s.spilled != nil {
		s.spilled.Inc()
	}
	s.lru.Remove(e.elem)
	e.elem = nil
	e.dirty = true
	s.memUsed -= e.size
	s.disk += e.size
	s.diskN++
	s.spillQ = append(s.spillQ, e)
	if !s.spillWorker {
		s.spillWorker = true
		go s.spillWorkerLoop()
	}
}

// spillWorkerLoop is the single background spill writer: it drains the
// queue, writing each still-current dirty entry's bytes outside the lock
// and unpinning them on success. It exits when the queue is empty
// (restarted lazily by the next enqueue).
func (s *Store) spillWorkerLoop() {
	s.mu.Lock()
	for len(s.spillQ) > 0 {
		e := s.spillQ[0]
		s.spillQ = s.spillQ[1:]
		if s.blocks[e.key] != e || !e.dirty {
			continue // dropped or settled synchronously while queued
		}
		e.writing = true
		data := e.data
		path := s.fileFor(e.key)
		s.mu.Unlock()
		start := time.Now()
		err := writeBlockFile(path, data)
		elapsed := time.Since(start)
		s.mu.Lock()
		e.writing = false
		if s.blocks[e.key] == e && e.dirty {
			if err == nil {
				s.stats.SpillWall += elapsed
				e.dirty = false
				e.data = nil
			} else {
				// The write failed: return the block to the memory tier so
				// its bytes stay reachable (it becomes the next eviction
				// candidate; a persistently failing disk then surfaces
				// through the synchronous fallback's error).
				e.dirty = false
				e.elem = s.lru.PushBack(e)
				s.memUsed += e.size
				s.disk -= e.size
				s.diskN--
			}
		}
		s.cond.Broadcast()
	}
	s.spillWorker = false
	s.cond.Broadcast()
	s.mu.Unlock()
}

// settleLocked forces a dirty entry's pending write to complete
// synchronously so the block's bytes are on disk now. Called with s.mu
// held; waits out an in-flight background write of the same entry first.
func (s *Store) settleLocked(e *entry) error {
	s.awaitWriteLocked(e)
	if !e.dirty {
		return nil // the writer (or another settler) got there first
	}
	start := time.Now()
	if err := writeBlockFile(s.fileFor(e.key), e.data); err != nil {
		return fmt.Errorf("store: spill %q: %w", e.key, err)
	}
	s.stats.SpillWall += time.Since(start)
	e.dirty = false
	e.data = nil
	return nil
}

// awaitWriteLocked blocks (releasing s.mu) until no background write is
// in flight for e. Called with s.mu held.
func (s *Store) awaitWriteLocked(e *entry) {
	for e.writing {
		s.cond.Wait()
	}
}

// spillLocked writes e's bytes to its block file synchronously and moves
// it to the disk tier. Called with s.mu held; e must be memory-resident.
func (s *Store) spillLocked(e *entry) error {
	start := time.Now()
	if err := writeBlockFile(s.fileFor(e.key), e.data); err != nil {
		return fmt.Errorf("store: spill %q: %w", e.key, err)
	}
	s.stats.SpillWall += time.Since(start)
	s.stats.Spilled++
	if s.spilled != nil {
		s.spilled.Inc()
	}
	s.lru.Remove(e.elem)
	s.memUsed -= e.size
	e.elem = nil
	e.data = nil
	s.disk += e.size
	s.diskN++
	return nil
}

// dropLocked removes e from whichever tier holds it, waiting out an
// in-flight background write first (may release s.mu; callers must
// re-check map state afterwards). Called with s.mu held.
func (s *Store) dropLocked(e *entry) {
	s.awaitWriteLocked(e)
	if s.blocks[e.key] != e {
		return // a racing caller dropped it while we waited
	}
	switch {
	case e.dirty:
		// Evicted but never written: it is accounted to the disk tier, and
		// the queued write will skip it (dirty cleared, map entry gone). A
		// file from an earlier block under the same key may still exist.
		e.dirty = false
		e.data = nil
		s.disk -= e.size
		s.diskN--
		os.Remove(s.fileFor(e.key))
	case e.data != nil:
		s.lru.Remove(e.elem)
		s.memUsed -= e.size
	default:
		s.disk -= e.size
		s.diskN--
		os.Remove(s.fileFor(e.key))
	}
	delete(s.blocks, e.key)
}

// fileFor maps a block key to its spill file path.
func (s *Store) fileFor(key string) string {
	return filepath.Join(s.dir, sanitizeKey(key)+".blk")
}

// sanitizeKey turns an arbitrary block key into a safe, collision-free
// file name: bytes outside [A-Za-z0-9._-] are %xx-escaped ('%' itself
// included, so the mapping is injective).
func sanitizeKey(key string) string {
	var b strings.Builder
	b.Grow(len(key))
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02x", c)
		}
	}
	return b.String()
}

// isCorrupt reports whether err is (or wraps) a *CorruptError.
func isCorrupt(err error) bool {
	_, ok := err.(*CorruptError)
	return ok
}

// damageBlockFile damages one block file in place — truncating it
// mid-payload when torn, flipping one payload bit otherwise — so the
// next verified read fails. Returns false if the file cannot be damaged.
func damageBlockFile(path string, torn bool) bool {
	info, err := os.Stat(path)
	if err != nil {
		return false
	}
	if torn {
		// Chop inside the payload so the header still parses but the
		// bytes run out: a classic interrupted write.
		cut := blockHeaderLen + (info.Size()-blockHeaderLen)/2
		if info.Size() <= blockHeaderLen {
			cut = info.Size() / 2
		}
		return os.Truncate(path, cut) == nil
	}
	if info.Size() <= blockHeaderLen {
		return false
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return false
	}
	defer f.Close()
	// Flip one bit in the middle of the payload.
	off := blockHeaderLen + (info.Size()-blockHeaderLen)/2
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		return false
	}
	b[0] ^= 0x01
	_, err = f.WriteAt(b[:], off)
	return err == nil
}

// writeBlockFile writes magic + CRC32C + length + payload. The write is
// not atomic on purpose: spill files model executor-local staging, and a
// torn spill is exactly the failure mode Corrupt(torn=true) injects and
// readBlockFile must detect.
func writeBlockFile(path string, payload []byte) error {
	hdr := make([]byte, blockHeaderLen)
	binary.LittleEndian.PutUint32(hdr[0:], blockMagic)
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, crcTable))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(payload)))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(payload); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readBlockFile reads and verifies one spill file. Torn or mismatched
// content returns *CorruptError; foreign bytes (bad magic) too, since a
// spill file that isn't ours is as unusable as a damaged one.
func readBlockFile(path, key string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: read block %q: %w", key, err)
	}
	if len(raw) < blockHeaderLen {
		return nil, &CorruptError{Key: key, Torn: true}
	}
	if binary.LittleEndian.Uint32(raw[0:]) != blockMagic {
		return nil, &CorruptError{Key: key}
	}
	want := binary.LittleEndian.Uint32(raw[4:])
	n := binary.LittleEndian.Uint64(raw[8:])
	payload := raw[blockHeaderLen:]
	if uint64(len(payload)) < n {
		return nil, &CorruptError{Key: key, Torn: true}
	}
	if uint64(len(payload)) > n {
		return nil, &CorruptError{Key: key}
	}
	if crc32.Checksum(payload, crcTable) != want {
		return nil, &CorruptError{Key: key}
	}
	return payload, nil
}
