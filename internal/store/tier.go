package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"dpspark/internal/obs"
)

// Tier is the interface seam for a shared, *remote* block tier behind
// the local disk tier — the Sparkle-style storage layer executor loss
// cannot take down. Implementations carry the same CRC32C
// checksum-on-read = lost-block contract as the local disk tier: Get
// must return *CorruptError when the replica's bytes fail verification,
// never silent garbage. The local-FS implementation (FSTier) keeps the
// no-new-deps rule; an object-store client would slot in behind the
// same five methods.
type Tier interface {
	// Put durably stores a replica of data under key, replacing any
	// previous one.
	Put(key string, data []byte) error
	// Get returns a replica's verified bytes; *CorruptError when its
	// checksum fails, any other error when it is missing/unreadable.
	Get(key string) ([]byte, error)
	// Delete removes a replica. Unknown keys are a no-op.
	Delete(key string) error
	// Keys returns the sorted replica keys matching prefix.
	Keys(prefix string) []string
	// Has reports whether a replica exists under key (no verification).
	Has(key string) bool
	// Corrupt is the seeded fault-injection hook: damage the replica so
	// the next Get fails verification (torn truncates, otherwise one bit
	// flips). Returns false if there is nothing to damage.
	Corrupt(key string, torn bool) bool
}

// FSTier is the local-filesystem Tier: replicas are CRC32C-framed block
// files (the same "DPB1" frame as the local disk tier) under one shared
// directory. Like Store, it only reads keys written in this process —
// a restarted driver re-replicates, overwriting any stale files.
type FSTier struct {
	dir  string
	mu   sync.Mutex
	keys map[string]struct{}
}

// NewFSTier creates (if needed) dir and returns an FSTier over it.
func NewFSTier(dir string) (*FSTier, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty remote tier directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create remote tier %s: %w", dir, err)
	}
	return &FSTier{dir: dir, keys: make(map[string]struct{})}, nil
}

func (t *FSTier) fileFor(key string) string {
	return filepath.Join(t.dir, sanitizeKey(key)+".rep")
}

// Put implements Tier.
func (t *FSTier) Put(key string, data []byte) error {
	if err := writeBlockFile(t.fileFor(key), data); err != nil {
		return fmt.Errorf("store: replicate %q: %w", key, err)
	}
	t.mu.Lock()
	t.keys[key] = struct{}{}
	t.mu.Unlock()
	return nil
}

// Get implements Tier.
func (t *FSTier) Get(key string) ([]byte, error) {
	t.mu.Lock()
	_, ok := t.keys[key]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("store: no remote replica %q", key)
	}
	return readBlockFile(t.fileFor(key), key)
}

// Delete implements Tier.
func (t *FSTier) Delete(key string) error {
	t.mu.Lock()
	_, ok := t.keys[key]
	delete(t.keys, key)
	t.mu.Unlock()
	if !ok {
		return nil
	}
	return os.Remove(t.fileFor(key))
}

// Keys implements Tier.
func (t *FSTier) Keys(prefix string) []string {
	t.mu.Lock()
	var out []string
	for k := range t.keys {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	t.mu.Unlock()
	sort.Strings(out)
	return out
}

// Has implements Tier.
func (t *FSTier) Has(key string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.keys[key]
	return ok
}

// Corrupt implements Tier.
func (t *FSTier) Corrupt(key string, torn bool) bool {
	t.mu.Lock()
	_, ok := t.keys[key]
	t.mu.Unlock()
	if !ok {
		return false
	}
	return damageBlockFile(t.fileFor(key), torn)
}

// AttachRemote wires a remote tier behind the store: blocks whose key
// the replication policy accepts are queued for asynchronous
// replication on every Put. A nil policy replicates everything. The
// tier starts available; SetRemoteAvailable simulates outages.
func (s *Store) AttachRemote(t Tier, policy func(key string) bool) {
	if policy == nil {
		policy = func(string) bool { return true }
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.remote = t
	s.repPolicy = policy
	s.remoteUp = true
	if s.repPending == nil {
		s.repPending = make(map[string]struct{})
	}
	if s.reg != nil && s.replicated == nil {
		s.replicated = s.reg.Counter("dpspark_remote_replicated_blocks_total", nil)
		s.restored = s.reg.Counter("dpspark_remote_restored_blocks_total", nil)
		s.remoteBad = s.reg.Counter("dpspark_remote_corrupt_replicas_detected_total", nil)
	}
}

// SetReplicaDomains turns on fault-domain-aware replica placement:
// originOf maps a block key to the rack (fault domain) of the node that
// produced it, and each replica is recorded as living in the *next*
// rack — never co-located with its origin's domain, so a single rack
// failure cannot take both copies. The placement is bookkeeping over
// the shared tier (the FSTier directory stands in for all racks); what
// it buys is that DropRemoteDomain can invalidate exactly the replicas
// a correlated rack failure would physically destroy. No-op with fewer
// than two racks or a nil mapper.
func (s *Store) SetReplicaDomains(racks int, originOf func(key string) int) {
	if racks < 2 || originOf == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.domains = racks
	s.originOf = originOf
	if s.replicaDomain == nil {
		s.replicaDomain = make(map[string]int)
	}
}

// DropRemoteDomain deletes every remote replica recorded as living in
// fault domain d and returns how many were dropped. Called when a rack
// failure takes out domain d: restores of those keys must fail over to
// recompute, exactly as if the rack's disks burned with its executors.
// No-op without an attached tier or domain tracking.
func (s *Store) DropRemoteDomain(d int) int {
	s.mu.Lock()
	remote := s.remote
	var victims []string
	for k, dom := range s.replicaDomain {
		if dom == d {
			victims = append(victims, k)
			delete(s.replicaDomain, k)
		}
	}
	s.mu.Unlock()
	if remote == nil {
		return 0
	}
	sort.Strings(victims)
	for _, k := range victims {
		// Physical destruction, not simulated traffic: proceeds
		// regardless of the availability gate, like Delete.
		remote.Delete(k)
	}
	return len(victims)
}

// RemoteAttached reports whether a remote tier is wired behind the store.
func (s *Store) RemoteAttached() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.remote != nil
}

// RemoteAvailable reports whether the remote tier is attached and not
// currently gated by a simulated outage.
func (s *Store) RemoteAvailable() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.remote != nil && s.remoteUp
}

// SetRemoteAvailable gates the remote tier for outage simulation: while
// down the replication queue parks (enqueues still accepted) and
// restores are refused; coming back up restarts the drain worker. No-op
// without an attached tier.
func (s *Store) SetRemoteAvailable(up bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.remote == nil {
		return
	}
	s.remoteUp = up
	s.startReplicationLocked()
}

// FlushReplication blocks until the replication queue has drained and no
// replica write is in flight — or until the remote tier goes (or is)
// unavailable, in which case the remaining backlog stays parked. No-op
// without an attached tier.
func (s *Store) FlushReplication() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.remote == nil {
		return
	}
	s.startReplicationLocked()
	for s.repWorker {
		s.cond.Wait()
	}
}

// RestoreFromRemote fetches an intact replica of key and re-installs it
// as the local block (replacing whatever local state the key had —
// including a damaged disk file), without re-queuing replication.
// Returns the payload size on success; *CorruptError when the replica
// fails verification, an error when it is missing or the tier is
// unavailable.
func (s *Store) RestoreFromRemote(key string) (int64, error) {
	s.mu.Lock()
	remote, up := s.remote, s.remoteUp
	s.mu.Unlock()
	if remote == nil {
		return 0, fmt.Errorf("store: no remote tier attached")
	}
	if !up {
		return 0, fmt.Errorf("store: remote tier unavailable")
	}
	data, err := remote.Get(key)
	if err != nil {
		if isCorrupt(err) {
			s.mu.Lock()
			s.stats.RemoteCorruptDetected++
			if s.remoteBad != nil {
				s.remoteBad.Inc()
			}
			s.mu.Unlock()
			s.recordFlight(obs.EvCorrupt, "remote:"+key)
		}
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.insertLocked(key, data); err != nil {
		return 0, err
	}
	s.stats.RemoteRestored++
	if s.restored != nil {
		s.restored.Inc()
	}
	return int64(len(data)), s.evictLocked()
}

// RemoteKeys returns the sorted replica keys matching prefix, or nil
// without an attached tier.
func (s *Store) RemoteKeys(prefix string) []string {
	s.mu.Lock()
	remote := s.remote
	s.mu.Unlock()
	if remote == nil {
		return nil
	}
	return remote.Keys(prefix)
}

// CorruptRemote is the seeded fault-injection hook for the remote tier:
// damage the replica under key so the next restore fails verification.
func (s *Store) CorruptRemote(key string, torn bool) bool {
	s.mu.Lock()
	remote := s.remote
	s.mu.Unlock()
	if remote == nil {
		return false
	}
	return remote.Corrupt(key, torn)
}

// enqueueReplicationLocked queues key for asynchronous replication
// (deduplicated), starting the lazy drain worker when the tier is up.
// Called with s.mu held.
func (s *Store) enqueueReplicationLocked(key string) {
	if _, queued := s.repPending[key]; queued {
		return
	}
	s.repPending[key] = struct{}{}
	s.repQ = append(s.repQ, key)
	s.startReplicationLocked()
}

// startReplicationLocked starts the drain worker if there is a backlog,
// the tier is up, none is running and the store is not closed. Called
// with s.mu held.
func (s *Store) startReplicationLocked() {
	if s.remoteUp && len(s.repQ) > 0 && !s.repWorker && !s.closed {
		s.repWorker = true
		go s.repWorkerLoop()
	}
}

// repWorkerLoop is the single background replication writer: it drains
// the queue while the tier is up, reading each key's current bytes
// (memory, pinned, or verified disk) and writing the replica outside
// the lock. It parks (exits) the moment the tier goes down — the queue
// keeps the backlog — and is restarted by SetRemoteAvailable(true).
func (s *Store) repWorkerLoop() {
	s.mu.Lock()
	for s.remoteUp && len(s.repQ) > 0 {
		key := s.repQ[0]
		s.repQ = s.repQ[1:]
		delete(s.repPending, key)
		e, ok := s.blocks[key]
		if !ok {
			continue // deleted while queued
		}
		var data []byte
		if e.data != nil {
			data = e.data
		} else {
			d, err := readBlockFile(s.fileFor(key), key)
			if err != nil || s.blocks[key] != e {
				continue // unreadable (damaged) or replaced: skip
			}
			data = d
		}
		remote := s.remote
		s.mu.Unlock()
		err := remote.Put(key, data)
		s.mu.Lock()
		if err == nil {
			s.stats.ReplicatedBlocks++
			if s.replicated != nil {
				s.replicated.Inc()
			}
			if s.domains > 1 {
				// Place the replica in the rack after its origin's so no
				// single fault domain holds both copies of a block.
				s.replicaDomain[key] = (s.originOf(key) + 1) % s.domains
			}
			s.recordFlight(obs.EvReplication, key)
		}
		s.cond.Broadcast()
	}
	s.repWorker = false
	s.cond.Broadcast()
	s.mu.Unlock()
}
