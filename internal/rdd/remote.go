package rdd

import (
	"fmt"

	"dpspark/internal/obs"
	"dpspark/internal/simtime"
)

// Restore-before-recompute: when a reduce-side fetch hits a lost map
// output, recovery first tries to repair the lost partition's staged
// blocks from intact remote replicas (Conf.RemoteDir) and only falls
// back to the PR 3 partial map-recompute when that cannot work — the
// replica is missing or corrupt, the tier is inside an outage window,
// or the simulated restore reads exhaust their timeout/retry budget.
// Restored bytes are bit-identical to recomputed ones (the recompute is
// deterministic), so the two paths differ only in stats and clock.
//
// Determinism of the *decision*: fireStageFaults flushes the
// replication queue at every stage boundary while the tier is up, so
// the replica set at any fault is exactly "every block staged before
// the last up-tier stage boundary" — a function of the plan and the
// data, never of background-writer timing.

// restorableBlock is one staged block a lost map partition needs back,
// with its sizer-priced payload (what the simulated restore read costs).
type restorableBlock struct {
	key   string
	bytes int64
}

// tryRemoteRestore attempts to repair the lost map partitions from
// remote replicas, returning the (sorted) subset it fully restored —
// recoverShuffle recomputes only the rest. A partition is restorable
// only if every one of its contributions was durably staged (stored
// refs); partitions with in-memory buckets died with their executor and
// must be recomputed. Within a restorable partition every block must
// come back intact — a single missing/corrupt/timed-out replica fails
// the partition over to recompute (partial restores are harmless: the
// recompute's fresh staging overwrites them).
func (c *Context) tryRemoteRestore(st *shuffleState, lost []int) []int {
	if c.store == nil || !c.store.RemoteAvailable() || len(lost) == 0 {
		return nil
	}
	restorable := make(map[int]bool, len(lost))
	wasLost := make(map[int]bool, len(lost))
	blocksByPart := make(map[int][]restorableBlock, len(lost))
	spillByPart := make(map[int]int64, len(lost))
	st.mu.RLock()
	for _, p := range lost {
		restorable[p] = true
		// A corrupt-block partition (indicted by checksum, not executor
		// loss) keeps its map node and disk accounting — restore only
		// repairs the damaged file; a truly lost partition was released
		// by loseNodeOutputs and must be re-homed on success.
		wasLost[p] = st.lost[p]
		spillByPart[p] = st.spillByMap[p]
	}
	for _, refs := range st.byReduce {
		for _, ref := range refs {
			if !restorable[ref.mapPart] {
				continue
			}
			if !ref.stored {
				restorable[ref.mapPart] = false
				delete(blocksByPart, ref.mapPart)
				continue
			}
			blocksByPart[ref.mapPart] = append(blocksByPart[ref.mapPart], restorableBlock{ref.key, ref.bytes})
		}
	}
	st.mu.RUnlock()

	var restored []int
	for _, p := range lost {
		blocks := blocksByPart[p]
		if !restorable[p] || len(blocks) == 0 {
			continue
		}
		ok := true
		for _, b := range blocks {
			if !c.restoreBlock(b.key, b.bytes) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if wasLost[p] {
			node := c.placeNode(p, c.Clock())
			st.mu.Lock()
			st.mapNode[p] = node
			st.spillByNode[node] += spillByPart[p]
			st.mu.Unlock()
			c.simul.AcquireShuffle(node, spillByPart[p])
		}
		restored = append(restored, p)
		c.count(recRestoredBlocks, int64(len(blocks)))
		c.recordEvent(obs.Event{
			Clock: -1, Type: obs.EvRestore,
			Stage: -1, Part: p, Node: -1, Shuffle: st.dep.id,
			Detail: fmt.Sprintf("restored %d staged blocks from remote replicas", len(blocks)),
		})
	}
	return restored
}

// The simulated restore read's failure policy, in virtual time: a read
// whose (slowdown-dilated) cost exceeds remoteOpTimeout times out, is
// charged the timeout and retried up to remoteMaxRetries times, waiting
// remoteBackoff (doubling per retry) before each.
const (
	remoteOpTimeout  = 2 * simtime.Second
	remoteMaxRetries = 3
	remoteBackoff    = 500 * simtime.Millisecond
)

// restoreBlock fetches one replica back into the local store, charging
// the simulated shared-storage read (dilated by any active RemoteSlow
// window) with per-operation timeout and exponentially backed-off
// retries. False means recovery must recompute: the replica is missing
// or corrupt (retrying cannot help), the tier went down, or the retry
// budget ran out against a persistent slowdown.
func (c *Context) restoreBlock(key string, bytes int64) bool {
	factor := c.remoteSlowFactor()
	backoff := remoteBackoff
	for attempt := 0; attempt <= remoteMaxRetries; attempt++ {
		if attempt > 0 {
			c.chargeRestore(backoff)
			backoff *= 2
			c.count(recRemoteRetries, 1)
		}
		cost := simtime.Duration(c.model.SharedReadTime(bytes).Seconds() * factor)
		if cost > remoteOpTimeout {
			// The dilated read would blow the per-op deadline: the run
			// pays the timeout, not the full read, and retries.
			c.chargeRestore(remoteOpTimeout)
			continue
		}
		c.chargeRestore(cost)
		if !c.store.RemoteAvailable() {
			return false
		}
		if _, err := c.store.RestoreFromRemote(key); err != nil {
			return false
		}
		return true
	}
	return false
}

// chargeRestore advances the driver clock for a simulated remote
// operation: shared-storage traffic in the recovery phase (restore time
// IS failure-repair time).
func (c *Context) chargeRestore(d simtime.Duration) {
	c.advanceDriver(d, simtime.SharedFS, obs.PhaseRecovery)
}

// subtractSorted returns the elements of sorted a not present in sorted b.
func subtractSorted(a, b []int) []int {
	var out []int
	i := 0
	for _, v := range a {
		for i < len(b) && b[i] < v {
			i++
		}
		if i < len(b) && b[i] == v {
			continue
		}
		out = append(out, v)
	}
	return out
}
