package rdd

import (
	"fmt"
	"sync"

	"dpspark/internal/obs"
)

// Shuffle staging buffers churn fast: every map task builds a bucket map
// and per-reduce record slices, and every retired shuffle generation
// drops its slices for the GC to sweep. Both are recycled process-wide —
// the maps as soon as their slices have been handed to the shuffle state,
// the slices when their shuffle generation is retired.
var (
	bucketMapPool = sync.Pool{New: func() any {
		return make(map[int]taskBucket)
	}}
	recSlicePool sync.Pool // stores *[]keyedRecord
)

// taskBucket is one map task's output for one reduce partition, as the
// task hands it to the map stage's merge: the records, their sizer-priced
// payload (summed as the task emits them) and, when the context stages
// durably and the codec took every record, the bucket's encoding.
type taskBucket struct {
	recs  []keyedRecord
	bytes int64
	blob  []byte
}

// getRecSlice returns an empty pooled record slice, or one presized to
// hint when the pool is empty.
func getRecSlice(hint int) []keyedRecord {
	if p, _ := recSlicePool.Get().(*[]keyedRecord); p != nil {
		return (*p)[:0]
	}
	return make([]keyedRecord, 0, hint)
}

// putRecSlice recycles a record slice, zeroing the elements first so the
// pool does not pin the shuffled keys and values (tiles!) against GC.
func putRecSlice(recs []keyedRecord) {
	for i := range recs {
		recs[i] = keyedRecord{}
	}
	recSlicePool.Put(&recs)
}

// newShuffleDep registers a shuffle dependency.
func (c *Context) newShuffleDep(parent *dataset, part Partitioner,
	rebuild func(key, val any) Record,
	create func(v any) any, mergeValue, mergeComb func(a, b any) any) *shuffleDep {
	c.mu.Lock()
	id := c.nextShuffle
	c.nextShuffle++
	c.mu.Unlock()
	return &shuffleDep{
		id:         id,
		parent:     parent,
		part:       part,
		phase:      c.CurrentPhase(),
		rebuild:    rebuild,
		create:     create,
		mergeValue: mergeValue,
		mergeComb:  mergeComb,
	}
}

// bucketRef is one map task's contribution to one reduce partition —
// either in-process records (recs) or, when the bucket was staged in the
// durable block store, a block key plus record count (stored). Staged or
// not, bytes carries the same sizer-priced payload, so virtual traffic
// charges are identical either way.
type bucketRef struct {
	mapPart int
	recs    []keyedRecord
	bytes   int64
	// stored marks a bucket staged in the durable store under key with n
	// encoded records; recs is nil for stored buckets.
	stored bool
	key    string
	n      int
}

// runMapStage executes the map side of a shuffle: one task per parent
// partition computes the parent's records, keys them, optionally combines
// map-side, buckets them by the target partitioner and stages the buckets
// on the task's local disk (tc.spill). Buckets are indexed by reduce
// partition (sparsely — most of the grid's partitions are empty in any
// one stage) so reduce tasks only touch data that exists. Afterwards old
// shuffle generations are retired, emulating Spark's shuffle cleanup.
func (c *Context) runMapStage(sd *shuffleDep) {
	mapParts := sd.parent.parts
	st := &shuffleState{
		dep:         sd,
		byReduce:    make([][]bucketRef, sd.part.NumPartitions()),
		spillByNode: make([]int64, c.conf.Cluster.Nodes),
		mapNode:     make([]int, mapParts),
		spillByMap:  make([]int64, mapParts),
		refsByMap:   make([]int, mapParts),
	}
	c.mu.Lock()
	st.mapStage = c.nextStage
	c.nextStage++
	c.mu.Unlock()

	c.execMapTasks(st, nil)

	st.mu.Lock()
	// Deterministic reduce-side order: contributions sorted by map task.
	for _, refs := range st.byReduce {
		sortBucketRefs(refs)
	}
	st.done = true
	st.mu.Unlock()
	c.mu.Lock()
	c.shuffles[sd.id] = st
	c.shuffleLog = append(c.shuffleLog, sd.id)
	c.mu.Unlock()
	c.retireOldShuffles()
}

// execMapTasks runs the map tasks of a shuffle and merges their buckets
// into the shuffle state. splits == nil runs the full map stage (every
// parent partition, the initial materialization); a non-nil splits list
// is a resubmission recomputing exactly those (lost) partitions — the
// stage re-executes under its original stage ID with a bumped attempt.
func (c *Context) execMapTasks(st *shuffleState, splits []int) {
	sd := st.dep
	n := len(splits)
	if splits == nil {
		n = sd.parent.parts
	}
	st.mu.Lock()
	st.attempts++
	attempt := st.attempts - 1
	// Take the map-output commit lease: from here on only THIS attempt's
	// buckets may register in the merge. A resubmission after a false
	// suspicion takes the lease away from the still-running zombie
	// attempt, whose late commit the recovery merge then fences.
	st.commitLease = attempt
	st.mu.Unlock()

	// One value per task, reset at the start of every attempt, so a failed
	// attempt's buckets and encodings are simply dropped.
	perTask := make([]map[int]taskBucket, n)
	spillByTask := make([]int64, n)
	nodeByTask := make([]int, n)
	durable := c.store != nil && c.conf.SpillCodec != nil && !sd.combining()

	c.execStage(stageSpec{
		kind:      StageShuffleMap,
		shuffleID: sd.id,
		parts:     n,
		phase:     sd.phase,
		stageID:   st.mapStage,
		attempt:   attempt,
		splits:    splits,
	}, func(tc *TaskContext, idx, split int) {
		nodeByTask[idx] = tc.Node
		perTask[idx] = nil
		spillByTask[idx] = 0
		recs := c.iterate(sd.parent, split, tc)
		if len(recs) == 0 {
			return
		}
		buckets := bucketMapPool.Get().(map[int]taskBucket)
		var spill int64

		// Presize fresh bucket slices for this task's expected share: the
		// map side emits at most len(recs) records spread over the target
		// partitions.
		hint := 1 + len(recs)/sd.part.NumPartitions()
		emit := func(kr keyedRecord, bytes int64) {
			b := sd.part.Partition(kr.key)
			tb, ok := buckets[b]
			if !ok {
				tb.recs = getRecSlice(hint)
			}
			tb.recs = append(tb.recs, kr)
			tb.bytes += bytes
			buckets[b] = tb
			spill += bytes
		}
		if sd.combining() {
			// Map-side combine: per-key combiners in input order.
			combiners := make(map[any]any, len(recs))
			var order []any
			for _, r := range recs {
				pr, ok := r.(pairLike)
				if !ok {
					panic(fmt.Sprintf("rdd: shuffle over non-pair record %T", r))
				}
				k, v := pr.pairKey(), pr.pairValue()
				if comb, seen := combiners[k]; seen {
					combiners[k] = sd.mergeValue(comb, v)
				} else {
					combiners[k] = sd.create(v)
					order = append(order, k)
				}
			}
			for _, k := range order {
				v := combiners[k]
				emit(keyedRecord{key: k, val: v}, c.sizer(k)+c.sizer(v))
			}
		} else {
			for _, r := range recs {
				pr, ok := r.(pairLike)
				if !ok {
					panic(fmt.Sprintf("rdd: shuffle over non-pair record %T", r))
				}
				// Stage the original record alongside the boxed key and
				// value: the key buckets and partitions, key+value price
				// the traffic, and the reduce side hands rec through
				// unchanged (see keyedRecord).
				k, v := pr.pairKey(), pr.pairValue()
				emit(keyedRecord{key: k, val: v, rec: r}, c.sizer(k)+c.sizer(v))
			}
		}

		if durable {
			// Encode where the data was produced: in this task's goroutine,
			// next to its siblings', with no lock held. Whether a bucket is
			// staged is all-or-nothing and purely data-dependent (see
			// spill.go's determinism note); the Put waits for the merge.
			for b, tb := range buckets {
				if blob, ok := c.encodeBucket(tb.recs); ok {
					tb.blob = blob
					buckets[b] = tb
				}
			}
		}

		tc.spill += spill
		perTask[idx] = buckets
		spillByTask[idx] = spill
	})

	st.mu.Lock()
	defer st.mu.Unlock()
	if splits != nil {
		// A recovery merge must replace the recomputed partitions' stale
		// contributions in the same critical section that installs the
		// fresh ones. Dropping them any earlier opens a window where a
		// concurrent readShuffle sees a lost partition's ref simply
		// missing — silently incomplete data instead of a FetchFailed
		// (the lost flags are keyed off refs still present in byReduce).
		recomputed := make(map[int]bool, len(splits))
		for _, s := range splits {
			recomputed[s] = true
		}
		for _, s := range splits {
			staleLease, zombie := st.zombieParts[s]
			if !zombie {
				continue
			}
			// Commit fencing: this partition was invalidated by a FALSE
			// suspicion — its original executor is alive and its staged
			// output is the zombie attempt's commit, registered under the
			// lease staleLease. The current attempt holds the lease now, so
			// the stale registration is rejected (dropped below with the
			// other recomputed refs) instead of racing the fresh output.
			// Without the fence both attempts' buckets would be live at
			// once and results could double-count.
			if staleLease != st.commitLease {
				c.rec.fencedCommits.Add(1)
				c.recm.detFencedCommits.Inc()
				c.recordEvent(obs.Event{
					Clock: -1, Type: obs.EvFencedCommit,
					Stage: st.mapStage, Attempt: attempt, Part: s,
					Node: st.mapNode[s], Shuffle: sd.id,
					Detail: fmt.Sprintf("zombie commit lease %d rejected (current %d)", staleLease, st.commitLease),
				})
			}
			delete(st.zombieParts, s)
		}
		for b, refs := range st.byReduce {
			keep := refs[:0]
			for _, ref := range refs {
				if recomputed[ref.mapPart] {
					if ref.stored {
						// The fresh contribution re-Puts the same key below;
						// deleting first covers a recompute that no longer
						// produces this bucket (and drops a damaged file).
						c.store.Delete(ref.key)
					} else {
						putRecSlice(ref.recs)
					}
				} else {
					keep = append(keep, ref)
				}
			}
			st.byReduce[b] = keep
		}
	}
	for idx := 0; idx < n; idx++ {
		split := idx
		if splits != nil {
			split = splits[idx]
		}
		st.mapNode[split] = nodeByTask[idx]
		st.spillByMap[split] = spillByTask[idx]
		st.spillByNode[nodeByTask[idx]] += spillByTask[idx]
		st.refsByMap[split] = 0
		buckets := perTask[idx]
		if buckets == nil {
			continue
		}
		for b, tb := range buckets {
			ref := bucketRef{mapPart: split, recs: tb.recs, bytes: tb.bytes}
			if tb.blob != nil {
				key := shuffleBlockKey(sd.id, split, b)
				if err := c.store.Put(key, tb.blob); err == nil {
					putRecSlice(tb.recs)
					ref = bucketRef{mapPart: split, bytes: tb.bytes, stored: true, key: key, n: len(tb.recs)}
				}
			}
			st.byReduce[b] = append(st.byReduce[b], ref)
			st.refsByMap[split]++
		}
		// The slices now belong to the shuffle state (recycled when the
		// generation retires); the map itself recycles immediately.
		clear(buckets)
		bucketMapPool.Put(buckets)
		perTask[idx] = nil
	}
}

// recoverShuffle repairs a shuffle after a reduce-side fetch failure.
// Lost map partitions are first restored from intact remote replicas
// (tryRemoteRestore — every staged block of the partition fetched back
// verified); only the rest fall into the PR 3 path, resubmitting the
// map stage to recompute exactly those partitions. Concurrent failures
// of the same shuffle serialize on recMu; whoever arrives after a
// completed recovery (the epoch advanced past the failure's) returns
// immediately and simply retries its fetch.
func (c *Context) recoverShuffle(ff *FetchFailedError) error {
	c.mu.Lock()
	st := c.shuffles[ff.ShuffleID]
	c.mu.Unlock()
	if st == nil {
		return fmt.Errorf("rdd: shuffle %d vanished during recovery", ff.ShuffleID)
	}
	st.recMu.Lock()
	defer st.recMu.Unlock()

	st.mu.Lock()
	if st.epoch != ff.Epoch {
		st.mu.Unlock()
		return nil // someone else already recovered past this failure
	}
	if st.attempts >= maxStageAttempts {
		st.mu.Unlock()
		return fmt.Errorf("rdd: shuffle %d map stage failed after %d attempts: %v",
			ff.ShuffleID, st.attempts, ff)
	}
	lost := make([]int, 0, len(st.lost)+1)
	for p := range st.lost {
		lost = append(lost, p)
	}
	if ff.Corrupt && ff.MapPart >= 0 && !st.lost[ff.MapPart] {
		// A corrupt staged block indicts its map partition even though no
		// executor output was flagged lost: recompute it too, so the fresh
		// staging overwrites the damaged file.
		lost = append(lost, ff.MapPart)
	}
	sortInts(lost)
	st.mu.Unlock()
	// The invalidated contributions stay visible in byReduce until the
	// recompute's merge swaps them out atomically (see execMapTasks):
	// concurrent reads in the interim still find the lost refs, raise
	// FetchFailed and serialize behind recMu on the epoch guard above.

	toRecompute := lost
	if restored := c.tryRemoteRestore(st, lost); len(restored) > 0 {
		toRecompute = subtractSorted(lost, restored)
	}

	if len(toRecompute) > 0 {
		// Recovery-storm throttling: a resubmission may first have to wait
		// for a token, so a mass failure drains in bounded waves.
		c.takeRecoveryToken()
		c.rec.stageResubmits.Add(1)
		c.recm.stageResubmits.Inc()
		c.recordEvent(obs.Event{
			Clock: -1, Type: obs.EvStageResubmit,
			Stage: -1, Part: -1, Node: -1, Shuffle: ff.ShuffleID,
			Detail: fmt.Sprintf("recompute %d lost map partitions", len(toRecompute)),
		})

		c.execMapTasks(st, toRecompute)

		if c.store != nil && c.store.RemoteAttached() {
			// The restore-vs-recompute ledger: staged blocks rebuilt by
			// the fallback (restored ones were counted in tryRemoteRestore).
			var blocks int64
			st.mu.Lock()
			for _, p := range toRecompute {
				blocks += int64(st.refsByMap[p])
			}
			st.mu.Unlock()
			c.rec.recomputedBlocks.Add(blocks)
			c.recm.recomputedBlocks.Add(blocks)
		}
	}

	st.mu.Lock()
	for _, p := range lost {
		delete(st.lost, p)
	}
	for _, refs := range st.byReduce {
		sortBucketRefs(refs)
	}
	st.epoch++
	st.mu.Unlock()

	c.rec.recomputedParts.Add(int64(len(toRecompute)))
	c.recm.recomputedParts.Add(int64(len(toRecompute)))
	return c.Err()
}

// sortInts is an allocation-free insertion sort for small index lists.
func sortInts(v []int) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// sortBucketRefs orders contributions by map partition (insertion is
// already nearly sorted; simple insertion sort keeps it allocation-free).
func sortBucketRefs(refs []bucketRef) {
	for i := 1; i < len(refs); i++ {
		for j := i; j > 0 && refs[j].mapPart < refs[j-1].mapPart; j-- {
			refs[j], refs[j-1] = refs[j-1], refs[j]
		}
	}
}

// readShuffle is the reduce side: fetch this partition's buckets from the
// map tasks that produced any, charging local-disk vs network traffic by
// locality, then concatenate (PartitionBy) or merge combiners
// (CombineByKey). A bucket whose map output was invalidated (executor
// crash, disk loss) raises FetchFailedError — the task layer catches it
// and resubmits the map stage for the lost partitions. The read holds the
// shuffle's read lock throughout, so a concurrent recovery can only
// rewrite the buckets between whole reads.
func (c *Context) readShuffle(sd *shuffleDep, split int, tc *TaskContext) []Record {
	c.mu.Lock()
	st := c.shuffles[sd.id]
	c.mu.Unlock()
	if st == nil {
		panic(fmt.Sprintf("rdd: shuffle %d read before materialization", sd.id))
	}
	st.mu.RLock()
	defer st.mu.RUnlock() // also released when a lost bucket panics below
	if !st.done {
		panic(fmt.Sprintf("rdd: shuffle %d read before materialization", sd.id))
	}
	if st.retired {
		panic(fmt.Sprintf("rdd: shuffle %d was retired; raise Conf.KeepShuffles", sd.id))
	}

	refs := st.byReduce[split]
	for _, ref := range refs {
		if st.lost[ref.mapPart] {
			panic(&FetchFailedError{
				ShuffleID: sd.id,
				MapPart:   ref.mapPart,
				Node:      st.mapNode[ref.mapPart],
				Epoch:     st.epoch,
			})
		}
	}
	var recs []Record
	if sd.combining() {
		combiners := make(map[any]any)
		var order []any
		for _, ref := range refs {
			c.chargeFetch(tc, st.mapNode[ref.mapPart], ref.bytes)
			for _, kr := range ref.recs {
				if comb, seen := combiners[kr.key]; seen {
					combiners[kr.key] = sd.mergeComb(comb, kr.val)
				} else {
					combiners[kr.key] = kr.val
					order = append(order, kr.key)
				}
			}
		}
		recs = make([]Record, 0, len(order))
		for _, k := range order {
			recs = append(recs, sd.rebuild(k, combiners[k]))
		}
	} else {
		total := 0
		for _, ref := range refs {
			if ref.stored {
				total += ref.n
			} else {
				total += len(ref.recs)
			}
		}
		recs = make([]Record, 0, total)
		for _, ref := range refs {
			c.chargeFetch(tc, st.mapNode[ref.mapPart], ref.bytes)
			if ref.stored {
				recs = c.readStoredBucket(sd, st, ref, recs)
				continue
			}
			for _, kr := range ref.recs {
				if kr.rec != nil {
					recs = append(recs, kr.rec)
				} else {
					recs = append(recs, sd.rebuild(kr.key, kr.val))
				}
			}
		}
	}
	return recs
}

// chargeFetch attributes a bucket read to local disk or the network,
// based on the node the map output actually lives on (after blacklist
// re-placement or recovery that may differ from the partition's home).
func (c *Context) chargeFetch(tc *TaskContext, mapNode int, bytes int64) {
	if bytes == 0 {
		return
	}
	if mapNode == tc.Node {
		tc.fetchLocal += bytes
	} else {
		tc.fetchRemote += bytes
	}
}

// retireOldShuffles drops staged data of all but the most recent
// Conf.KeepShuffles shuffles, freeing simulated disk and real memory.
func (c *Context) retireOldShuffles() {
	c.mu.Lock()
	var toRetire []*shuffleState
	if n := len(c.shuffleLog) - c.conf.KeepShuffles; n > 0 {
		for _, id := range c.shuffleLog[:n] {
			if st := c.shuffles[id]; st != nil {
				toRetire = append(toRetire, st)
			}
		}
	}
	c.mu.Unlock()
	var retiredBuckets [][][]bucketRef
	for _, st := range toRetire {
		st.mu.Lock()
		if st.retired {
			st.mu.Unlock()
			continue
		}
		st.retired = true
		retiredBuckets = append(retiredBuckets, st.byReduce)
		st.byReduce = nil
		spillByNode := st.spillByNode
		st.mu.Unlock()
		for node, bytes := range spillByNode {
			c.simul.ReleaseShuffle(node, bytes)
		}
		if c.store != nil {
			// Retired generations also leave the durable store (their
			// staged blocks would otherwise pin disk forever).
			c.store.DeletePrefix(shufflePrefix(st.dep.id))
		}
	}
	// Recycle the retired staging slices (readShuffle panics on retired
	// generations, so nothing can still be reading them).
	for _, byReduce := range retiredBuckets {
		for _, refs := range byReduce {
			for i := range refs {
				if refs[i].recs != nil {
					putRecSlice(refs[i].recs)
					refs[i].recs = nil
				}
			}
		}
	}
}
