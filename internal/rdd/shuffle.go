package rdd

import (
	"fmt"
	"slices"
	"sync"

	"dpspark/internal/obs"
)

// taskBucket is one map task's output for one reduce partition, as handed
// to the map stage's merge: the in-memory bucketRef it becomes and, when
// staging durably and the codec took every record, its encoding.
type taskBucket struct {
	reduce int
	ref    bucketRef
	blob   []byte
}

// int32Scratch recycles a task's int32 scratch, unzeroed: bucketPairs'
// counters (one per target partition plus one per record — a paper-scale
// grid has a thousand partitions and map tasks that move three records)
// and numberCoords' dense tables.
var int32Scratch = sync.Pool{New: func() any { return new([]int32) }}

// takeInt32s returns a slab of at least n int32s, unzeroed, boxed for
// int32Scratch.Put.
func takeInt32s(n int) *[]int32 {
	p := int32Scratch.Get().(*[]int32)
	if cap(*p) < n {
		*p = make([]int32, n)
	}
	return p
}

// bucketPairs is the typed back half of every shuffle's map side: it
// splits one map task's records — chunks, in order — by the target partitioner into one bucket
// per non-empty reduce partition, ascending. Two passes over the keys —
// count, then place — lay all buckets out in one slab, taken from the
// record free lists (slab.go); the bucket at offset 0 releases it when
// the shuffle retires (recycleIfUnpinned). Keys are partitioned and records
// priced unboxed; only a non-nil codec (the durable path) sees boxed
// records.
func bucketPairs[K comparable, V any](tc *TaskContext, chunks [][]Pair[K, V], part Partitioner, codec Codec) ([]taskBucket, int64) {
	n := 0
	for _, ch := range chunks {
		n += len(ch)
	}
	if n == 0 {
		return nil, 0
	}
	partOf := partitionFunc[K](part)
	p := part.NumPartitions()
	sp := takeInt32s(p + n)
	defer int32Scratch.Put(sp)
	ends, dest := (*sp)[:p], (*sp)[p:p+n]
	clear(ends)
	nonEmpty, i := 0, 0
	for _, ch := range chunks {
		for j := range ch {
			b := partOf(ch[j].Key)
			dest[i] = int32(b)
			i++
			if ends[b] == 0 {
				nonEmpty++
			}
			ends[b]++
		}
	}
	// Counts → start offsets; placing advances each to its bucket's end.
	at := int32(0)
	for b, n := range ends {
		ends[b] = at
		at += n
	}
	slab := takeSlab[Pair[K, V]](n)
	i = 0
	for _, ch := range chunks {
		for j := range ch {
			slab[ends[dest[i]]] = ch[j]
			ends[dest[i]]++
			i++
		}
	}
	boxed := partition(slab)

	sizeKey, sizeVal := sizerOf[K](), sizerOf[V]()
	buckets := make([]taskBucket, 0, nonEmpty)
	var spill int64
	lo := 0
	for b, end := range ends {
		hi := int(end)
		if hi == lo {
			continue
		}
		rs := slab[lo:hi]
		tb := taskBucket{reduce: b, ref: bucketRef{slab: boxed, lo: lo, n: hi - lo}}
		lo = hi
		for i := range rs {
			tb.ref.bytes += sizeKey(rs[i].Key) + sizeVal(rs[i].Value)
		}
		if codec != nil {
			// Encoded here, in the task; the Put waits for the merge (see
			// spill.go on why staging is all-or-nothing per bucket).
			tb.blob, _ = encodeExact(codec, rs)
		}
		spill += tb.ref.bytes
		buckets = append(buckets, tb)
	}
	return buckets, spill
}

// newShuffleDep registers a shuffle dependency; the caller sets its sides.
func (c *Context) newShuffleDep(parent *dataset, part Partitioner) *shuffleDep {
	c.mu.Lock()
	id := c.nextShuffle
	c.nextShuffle++
	c.mu.Unlock()
	return &shuffleDep{id: id, parent: parent, part: part, phase: c.CurrentPhase()}
}

// bucketRef is one map task's contribution to one reduce partition: n
// records from offset lo of slab, the one boxed []Pair[K,·] holding all
// of the task's buckets back to back, and, when the bucket was staged in
// the durable block store, its block key. bytes carries the priced
// payload either way, so virtual traffic charges are identical.
type bucketRef struct {
	mapPart int
	slab    partition
	lo, n   int
	bytes   int64
	// stored marks a bucket staged in the durable store under key. A read
	// takes the records from slab while the store holds the block's bytes
	// in memory and decodes the block only once it lives on disk.
	stored bool
	key    string
}

// mapTaskOut is what one map task hands the stage's merge. Its slot is
// reset at the start of every attempt, so a failed attempt's buckets and
// encodings are simply dropped.
type mapTaskOut struct {
	node    int
	spill   int64
	buckets []taskBucket
}

// shuffleArrays are a shuffle's arrays indexed by partition: byReduce by
// reduce partition, the rest by map partition. mapNode, spillByMap and
// refsByMap record where each map partition's output lives, its staged
// bytes and how many buckets it produced — what executor-loss invalidation
// and fetch attribution key on. A retired shuffle pools them
// (shuffleArraysPool) for the next shuffle of any Context to take.
// byReduce goes back zero over its whole capacity: the put clears it,
// which also lets go of the bucket slabs it pointed into.
type shuffleArrays struct {
	byReduce   [][]bucketRef
	mapNode    []int
	spillByMap []int64
	refsByMap  []int
}

// shuffleArraysPool recycles retired shuffles' arrays, like arenas.
var shuffleArraysPool sync.Pool

// takeShuffleArrays sizes a set of zeroed arrays for a shuffle: the
// pointer-bearing ones come back zero, the per-map counters are cleared
// here, what has to grow is new.
func takeShuffleArrays(mapParts, reduceParts int) shuffleArrays {
	var a shuffleArrays
	if p, _ := shuffleArraysPool.Get().(*shuffleArrays); p != nil {
		a = *p
	}
	a.byReduce = slices.Grow(a.byReduce[:0], reduceParts)[:reduceParts]
	a.mapNode = slices.Grow(a.mapNode[:0], mapParts)[:mapParts]
	a.spillByMap = slices.Grow(a.spillByMap[:0], mapParts)[:mapParts]
	a.refsByMap = slices.Grow(a.refsByMap[:0], mapParts)[:mapParts]
	clear(a.mapNode)
	clear(a.spillByMap)
	clear(a.refsByMap)
	return a
}

// putShuffleArrays clears a retired shuffle's byReduce and pools its
// arrays. Under poisonRecycled the per-map counters read -1, so a reader
// that kept them reads garbage.
func putShuffleArrays(a shuffleArrays) {
	clear(a.byReduce)
	if poisonRecycled {
		for i := range a.mapNode {
			a.mapNode[i], a.spillByMap[i], a.refsByMap[i] = -1, -1, -1
		}
	}
	shuffleArraysPool.Put(&a)
}

// mapOutsPool recycles the slots where one execution's map tasks leave
// their results for its merge, zero. They go back after the merge, not with
// the shuffle's arrays, which a Context's last keepShuffles shuffles hold
// until it is closed.
var mapOutsPool = sync.Pool{New: func() any { return new([]mapTaskOut) }}

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
		dep:           sd,
		shuffleArrays: takeShuffleArrays(mapParts, sd.part.NumPartitions()),
		spillByNode:   make([]int64, c.conf.Cluster.Nodes),
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
	c.live = append(c.live, st)
	c.mu.Unlock()
	c.retireShuffles(c.conf.keepShuffles)
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

	pooled := mapOutsPool.Get().(*[]mapTaskOut)
	outs := slices.Grow((*pooled)[:0], n)[:n]
	defer func() { clear(outs); *pooled = outs; mapOutsPool.Put(pooled) }()
	var codec Codec
	if c.store != nil && !sd.combining {
		codec = c.conf.SpillCodec
	}

	c.execStage(&stageRun{
		kind:      StageShuffleMap,
		shuffleID: sd.id,
		parts:     n,
		phase:     sd.phase,
		stageID:   st.mapStage,
		attempt:   attempt,
		splits:    splits,
		work: func(tc *TaskContext, idx, split int) {
			outs[idx] = mapTaskOut{node: tc.Node}
			// The task's records end up in its bucket slab or encodings:
			// everything it built on the way goes back when bucket returns.
			tc.recycling = true
			buckets, spill := sd.bucket(tc, split, codec)
			tc.releaseSlices()
			tc.spill += spill
			outs[idx] = mapTaskOut{node: tc.Node, spill: spill, buckets: buckets}
		},
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
				c.count(recFencedCommits, 1)
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
					}
				} else {
					keep = append(keep, ref)
				}
			}
			st.byReduce[b] = keep
		}
	}
	if splits == nil {
		// The initial materialization knows every bucket up front: carve
		// each reduce partition's refs out of one exactly sized slab.
		counts := make([]int, len(st.byReduce))
		total := 0
		for _, out := range outs {
			for _, tb := range out.buckets {
				counts[tb.reduce]++
			}
			total += len(out.buckets)
		}
		slab := make([]bucketRef, total)
		for b, cnt := range counts {
			st.byReduce[b], slab = slab[:0:cnt], slab[cnt:]
		}
	}
	for idx := 0; idx < n; idx++ {
		split := idx
		if splits != nil {
			split = splits[idx]
		}
		out := outs[idx]
		st.mapNode[split] = out.node
		st.spillByMap[split] = out.spill
		st.spillByNode[out.node] += out.spill
		st.refsByMap[split] = 0
		for _, tb := range out.buckets {
			ref := tb.ref
			ref.mapPart = split
			if tb.blob != nil {
				key := shuffleBlockKey(sd.id, split, tb.reduce)
				if err := c.store.Put(key, tb.blob); err == nil {
					ref.stored, ref.key = true, key
				}
			}
			st.byReduce[tb.reduce] = append(st.byReduce[tb.reduce], ref)
			st.refsByMap[split]++
		}
	}
}

// recoverShuffle repairs a shuffle after a reduce-side fetch failure by
// resubmitting the map stage to recompute exactly the lost map
// partitions. Concurrent failures
// of the same shuffle serialize on recMu; whoever arrives after a
// completed recovery (the epoch advanced past the failure's) returns
// immediately and simply retries its fetch.
func (c *Context) recoverShuffle(ff *FetchFailedError) error {
	retiredErr := func() error {
		return fmt.Errorf("rdd: shuffle %d was retired before its recovery ran; the context keeps the last %d shuffles", ff.ShuffleID, c.conf.keepShuffles)
	}
	st, retired := c.shuffle(ff.ShuffleID)
	if retired {
		return retiredErr()
	}
	if st == nil {
		return fmt.Errorf("rdd: shuffle %d vanished during recovery", ff.ShuffleID)
	}
	st.recMu.Lock()
	defer st.recMu.Unlock()

	st.mu.Lock()
	if st.retired { // retired since the lookup
		st.mu.Unlock()
		return retiredErr()
	}
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
	slices.Sort(lost)
	st.mu.Unlock()
	// The serial accounting point: past the epoch guard, under recMu, this
	// is the one caller that repairs the loss — however many reduce tasks
	// hit it, the round is counted and evented here, once.
	c.count(recFetchFailures, 1)
	c.recordEvent(obs.Event{
		Clock: -1, Type: obs.EvFetchFailure,
		Stage: -1, Part: -1, Node: -1, Shuffle: ff.ShuffleID,
		Detail: fmt.Sprintf("epoch %d: %d map partitions lost", ff.Epoch, len(lost)),
	})
	// The invalidated contributions stay visible in byReduce until the
	// recompute's merge swaps them out atomically (see execMapTasks):
	// concurrent reads in the interim still find the lost refs, raise
	// FetchFailed and serialize behind recMu on the epoch guard above.

	if len(lost) > 0 {
		c.count(recStageResubmits, 1)
		c.recordEvent(obs.Event{
			Clock: -1, Type: obs.EvStageResubmit,
			Stage: -1, Part: -1, Node: -1, Shuffle: ff.ShuffleID,
			Detail: fmt.Sprintf("recompute %d lost map partitions", len(lost)),
		})
		c.execMapTasks(st, lost)
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

	c.count(recRecomputedParts, int64(len(lost)))
	return c.Err()
}

// sortBucketRefs orders contributions by map partition.
func sortBucketRefs(refs []bucketRef) {
	slices.SortStableFunc(refs, func(a, b bucketRef) int { return a.mapPart - b.mapPart })
}

// readShuffle is the reduce side: fetch this partition's buckets from the
// map tasks that produced any, charging local-disk vs network traffic by
// locality, then hand them to read — the dependency's merge, which
// concatenates (PartitionBy) or merges combiners (CombineByKey), or
// PartitionBy's chunk reader — and return what it makes; nil when the
// partition has no buckets. A bucket whose map output was invalidated (executor
// crash, disk loss) raises FetchFailedError — the task layer catches it
// and resubmits the map stage for the lost partitions. The read holds the
// shuffle's read lock throughout, so a concurrent recovery can only
// rewrite the buckets between whole reads.
func (c *Context) readShuffle(sd *shuffleDep, split int, tc *TaskContext,
	read func(tc *TaskContext, st *shuffleState, refs []bucketRef) partition) partition {
	st, retired := c.shuffle(sd.id)
	if retired {
		panic(&shuffleRetiredError{id: sd.id, keep: c.conf.keepShuffles})
	}
	if st == nil {
		panic(fmt.Sprintf("rdd: shuffle %d read before materialization", sd.id))
	}
	st.mu.RLock()
	defer st.mu.RUnlock() // also released when a lost bucket panics below
	if !st.done {
		panic(fmt.Sprintf("rdd: shuffle %d read before materialization", sd.id))
	}
	if st.retired { // retired since the lookup
		panic(&shuffleRetiredError{id: sd.id, keep: c.conf.keepShuffles})
	}

	refs := st.byReduce[split]
	if len(refs) == 0 {
		return nil
	}
	for _, ref := range refs {
		if st.lost[ref.mapPart] {
			panic(st.fetchFailed(ref, false))
		}
		c.chargeFetch(tc, st.mapNode[ref.mapPart], ref.bytes)
	}
	return read(tc, st, refs)
}

// shuffleRetiredError is a read of a retired shuffle. No attempt can
// succeed, so the task fails on the first (stageRun.runTask).
type shuffleRetiredError struct{ id, keep int }

func (e *shuffleRetiredError) Error() string {
	return fmt.Sprintf("rdd: shuffle %d was retired; the context keeps the last %d shuffles", e.id, e.keep)
}

// fetchFailed is the failure a reduce task raises over ref's map output
// (lost with its executor, or corrupt in the block store).
func (st *shuffleState) fetchFailed(ref bucketRef, corrupt bool) *FetchFailedError {
	return &FetchFailedError{ShuffleID: st.dep.id, MapPart: ref.mapPart,
		Node: st.mapNode[ref.mapPart], Epoch: st.epoch, Corrupt: corrupt}
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

// retireShuffles drops staged data of all but the most recent keep
// shuffles, freeing simulated disk and real memory. A retired shuffle
// leaves the live list, its map entry becomes the tombstone and its arrays
// and bucket slabs go to the free lists — once no reader pins it
// (recycleIfUnpinned); a recovery of it that is still running finishes
// first (recMu).
func (c *Context) retireShuffles(keep int) {
	c.mu.Lock()
	var toRetire []*shuffleState
	if n := len(c.live) - keep; n > 0 {
		toRetire = slices.Clone(c.live[:n])
		c.live = slices.Delete(c.live, 0, n)
		for _, st := range toRetire {
			c.shuffles[st.dep.id] = nil
		}
	}
	c.mu.Unlock()
	for _, st := range toRetire {
		st.recMu.Lock()
		st.mu.Lock()
		st.retired = true
		spillByNode := st.spillByNode
		st.mu.Unlock()
		st.recMu.Unlock()
		recycleIfUnpinned(st)
		for node, bytes := range spillByNode {
			c.releaseShuffle(node, bytes)
		}
		if c.store != nil {
			// Retired generations also leave the durable store (their
			// staged blocks would otherwise pin disk forever).
			c.store.DeletePrefix(shufflePrefix(st.dep.id))
		}
	}
}
