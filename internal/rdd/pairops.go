package rdd

// Pair-RDD operations. These mirror the PySpark calls of the paper's
// Listings 1–2: partitionBy, combineByKey, mapValues, plus the usual
// conveniences built on them.

import (
	"math"

	"dpspark/internal/matrix"
)

// MapValues transforms values while provably keeping keys, so the
// partitioner is preserved (narrow, like Spark's mapValues).
func MapValues[K comparable, V, W any](r *RDD[Pair[K, V]], f func(tc *TaskContext, key K, v V) W) *RDD[Pair[K, W]] {
	out := Map(r, func(tc *TaskContext, p Pair[K, V]) Pair[K, W] {
		return Pair[K, W]{Key: p.Key, Value: f(tc, p.Key, p.Value)}
	})
	out.ds.part = r.ds.part
	return out
}

// PartitionBy redistributes the records according to part. If the RDD is
// already partitioned by an equal partitioner this is a no-op (Spark
// skips the shuffle); otherwise it is a wide transformation.
func PartitionBy[K comparable, V any](r *RDD[Pair[K, V]], part Partitioner) *RDD[Pair[K, V]] {
	if r.ds.part != nil && r.ds.part.Equal(part) {
		return r
	}
	ctx := r.ds.ctx
	parent := r.ds
	sd := ctx.newShuffleDep(parent, part)
	sd.bucket = func(tc *TaskContext, split int, codec Codec) ([]taskBucket, int64) {
		var one [1][]Pair[K, V]
		return bucketPairs(tc, chunksOf(parent, split, tc, &one), part, codec)
	}
	sd.merge = func(tc *TaskContext, st *shuffleState, refs []bucketRef) partition {
		total := 0
		for _, ref := range refs {
			total += ref.n
		}
		out := take[Pair[K, V]](tc, total)[:0]
		for _, ref := range refs {
			out = appendBucket(tc.ctx, st, ref, out)
		}
		return box(out)
	}
	ds := ctx.newDataset("partitionBy<-"+parent.name, part.NumPartitions(), part)
	ds.shuffle = sd
	// Read as chunks, the buckets read in place are the chunks: they alias
	// the slabs past the read lock, so the read pins the shuffle.
	asChunks := func(tc *TaskContext, st *shuffleState, refs []bucketRef) partition {
		tc.pin(st)
		chunks := take[[]Pair[K, V]](tc, len(refs))
		for i, ref := range refs {
			if tc.ctx.onDisk(ref) {
				chunks[i] = readStoredBucket(tc.ctx, st, ref, take[Pair[K, V]](tc, ref.n)[:0])
			} else {
				chunks[i] = unbox[Pair[K, V]](ref.slab)[ref.lo : ref.lo+ref.n]
			}
		}
		return chunks
	}
	ds.chunks = chunkFunc[Pair[K, V]](func(tc *TaskContext, split int, into [][]Pair[K, V]) [][]Pair[K, V] {
		if p := ctx.readShuffle(sd, split, tc, asChunks); p != nil {
			into = append(into, p.([][]Pair[K, V])...)
		}
		return into
	})
	return &RDD[Pair[K, V]]{ds: ds}
}

// appendBucket appends the records of one bucket of a PartitionBy shuffle
// to out: in place while its bytes are in memory, decoded from the block
// store once they live on disk.
func appendBucket[K comparable, V any](c *Context, st *shuffleState, ref bucketRef, out []Pair[K, V]) []Pair[K, V] {
	if c.onDisk(ref) {
		return readStoredBucket(c, st, ref, out)
	}
	return append(out, unbox[Pair[K, V]](ref.slab)[ref.lo:ref.lo+ref.n]...)
}

// CombineByKeyInPlace aggregates values per key into combiners of type C
// with map-side combining, shuffling by part — Spark's combineByKey, the
// wide transformation at the heart of the IM driver (Listing 1). If the
// RDD is already partitioned by an equal partitioner the aggregation
// happens in place without a shuffle (narrow), as Spark does.
// create makes a key's combiner from its first record; mergeValue (each
// later record) and mergeCombiners (each later map-side combiner) update
// it in place, through a pointer to its output slot. A merge must not
// modify its second argument, which lineage recomputation may read again.
func CombineByKeyInPlace[K comparable, V, C any](r *RDD[Pair[K, V]],
	create func(V) C, mergeValue func(*C, V), mergeCombiners func(*C, C),
	part Partitioner) *RDD[Pair[K, C]] {

	ctx := r.ds.ctx
	parent := r.ds
	if parent.part != nil && parent.part.Equal(part) {
		// Co-partitioned: combine within each partition, no data movement.
		ds := ctx.newDataset("combineByKey(narrow)<-"+parent.name, parent.parts, parent.part)
		ds.deps = []*dataset{parent}
		ds.narrow = func(tc *TaskContext, split int) partition {
			var one [1][]Pair[K, V]
			return box(combinePairs(tc, chunksOf(parent, split, tc, &one), create, mergeValue))
		}
		return &RDD[Pair[K, C]]{ds: ds}
	}

	sd := ctx.newShuffleDep(parent, part)
	sd.combining = true
	sd.bucket = func(tc *TaskContext, split int, _ Codec) ([]taskBucket, int64) {
		var one [1][]Pair[K, V]
		combined := combinePairs(tc, chunksOf(parent, split, tc, &one), create, mergeValue)
		return bucketPairs(tc, [][]Pair[K, C]{combined}, part, nil)
	}
	sd.merge = func(tc *TaskContext, _ *shuffleState, refs []bucketRef) partition {
		chunks := take[[]Pair[K, C]](tc, len(refs))
		for i, ref := range refs {
			chunks[i] = unbox[Pair[K, C]](ref.slab)[ref.lo : ref.lo+ref.n]
		}
		return box(combinePairs(tc, chunks, func(c C) C { return c }, mergeCombiners))
	}
	ds := ctx.newDataset("combineByKey<-"+parent.name, part.NumPartitions(), part)
	ds.shuffle = sd
	return &RDD[Pair[K, C]]{ds: ds}
}

// CombineByKey is CombineByKeyInPlace for merges that return the merged
// combiner, which is stored back into the key's slot.
func CombineByKey[K comparable, V, C any](r *RDD[Pair[K, V]],
	create func(V) C, mergeValue func(C, V) C, mergeCombiners func(C, C) C,
	part Partitioner) *RDD[Pair[K, C]] {
	return CombineByKeyInPlace(r, create,
		func(c *C, v V) { *c = mergeValue(*c, v) },
		func(c *C, o C) { *c = mergeCombiners(*c, o) },
		part)
}

// combinePairs folds the records of chunks, in order, into one combiner
// per key, keys in first-seen order. numberKeys numbers the keys as they
// appear, which sizes the output exactly; the second pass fills the slots
// — one equal to the count made so far is a key's first record.
func combinePairs[K comparable, V, C any](tc *TaskContext, chunks [][]Pair[K, V], create func(V) C, merge func(*C, V)) []Pair[K, C] {
	slots, keys := numberKeys(tc, chunks)
	return combineSlots(tc, chunks, slots, keys, create, merge)
}

// combineSlots is combinePairs' second pass, given the slot of every
// record (in chunk order) and the number of distinct keys.
func combineSlots[K comparable, V, C any](tc *TaskContext, chunks [][]Pair[K, V], slots []int32, keys int,
	create func(V) C, merge func(*C, V)) []Pair[K, C] {
	if keys == 0 {
		return nil
	}
	// Every slot is created before it is merged into, so a recycled slice
	// needs no clearing.
	out := take[Pair[K, C]](tc, keys)
	made := 0
	for _, ch := range chunks {
		for i := range ch {
			s := int(slots[0])
			slots = slots[1:]
			if s == made {
				out[s] = Pair[K, C]{Key: ch[i].Key, Value: create(ch[i].Value)}
				made++
			} else {
				merge(&out[s].Value, ch[i].Value)
			}
		}
	}
	return out
}

// numberKeys gives every record of chunks its key's slot, keys numbered
// in first-seen order, and returns the slots and the key count. Tile
// coordinates — the DP drivers' keys — are numbered through a dense
// table when they are dense enough; anything else goes through a map.
func numberKeys[K comparable, V any](tc *TaskContext, chunks [][]Pair[K, V]) ([]int32, int) {
	n := 0
	for _, ch := range chunks {
		n += len(ch)
	}
	if n == 0 {
		return nil, 0
	}
	if cs, ok := any(chunks).([][]Pair[matrix.Coord, V]); ok {
		if slots, keys, ok := numberCoords(tc, cs, n); ok {
			return slots, keys
		}
	}
	return numberByMap(tc, chunks, n)
}

// numberByMap numbers the n records' keys through a map.
func numberByMap[K comparable, V any](tc *TaskContext, chunks [][]Pair[K, V], n int) ([]int32, int) {
	slots := take[int32](tc, n)[:0]
	index := make(map[K]int32, n)
	for _, ch := range chunks {
		for i := range ch {
			s, seen := index[ch[i].Key]
			if !seen {
				s = int32(len(index))
				index[ch[i].Key] = s
			}
			slots = append(slots, s)
		}
	}
	return slots, len(index)
}

// denseSlack bounds the dense table: it is used when the keys' bounding
// box has at most denseSlack cells per record plus denseMinCells. A
// task's tiles under the default hash partitioner are spread over the
// whole grid, a few cells per record; a sparser box (or a negative
// coordinate) goes to the map.
const (
	denseSlack    = 8
	denseMinCells = 64
)

// numberCoords numbers the n records' coordinate keys through a table
// over their bounding box, cell (I−minI)·w + (J−minJ) holding a key's
// slot + 1. ok is false when the box is too sparse for one.
func numberCoords[V any](tc *TaskContext, chunks [][]Pair[matrix.Coord, V], n int) (slots []int32, keys int, ok bool) {
	minI, minJ, maxI, maxJ := math.MaxInt, math.MaxInt, -1, -1
	for _, ch := range chunks {
		for i := range ch {
			c := ch[i].Key
			if c.I < 0 || c.J < 0 {
				return nil, 0, false
			}
			minI, maxI = min(minI, c.I), max(maxI, c.I)
			minJ, maxJ = min(minJ, c.J), max(maxJ, c.J)
		}
	}
	h, w := uint64(maxI-minI)+1, uint64(maxJ-minJ)+1
	if h*w/h != w || h*w > denseSlack*uint64(n)+denseMinCells {
		return nil, 0, false
	}
	area := int(h * w)
	tp := takeInt32s(area)
	table := (*tp)[:area]
	clear(table)
	slots = take[int32](tc, n)[:0]
	for _, ch := range chunks {
		for i := range ch {
			cell := &table[(ch[i].Key.I-minI)*int(w)+ch[i].Key.J-minJ]
			if *cell == 0 {
				keys++
				*cell = int32(keys)
			}
			slots = append(slots, *cell-1)
		}
	}
	int32Scratch.Put(tp)
	return slots, keys, true
}

// GroupByKey gathers all values per key (combineByKey with slice
// combiners).
func GroupByKey[K comparable, V any](r *RDD[Pair[K, V]], part Partitioner) *RDD[Pair[K, []V]] {
	return CombineByKeyInPlace(r,
		func(v V) []V { return []V{v} },
		func(c *[]V, v V) { *c = append(*c, v) },
		func(c *[]V, o []V) { *c = append(*c, o...) },
		part)
}

// ReduceByKey merges values per key with an associative, commutative op.
func ReduceByKey[K comparable, V any](r *RDD[Pair[K, V]], op func(a, b V) V, part Partitioner) *RDD[Pair[K, V]] {
	return CombineByKey(r, func(v V) V { return v }, op, op, part)
}
