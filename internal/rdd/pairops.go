package rdd

// Pair-RDD operations. These mirror the PySpark calls of the paper's
// Listings 1–2: partitionBy, combineByKey, mapValues, plus the usual
// conveniences built on them.

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
		return bucketPairs(unbox[Pair[K, V]](ctx.iterate(parent, split, tc)), part, codec)
	}
	sd.merge = func(c *Context, st *shuffleState, refs []bucketRef) partition {
		total := 0
		for _, ref := range refs {
			total += ref.n
		}
		out := make([]Pair[K, V], 0, total)
		for _, ref := range refs {
			if ref.stored {
				c.readStoredBucket(st, ref, func(rec Record) { out = append(out, rec.(Pair[K, V])) })
			} else {
				out = append(out, unbox[Pair[K, V]](ref.slab)[ref.lo:ref.lo+ref.n]...)
			}
		}
		return box(out)
	}
	ds := ctx.newDataset("partitionBy<-"+parent.name, part.NumPartitions(), part)
	ds.shuffle = sd
	return &RDD[Pair[K, V]]{ds: ds}
}

// CombineByKey aggregates values per key into combiners of type C with
// map-side combining, shuffling by part — Spark's combineByKey, the wide
// transformation at the heart of the IM driver (Listing 1). If the RDD is
// already partitioned by an equal partitioner the aggregation happens
// in place without a shuffle (narrow), as Spark does.
func CombineByKey[K comparable, V, C any](r *RDD[Pair[K, V]],
	create func(V) C, mergeValue func(C, V) C, mergeCombiners func(C, C) C,
	part Partitioner) *RDD[Pair[K, C]] {

	ctx := r.ds.ctx
	parent := r.ds
	if parent.part != nil && parent.part.Equal(part) {
		// Co-partitioned: combine within each partition, no data movement.
		return narrow[Pair[K, V], Pair[K, C]](r, "combineByKey(narrow)", parent.part,
			func(_ *TaskContext, _ int, in []Pair[K, V]) partition {
				return box(combinePairs([][]Pair[K, V]{in}, create, mergeValue))
			})
	}

	sd := ctx.newShuffleDep(parent, part)
	sd.combining = true
	sd.bucket = func(tc *TaskContext, split int, _ Codec) ([]taskBucket, int64) {
		in := unbox[Pair[K, V]](ctx.iterate(parent, split, tc))
		return bucketPairs(combinePairs([][]Pair[K, V]{in}, create, mergeValue), part, nil)
	}
	sd.merge = func(_ *Context, _ *shuffleState, refs []bucketRef) partition {
		chunks := make([][]Pair[K, C], len(refs))
		for i, ref := range refs {
			chunks[i] = unbox[Pair[K, C]](ref.slab)[ref.lo : ref.lo+ref.n]
		}
		return box(combinePairs(chunks, func(c C) C { return c }, mergeCombiners))
	}
	ds := ctx.newDataset("combineByKey<-"+parent.name, part.NumPartitions(), part)
	ds.shuffle = sd
	return &RDD[Pair[K, C]]{ds: ds}
}

// combinePairs folds the records of chunks, in order, into one combiner
// per key, keys in first-seen order. The first pass numbers the keys as
// they appear, which sizes the output exactly; the second fills the
// slots — one equal to the count made so far is a key's first record.
func combinePairs[K comparable, V, C any](chunks [][]Pair[K, V], create func(V) C, merge func(C, V) C) []Pair[K, C] {
	n := 0
	for _, ch := range chunks {
		n += len(ch)
	}
	if n == 0 {
		return nil
	}
	slots := make([]int32, 0, n)
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
	out := make([]Pair[K, C], len(index))
	made := 0
	for _, ch := range chunks {
		for i := range ch {
			s := int(slots[0])
			slots = slots[1:]
			if s == made {
				out[s] = Pair[K, C]{Key: ch[i].Key, Value: create(ch[i].Value)}
				made++
			} else {
				out[s].Value = merge(out[s].Value, ch[i].Value)
			}
		}
	}
	return out
}

// GroupByKey gathers all values per key (combineByKey with slice
// combiners).
func GroupByKey[K comparable, V any](r *RDD[Pair[K, V]], part Partitioner) *RDD[Pair[K, []V]] {
	return CombineByKey(r,
		func(v V) []V { return []V{v} },
		func(c []V, v V) []V { return append(c, v) },
		func(a, b []V) []V { return append(a, b...) },
		part)
}

// ReduceByKey merges values per key with an associative, commutative op.
func ReduceByKey[K comparable, V any](r *RDD[Pair[K, V]], op func(a, b V) V, part Partitioner) *RDD[Pair[K, V]] {
	return CombineByKey(r,
		func(v V) V { return v },
		op,
		op,
		part)
}

// Keys projects the keys of a pair RDD.
func Keys[K comparable, V any](r *RDD[Pair[K, V]]) *RDD[K] {
	return Map(r, func(_ *TaskContext, p Pair[K, V]) K { return p.Key })
}

// Values projects the values of a pair RDD.
func Values[K comparable, V any](r *RDD[Pair[K, V]]) *RDD[V] {
	return Map(r, func(_ *TaskContext, p Pair[K, V]) V { return p.Value })
}
