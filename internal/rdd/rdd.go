package rdd

import "fmt"

// RDD is a typed, lazily evaluated, partitioned distributed dataset —
// transformations build lineage; actions (Collect, Count) trigger jobs.
type RDD[T any] struct {
	ds *dataset
}

// NumPartitions returns the partition count.
func (r *RDD[T]) NumPartitions() int { return r.ds.parts }

// Checkpoint eagerly materializes the RDD and truncates its lineage: its
// partitions become stored data, upstream shuffles and parents are
// released. Iterative drivers checkpoint each generation of the DP table,
// exactly like the Spark implementations the paper builds on (unbounded
// lineage would otherwise force every action to replay all earlier
// generations' shuffle files). The materialization stage is charged like
// any other.
func (r *RDD[T]) Checkpoint() error {
	r.ds.checkpoint()
	return r.ds.ctx.Err()
}

// CheckpointData checkpoints like Checkpoint and additionally returns
// the materialized rows, typed, per partition. It is the durable
// checkpointer's hook: the driver persists exactly the materialization
// the cadence checkpoint runs anyway, so writing to Config.DurableDir
// adds no extra stage — stage numbering, fault-plan firing points and
// the virtual clock are identical with and without a durable dir. The
// rows are the engine's own partitions: read-only.
func (r *RDD[T]) CheckpointData() ([][]T, error) {
	return unboxAll[T](r.ds.checkpoint()), r.ds.ctx.Err()
}

// checkpoint computes every partition of ds, makes them its source in
// place of its lineage and returns them.
func (ds *dataset) checkpoint() []partition {
	data := ds.ctx.runJob(ds)
	ds.source, ds.narrow, ds.chunks, ds.shuffle, ds.deps = data, nil, nil, nil, nil
	return data
}

// Parallelize distributes records across parts partitions (round-robin,
// like sc.parallelize on an unkeyed collection).
func Parallelize[T any](c *Context, recs []T, parts int) *RDD[T] {
	if parts < 1 {
		panic("rdd: Parallelize needs ≥1 partitions")
	}
	ds := c.newDataset(fmt.Sprintf("parallelize[%d]", len(recs)), parts, nil)
	src := make([][]T, parts)
	for i, rec := range recs {
		p := i % parts
		src[p] = append(src[p], rec)
	}
	ds.source = boxAll(src)
	return &RDD[T]{ds: ds}
}

// ParallelizePairs distributes key-value records into the partitions the
// given partitioner assigns, yielding a co-partitioned pair RDD (like
// sc.parallelize(...).partitionBy(p) without the extra shuffle).
func ParallelizePairs[K comparable, V any](c *Context, recs []Pair[K, V], part Partitioner) *RDD[Pair[K, V]] {
	p := part.NumPartitions()
	ds := c.newDataset(fmt.Sprintf("parallelizePairs[%d]", len(recs)), p, part)
	src := make([][]Pair[K, V], p)
	partOf := partitionFunc[K](part)
	for _, rec := range recs {
		b := partOf(rec.Key)
		src[b] = append(src[b], rec)
	}
	ds.source = boxAll(src)
	return &RDD[Pair[K, V]]{ds: ds}
}

// unboxAll recovers the typed rows of a job's partitions.
func unboxAll[T any](parts []partition) [][]T {
	out := make([][]T, len(parts))
	for i, p := range parts {
		out[i] = unbox[T](p)
	}
	return out
}

// boxAll boxes each partition of a driver-built source.
func boxAll[T any](src [][]T) []partition {
	out := make([]partition, len(src))
	for i, recs := range src {
		out[i] = box(recs)
	}
	return out
}

// Filter returns the records satisfying pred. Narrow; preserves the
// partitioner (keys are untouched).
func (r *RDD[T]) Filter(pred func(T) bool) *RDD[T] {
	parent := r.ds
	ctx := r.ds.ctx
	ds := ctx.newDataset("filter<-"+parent.name, parent.parts, parent.part)
	ds.deps = []*dataset{parent}
	ds.narrow = func(tc *TaskContext, split int) partition {
		p := ctx.iterate(parent, split, tc)
		in := unbox[T](p)
		// Count first: a partition that passes entirely is handed through
		// (box and all) and one that matches nothing returns nil, so only
		// partitions the predicate splits pay for a copy — the DP drivers'
		// grid filters almost never do.
		keep := 0
		for i := range in {
			if pred(in[i]) {
				keep++
			}
		}
		switch keep {
		case 0:
			return nil
		case len(in):
			return p
		}
		out := take[T](tc, keep)[:0]
		for i := range in {
			if pred(in[i]) {
				out = append(out, in[i])
			}
		}
		return out
	}
	return &RDD[T]{ds: ds}
}

// narrow builds a one-parent narrow transformation: f maps partitions.
func narrow[T, U any](r *RDD[T], op string, part Partitioner, f func(tc *TaskContext, split int, in []T) partition) *RDD[U] {
	parent := r.ds
	ds := parent.ctx.newDataset(op+"<-"+parent.name, parent.parts, part)
	ds.deps = []*dataset{parent}
	ds.narrow = func(tc *TaskContext, split int) partition {
		return f(tc, split, unbox[T](parent.ctx.iterate(parent, split, tc)))
	}
	return &RDD[U]{ds: ds}
}

// Map applies f to every record. Narrow; clears the partitioner (keys may
// change). f receives the TaskContext to charge modelled kernel time.
func Map[T, U any](r *RDD[T], f func(tc *TaskContext, rec T) U) *RDD[U] {
	return narrow[T, U](r, "map", nil, func(tc *TaskContext, _ int, in []T) partition {
		if len(in) == 0 {
			return nil
		}
		out := take[U](tc, len(in))
		for i := range in {
			out[i] = f(tc, in[i])
		}
		return out
	})
}

// FlatMap applies f to every record and concatenates the results.
// Narrow; clears the partitioner. The engine keeps the slices f returns
// until the partition is assembled (and adopts a lone one as the
// partition), so f must return a fresh slice per call. A slice f takes
// from Scratch is recycled: in a shuffle-map task the engine reuses it
// once the task's records are in the shuffle, so f must not keep it.
func FlatMap[T, U any](r *RDD[T], f func(tc *TaskContext, rec T) []U) *RDD[U] {
	out := narrow[T, U](r, "flatMap", nil, func(tc *TaskContext, _ int, in []T) partition {
		if len(in) == 0 {
			return nil
		}
		// Gather the emits, then copy once into an exactly sized slice.
		emits := take[[]U](tc, len(in))
		total := 0
		for i := range in {
			emits[i] = f(tc, in[i])
			total += len(emits[i])
		}
		return box(concat(tc, emits, total))
	})
	// Read as chunks, the emits are the chunks: no copy at all.
	parent := r.ds
	out.ds.chunks = chunkFunc[U](func(tc *TaskContext, split int, into [][]U) [][]U {
		in := unbox[T](parent.ctx.iterate(parent, split, tc))
		into = grow(tc, into, len(in))
		for i := range in {
			if e := f(tc, in[i]); len(e) > 0 {
				into = append(into, e)
			}
		}
		return into
	})
	return out
}

// concat joins chunks holding total records into one slice; when a single
// chunk holds them all it is returned as is.
func concat[T any](tc *TaskContext, chunks [][]T, total int) []T {
	if total == 0 {
		return nil
	}
	for _, ch := range chunks {
		if len(ch) == total {
			return ch
		}
	}
	out := take[T](tc, total)[:0]
	for _, ch := range chunks {
		out = append(out, ch...)
	}
	return out
}

// MapPartitions applies f to each whole partition. preservesPartitioning
// keeps the input partitioner (assert keys unchanged), as in Spark. recs
// is the engine's own partition, not a copy: f must not modify it, nor
// keep it past its return. A slice f returns from Scratch is recycled
// like FlatMap's emits.
func MapPartitions[T, U any](r *RDD[T], f func(tc *TaskContext, recs []T) []U, preservesPartitioning bool) *RDD[U] {
	var part Partitioner
	if preservesPartitioning {
		part = r.ds.part
	}
	return narrow[T, U](r, "mapPartitions", part, func(tc *TaskContext, _ int, in []T) partition {
		return box(f(tc, in))
	})
}

// Union concatenates RDDs of the same type. When every input shares one
// equal partitioner, the engine builds a partitioner-aware union (same
// partition count, co-located merge — no shuffle needed downstream);
// otherwise the result has the summed partitions and no partitioner.
func (r *RDD[T]) Union(others ...*RDD[T]) *RDD[T] {
	all := append([]*RDD[T]{r}, others...)
	ctx := r.ds.ctx
	deps := make([]*dataset, len(all))
	for i, rr := range all {
		if rr.ds.ctx != ctx {
			panic("rdd: Union across contexts")
		}
		deps[i] = rr.ds
	}

	aware := r.ds.part != nil
	for _, rr := range all[1:] {
		if rr.ds.part == nil || !rr.ds.part.Equal(r.ds.part) {
			aware = false
			break
		}
	}

	if aware {
		ds := ctx.newDataset(fmt.Sprintf("paUnion[%d]", len(all)), r.ds.parts, r.ds.part)
		ds.deps = deps
		ds.narrow = func(tc *TaskContext, split int) partition {
			// Compute every input once (iterate charges compute). Most
			// partitions of the DP drivers' unions are empty or fed by one
			// input: those return nil or hand the one box through.
			var only partition
			var buf [4][]T
			ins, total := buf[:0], 0
			for _, d := range deps {
				p := ctx.iterate(d, split, tc)
				if p == nil {
					continue
				}
				only = p
				ins = append(ins, unbox[T](p))
				total += len(ins[len(ins)-1])
			}
			if len(ins) <= 1 {
				return only
			}
			return concat(tc, ins, total)
		}
		ds.chunks = chunkFunc[T](func(tc *TaskContext, split int, into [][]T) [][]T {
			for _, d := range deps {
				into = appendChunks(d, split, tc, into)
			}
			return into
		})
		return &RDD[T]{ds: ds}
	}

	total := 0
	for _, p := range deps {
		total += p.parts
	}
	ds := ctx.newDataset(fmt.Sprintf("union[%d]", len(all)), total, nil)
	ds.deps = deps
	ds.narrow = func(tc *TaskContext, split int) partition {
		for _, p := range deps {
			if split < p.parts {
				return ctx.iterate(p, split, tc)
			}
			split -= p.parts
		}
		panic("rdd: union split out of range")
	}
	return &RDD[T]{ds: ds}
}

// chunkFunc computes partition split of a dataset as the chunks whose
// concatenation is the partition, appended to into in record order.
type chunkFunc[T any] func(tc *TaskContext, split int, into [][]T) [][]T

// chunksOf reads partition split of ds as chunks, for a reader that only
// passes over the records — a combine, or a shuffle's map side. A dataset
// with a chunk reader (a partitioner-aware union, a flatMap, a shuffle's
// reduce side) hands over its pieces as they are instead of copying them
// into one partition; anything else is the one chunk one holds, so the
// common case allocates nothing. The chunks may alias an input or a
// shuffle's bucket slab, so the reader must neither keep nor modify them.
func chunksOf[T any](ds *dataset, split int, tc *TaskContext, one *[1][]T) [][]T {
	if f, ok := ds.chunks.(chunkFunc[T]); ok {
		return f(tc, split, nil)
	}
	one[0] = unbox[T](ds.ctx.iterate(ds, split, tc))
	return one[:]
}

// appendChunks is chunksOf for a chunk reader reading its inputs in turn:
// it appends ds's chunks to into, skipping an empty partition.
func appendChunks[T any](ds *dataset, split int, tc *TaskContext, into [][]T) [][]T {
	if f, ok := ds.chunks.(chunkFunc[T]); ok {
		return f(tc, split, into)
	}
	if p := unbox[T](ds.ctx.iterate(ds, split, tc)); len(p) > 0 {
		into = append(into, p)
	}
	return into
}
