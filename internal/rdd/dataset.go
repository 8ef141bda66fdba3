package rdd

import "fmt"

// Bucket is one staged bucket's records, a []T behind a single interface
// value, as the spill Codec sees it. The engine never boxes a single
// record, only whole partitions and buckets.
type Bucket = any

// partition is one materialised partition of an RDD[T]: a []T behind a
// single interface value, nil when empty. The typed transformations box
// their result once and unbox their input once; everything between —
// lineage, stages, shuffle state — only passes the value along.
type partition = any

// box wraps a result slice; empty results cost nothing.
func box[T any](recs []T) partition {
	if len(recs) == 0 {
		return nil
	}
	return recs
}

// unbox recovers the typed records of a partition.
func unbox[T any](p partition) []T {
	if p == nil {
		return nil
	}
	return p.([]T)
}

// dataset is the untyped lineage node behind every RDD[T]. Exactly one of
// source, narrow or shuffle is set:
//
//   - source: driver-parallelized records, pre-split into partitions;
//   - narrow: computed per-partition from parent datasets without data
//     movement (map, filter, flatMap, mapPartitions, union);
//   - shuffle: read from a shuffle's reduce-side buckets (the output of
//     PartitionBy / CombineByKey — a wide dependency).
type dataset struct {
	ctx   *Context
	id    int
	name  string
	parts int
	// part is the dataset's partitioner, nil if unknown. Narrow
	// transformations that cannot change keys preserve it (filter,
	// mapValues, partitioner-aware union); map/flatMap clear it.
	part Partitioner

	source  []partition
	narrow  func(tc *TaskContext, split int) partition
	shuffle *shuffleDep

	// deps are narrow parents (stage building walks through them).
	deps []*dataset
	// chunks, when set, is a chunkFunc of the dataset's record type: the
	// partition as the pieces narrow or the shuffle read would copy into
	// one slice, for readers that pass over them once (chunksOf).
	chunks any
}

// shuffleDep is a wide dependency: the parent's records are keyed,
// optionally map-side combined, partitioned by part and staged; the child
// reads the reduce-side buckets. The two halves that touch records are
// typed functions instantiated by PartitionBy / CombineByKey.
type shuffleDep struct {
	id     int
	parent *dataset
	part   Partitioner
	// phase is the driver phase active when the dependency was created;
	// the lazily-run map stage is attributed to it.
	phase string
	// combining marks a CombineByKey shuffle: its buckets hold combiners
	// and stay memory-resident (they never reach the spill codec).
	combining bool
	// bucket is the map side: compute one parent partition (combined,
	// when combining) and split it by part (bucketPairs). Returns the
	// buckets and their summed price.
	bucket func(tc *TaskContext, split int, codec Codec) ([]taskBucket, int64)
	// merge is the reduce side: concatenate (or, when combining, merge
	// per key) the records of one reduce partition's buckets.
	merge func(tc *TaskContext, st *shuffleState, refs []bucketRef) partition
}

// newDataset registers a lineage node with the context.
func (c *Context) newDataset(name string, parts int, part Partitioner) *dataset {
	if parts < 1 {
		panic(fmt.Sprintf("rdd: dataset %q needs ≥1 partitions", name))
	}
	c.mu.Lock()
	id := c.nextDataset
	c.nextDataset++
	c.mu.Unlock()
	return &dataset{ctx: c, id: id, name: name, parts: parts, part: part}
}

// iterate computes one partition of the dataset within a running task.
func (c *Context) iterate(ds *dataset, split int, tc *TaskContext) partition {
	if split < 0 || split >= ds.parts {
		panic(fmt.Sprintf("rdd: partition %d outside dataset %q (%d partitions)", split, ds.name, ds.parts))
	}
	switch {
	case ds.source != nil:
		return ds.source[split]
	case ds.shuffle != nil:
		return c.readShuffle(ds.shuffle, split, tc, ds.shuffle.merge)
	case ds.narrow != nil:
		return ds.narrow(tc, split)
	default:
		panic(fmt.Sprintf("rdd: dataset %q has no compute", ds.name))
	}
}
