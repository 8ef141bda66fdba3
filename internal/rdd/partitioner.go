// Package rdd is a from-scratch, Spark-like distributed dataflow engine:
// lazily evaluated, lineage-tracked distributed datasets with narrow and
// wide (shuffle) transformations, a DAG scheduler that splits jobs into
// stages at wide dependencies and launches one task per partition, hash
// and grid partitioners, driver-side collect, and broadcast through a
// shared filesystem.
//
// The engine executes every job twice over, in one pass: it *really*
// computes the records (so laptop-scale runs produce validated results)
// and it *prices* the run against a cluster cost model (internal/sim),
// advancing a virtual clock. Paper-scale experiments use symbolic tiles
// as record payloads, which makes the real computation free while the
// stage/task structure, byte accounting and virtual timing stay identical.
package rdd

import (
	"fmt"
	"hash/fnv"

	"dpspark/internal/matrix"
)

// Partitioner assigns pair-RDD keys to partitions, like
// org.apache.spark.Partitioner. Two RDDs co-partitioned by equal
// partitioners can be combined without a shuffle (paper §II, footnote 1).
type Partitioner interface {
	// NumPartitions returns the partition count.
	NumPartitions() int
	// Partition maps a key to [0, NumPartitions).
	Partition(key any) int
	// Equal reports whether other partitions keys identically.
	Equal(other Partitioner) bool
}

// HashPartitioner is Spark's default partitioner: hash(key) mod p.
type HashPartitioner struct {
	// P is the number of partitions.
	P int
}

// NewHashPartitioner returns the default partitioner with p partitions.
func NewHashPartitioner(p int) HashPartitioner {
	if p < 1 {
		panic(fmt.Sprintf("rdd: partitioner needs ≥1 partitions, got %d", p))
	}
	return HashPartitioner{P: p}
}

// NumPartitions implements Partitioner.
func (h HashPartitioner) NumPartitions() int { return h.P }

// Partition implements Partitioner.
func (h HashPartitioner) Partition(key any) int {
	return int(hashKey(key) % uint64(h.P))
}

func (h HashPartitioner) partitionCoord(c matrix.Coord) int {
	return int(hashCoord(c) % uint64(h.P))
}

// Equal implements Partitioner.
func (h HashPartitioner) Equal(other Partitioner) bool {
	o, ok := other.(HashPartitioner)
	return ok && o.P == h.P
}

// GridPartitioner is the custom partitioner the paper names as future
// work (§VI): it exploits the tile-grid key structure, placing tile (i,j)
// of an R×R grid deterministically so that block rows stay together and
// consecutive partitions land on distinct executors. Compared to hashing
// it removes the "probabilistic nature of the default partitioner" the
// paper blames for load imbalance.
type GridPartitioner struct {
	// P is the number of partitions.
	P int
	// R is the tile-grid dimension.
	R int
}

// NewGridPartitioner returns a grid-aware partitioner.
func NewGridPartitioner(p, r int) GridPartitioner {
	if p < 1 || r < 1 {
		panic(fmt.Sprintf("rdd: bad grid partitioner (p=%d, r=%d)", p, r))
	}
	return GridPartitioner{P: p, R: r}
}

// NumPartitions implements Partitioner.
func (g GridPartitioner) NumPartitions() int { return g.P }

// Partition implements Partitioner. Non-Coord keys fall back to hashing.
func (g GridPartitioner) Partition(key any) int {
	c, ok := key.(matrix.Coord)
	if !ok {
		return int(hashKey(key) % uint64(g.P))
	}
	return g.partitionCoord(c)
}

func (g GridPartitioner) partitionCoord(c matrix.Coord) int {
	// Linearize row-major, then spread contiguous runs of tiles across
	// partitions evenly (round-robin over equal-size chunks).
	idx := c.I*g.R + c.J
	return idx % g.P
}

// Equal implements Partitioner.
func (g GridPartitioner) Equal(other Partitioner) bool {
	o, ok := other.(GridPartitioner)
	return ok && o == g
}

// coordPartitioner is the unboxed entry the built-in partitioners offer
// for tile coordinates: Partition(key any) heap-boxes every 16-byte Coord.
type coordPartitioner interface {
	partitionCoord(c matrix.Coord) int
}

// partitionFunc resolves how part assigns keys of type K: the unboxed
// entry when K is matrix.Coord and part has one, Partition(any) for user
// partitioners and every other key type.
func partitionFunc[K comparable](part Partitioner) func(K) int {
	if cp, ok := part.(coordPartitioner); ok {
		if f, ok := any(cp.partitionCoord).(func(K) int); ok {
			return f
		}
	}
	return func(k K) int { return part.Partition(k) }
}

// hashCoord is a SplitMix-style scramble of the packed coordinate.
func hashCoord(c matrix.Coord) uint64 {
	x := uint64(uint32(c.I))<<32 | uint64(uint32(c.J))
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// hashKey hashes the supported key types. Tile coordinates get a cheap
// direct path; other comparable keys hash their printed form.
func hashKey(key any) uint64 {
	switch k := key.(type) {
	case matrix.Coord:
		return hashCoord(k)
	case int:
		x := uint64(k) * 0x9e3779b97f4a7c15
		return x ^ (x >> 29)
	case string:
		h := fnv.New64a()
		h.Write([]byte(k))
		return h.Sum64()
	default:
		h := fnv.New64a()
		fmt.Fprintf(h, "%v", key)
		return h.Sum64()
	}
}
