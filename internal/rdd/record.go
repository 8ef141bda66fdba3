package rdd

import "dpspark/internal/matrix"

// Pair is a key-value record; RDDs of Pair support the pair-RDD
// operations (PartitionBy, CombineByKey, MapValues, ...). The paper's DP
// table is a pair RDD from tile coordinate (i,j) to the tile (§IV-C).
type Pair[K comparable, V any] struct {
	Key   K
	Value V
}

// KV constructs a pair.
func KV[K comparable, V any](k K, v V) Pair[K, V] { return Pair[K, V]{Key: k, Value: v} }

// sized lets record types report their own serialized size (e.g. the GEP
// drivers' tagged tile messages).
type sized interface {
	SizeBytes() int64
}

// pairCell is how the pricing code reaches into a Pair instantiation it
// cannot name: a pair prices as its key plus its value.
type pairCell interface {
	sizer() func() int64
}

func (p *Pair[K, V]) sizer() func() int64 {
	sk, sv := sizerOf[K](), sizerOf[V]()
	return func() int64 { return sk(p.Key) + sv(p.Value) }
}

// sizerOf resolves the function that prices records of type T — their
// serialized size in bytes, for shuffle, collect, cache and broadcast
// traffic accounting. Tiles price by payload, coordinates and scalars by
// a small fixed size, strings by length, pairs as key plus value, types
// with a SizeBytes method by what it reports, anything else at 64 bytes.
//
// The type is inspected once, here. The returned function copies each
// record into one cell allocated here and reads it through the pointer —
// behind an interface every record would escape to the heap. The cell
// makes it unsafe for concurrent use: resolve one per task.
func sizerOf[T any]() func(T) int64 {
	switch any((*T)(nil)).(type) {
	case *matrix.Coord:
		return func(T) int64 { return 16 }
	case *int, *int64, *float64, *uint64:
		return func(T) int64 { return 8 }
	}
	cell := new(T)
	switch p := any(cell).(type) {
	case pairCell:
		price := p.sizer()
		return func(v T) int64 { *cell = v; return price() }
	case **matrix.Tile:
		return func(v T) int64 {
			*cell = v
			if *p == nil {
				return 0
			}
			return (*p).Bytes()
		}
	case *string:
		return func(v T) int64 { *cell = v; return int64(len(*p)) }
	case sized:
		return func(v T) int64 { *cell = v; return p.SizeBytes() }
	}
	if _, ok := any(*cell).(sized); ok {
		// A pointer type carrying the method: boxing it allocates nothing.
		return func(v T) int64 { return any(v).(sized).SizeBytes() }
	}
	return func(T) int64 { return 64 }
}

// sizeAll prices a whole slice of records.
func sizeAll[T any](recs []T) int64 {
	size := sizerOf[T]()
	var bytes int64
	for i := range recs {
		bytes += size(recs[i])
	}
	return bytes
}
