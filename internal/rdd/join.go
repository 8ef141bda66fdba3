package rdd

// CoGrouped holds the grouped values of both sides for one key.
type CoGrouped[V, W any] struct {
	Left  []V
	Right []W
}

// either carries one side's value through the common shuffle.
type either[V, W any] struct {
	left    V
	right   W
	isRight bool
}

// CoGroup groups two pair RDDs by key: for every key present in either
// input, the result holds all left values and all right values. Built
// from union + groupByKey, so co-partitioned inputs group without a
// shuffle.
func CoGroup[K comparable, V, W any](a *RDD[Pair[K, V]], b *RDD[Pair[K, W]], part Partitioner) *RDD[Pair[K, CoGrouped[V, W]]] {
	ae := Map(a, func(_ *TaskContext, p Pair[K, V]) Pair[K, either[V, W]] {
		return KV(p.Key, either[V, W]{left: p.Value})
	})
	be := Map(b, func(_ *TaskContext, p Pair[K, W]) Pair[K, either[V, W]] {
		return KV(p.Key, either[V, W]{right: p.Value, isRight: true})
	})
	return MapValues(GroupByKey(ae.Union(be), part),
		func(_ *TaskContext, _ K, es []either[V, W]) (g CoGrouped[V, W]) {
			for _, e := range es {
				if e.isRight {
					g.Right = append(g.Right, e.right)
				} else {
					g.Left = append(g.Left, e.left)
				}
			}
			return g
		})
}

// Joined is one inner-join match.
type Joined[V, W any] struct {
	Left  V
	Right W
}

// Join inner-joins two pair RDDs on key (the cross product of matching
// values per key).
func Join[K comparable, V, W any](a *RDD[Pair[K, V]], b *RDD[Pair[K, W]], part Partitioner) *RDD[Pair[K, Joined[V, W]]] {
	return FlatMap(CoGroup(a, b, part),
		func(_ *TaskContext, p Pair[K, CoGrouped[V, W]]) []Pair[K, Joined[V, W]] {
			if len(p.Value.Left) == 0 || len(p.Value.Right) == 0 {
				return nil
			}
			out := make([]Pair[K, Joined[V, W]], 0, len(p.Value.Left)*len(p.Value.Right))
			for _, l := range p.Value.Left {
				for _, r := range p.Value.Right {
					out = append(out, KV(p.Key, Joined[V, W]{Left: l, Right: r}))
				}
			}
			return out
		})
}
