package rdd

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"dpspark/internal/cluster"
	"dpspark/internal/matrix"
)

// gather is a combine that keeps every value in merge order, so equal
// outputs mean equal key order and equal merge order.
func gather[K comparable](chunks [][]Pair[K, int]) []Pair[K, []int] {
	return combinePairs(nil, chunks, func(v int) []int { return []int{v} },
		func(c *[]int, v int) { *c = append(*c, v) })
}

// gatherByMap is gather through the map numbering, the reference.
func gatherByMap[K comparable](chunks [][]Pair[K, int]) []Pair[K, []int] {
	n := 0
	for _, ch := range chunks {
		n += len(ch)
	}
	slots, keys := numberByMap(nil, chunks, n)
	return combineSlots(nil, chunks, slots, keys, func(v int) []int { return []int{v} },
		func(c *[]int, v int) { *c = append(*c, v) })
}

// TestDenseCombineMatchesMap: over random coordinate chunks — dense
// boxes, boxes too sparse for the table, negative coordinates, a single
// repeated key, empty and nil chunks — combinePairs produces exactly what
// the map numbering produces, keys in the same first-seen order and
// values merged in the same order; and the dense table is used exactly
// when the box is dense enough and no coordinate is negative.
func TestDenseCombineMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	type shape struct {
		name      string
		offI      int // added to every row
		h, w      int // box the keys are drawn from
		dense     bool
		repeatOne bool
	}
	shapes := []shape{
		{name: "grid", h: 64, w: 64, dense: true},
		{name: "offset grid", offI: 1000, h: 5, w: 40, dense: true},
		{name: "one row", h: 1, w: 300, dense: true},
		{name: "sparse", h: 4000, w: 4000, dense: false},
		{name: "negative", offI: -3, h: 6, w: 6, dense: false},
		{name: "one key", offI: 7, h: 1, w: 1, dense: true, repeatOne: true},
	}
	for _, sh := range shapes {
		denseRounds := 0
		for round := 0; round < 50; round++ {
			chunks := make([][]Pair[matrix.Coord, int], rng.Intn(4)+1)
			v := 0
			for c := range chunks {
				switch rng.Intn(5) {
				case 0: // nil chunk
					continue
				case 1:
					chunks[c] = []Pair[matrix.Coord, int]{}
					continue
				}
				recs := rng.Intn(1500) + 1
				for r := 0; r < recs; r++ {
					k := matrix.Coord{I: sh.offI + rng.Intn(sh.h), J: rng.Intn(sh.w)}
					if sh.repeatOne {
						k = matrix.Coord{I: sh.offI, J: 0}
					}
					chunks[c] = append(chunks[c], KV(k, v))
					v++
				}
			}
			if sh.name == "negative" && v > 0 {
				// Make sure one coordinate really is negative.
				for c := range chunks {
					if len(chunks[c]) > 0 {
						chunks[c][0].Key.I = -1
						break
					}
				}
			}
			got, want := gather(chunks), gatherByMap(chunks)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s round %d: dense\n %v\nmap\n %v", sh.name, round, got, want)
			}
			if v == 0 {
				if got != nil {
					t.Fatalf("%s round %d: no records, got %v", sh.name, round, got)
				}
				continue
			}
			if _, _, ok := numberCoords(nil, chunks, v); ok != denseBox(chunks, v) {
				t.Fatalf("%s round %d: dense table used = %v", sh.name, round, ok)
			} else if ok {
				denseRounds++
			}
		}
		if (denseRounds > 0) != sh.dense {
			t.Fatalf("%s: dense table used in %d of 50 rounds", sh.name, denseRounds)
		}
	}
	// The pooled tables go back cleared: a later, smaller combine that
	// reuses one numbers from scratch.
	a := [][]Pair[matrix.Coord, int]{{KV(matrix.Coord{I: 0, J: 0}, 1), KV(matrix.Coord{I: 9, J: 9}, 2)}}
	b := [][]Pair[matrix.Coord, int]{{KV(matrix.Coord{I: 9, J: 9}, 3), KV(matrix.Coord{I: 0, J: 0}, 4)}}
	for i := 0; i < 3; i++ {
		if got, want := gather(a), gatherByMap(a); !reflect.DeepEqual(got, want) {
			t.Fatalf("reuse %d: %v, want %v", i, got, want)
		}
		if got, want := gather(b), gatherByMap(b); !reflect.DeepEqual(got, want) {
			t.Fatalf("reuse %d: %v, want %v", i, got, want)
		}
	}
}

// denseBox is the rule for the dense table, restated: no negative
// coordinate, and a bounding box of at most denseSlack cells per record
// plus denseMinCells.
func denseBox(chunks [][]Pair[matrix.Coord, int], n int) bool {
	minI, minJ, maxI, maxJ := 1<<62, 1<<62, -1, -1
	for _, ch := range chunks {
		for _, p := range ch {
			if p.Key.I < 0 || p.Key.J < 0 {
				return false
			}
			minI, maxI = min(minI, p.Key.I), max(maxI, p.Key.I)
			minJ, maxJ = min(minJ, p.Key.J), max(maxJ, p.Key.J)
		}
	}
	return (maxI-minI+1)*(maxJ-minJ+1) <= denseSlack*n+denseMinCells
}

// unionInputsFor builds inputs for a partitioner-aware union: each input
// holds two records per key it is given, and counts every record it
// computes.
func unionInputsFor(ctx *Context, part Partitioner, keysPerInput [][]matrix.Coord, computed *atomic.Int64) []*RDD[Pair[matrix.Coord, int]] {
	var out []*RDD[Pair[matrix.Coord, int]]
	v := 0
	for _, keys := range keysPerInput {
		var recs []Pair[matrix.Coord, int]
		for rep := 0; rep < 2; rep++ {
			for _, k := range keys {
				recs = append(recs, KV(k, v))
				v++
			}
		}
		in := MapValues(ParallelizePairs(ctx, recs, part), func(_ *TaskContext, _ matrix.Coord, v int) int {
			computed.Add(1)
			return v
		})
		out = append(out, in)
	}
	return out
}

// coordsInBox lists the h×w coordinates from (i0, j0), row by row.
func coordsInBox(i0, j0, h, w int) []matrix.Coord {
	var out []matrix.Coord
	for i := i0; i < i0+h; i++ {
		for j := j0; j < j0+w; j++ {
			out = append(out, matrix.Coord{I: i, J: j})
		}
	}
	return out
}

// TestChunkedUnionCombineMatchesConcatenated: a co-partitioned combine
// over a partitioner-aware union reads the inputs' partitions as chunks;
// the result equals combining the union's concatenated partitions (forced
// here through a MapValues, which the chunked read does not see through),
// over two and three inputs and over a union where only one input holds
// records.
func TestChunkedUnionCombineMatchesConcatenated(t *testing.T) {
	part := NewHashPartitioner(3)
	cases := map[string][][]matrix.Coord{
		"two":      {coordsInBox(0, 0, 6, 6), coordsInBox(3, 3, 6, 6)},
		"three":    {coordsInBox(0, 0, 4, 8), coordsInBox(2, 0, 4, 8), coordsInBox(0, 5, 8, 3)},
		"one full": {nil, coordsInBox(1, 1, 5, 5), nil},
	}
	for name, keys := range cases {
		ctx := NewContext(Conf{Cluster: cluster.Local(2)})
		var computed atomic.Int64
		ins := unionInputsFor(ctx, part, keys, &computed)
		u := ins[0].Union(ins[1:]...)
		if u.ds.chunks == nil {
			t.Fatalf("%s: union is not partitioner-aware", name)
		}
		cat := func(c *[]int, v int) { *c = append(*c, v) }
		create := func(v int) []int { return []int{v} }
		merge := func(a *[]int, b []int) { *a = append(*a, b...) }
		got, err := CombineByKeyInPlace(u, create, cat, merge, part).Collect()
		if err != nil {
			t.Fatal(err)
		}
		concatenated := MapValues(u, func(_ *TaskContext, _ matrix.Coord, v int) int { return v })
		want, err := CombineByKeyInPlace(concatenated, create, cat, merge, part).Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: chunked\n %v\nconcatenated\n %v", name, got, want)
		}
	}
}

// TestShuffledCombineKeepsFirstSeenOrder: through a shuffle, each reduce
// partition merges the map sides' combiners in map-task order
// (mergeCombiners, in place), so its keys come out in first-seen order
// over the map tasks' records taken task by task, and each key's values
// in that order too — what one gather over those records produces.
func TestShuffledCombineKeepsFirstSeenOrder(t *testing.T) {
	const maps, records = 4, 200
	part := NewHashPartitioner(3)
	rng := rand.New(rand.NewSource(35))
	recs := make([]Pair[int, int], records)
	for i := range recs {
		recs[i] = KV(rng.Intn(25), i)
	}
	ctx := NewContext(Conf{Cluster: cluster.Local(2)})
	got, err := CombineByKeyInPlace(Parallelize(ctx, recs, maps),
		func(v int) []int { return []int{v} },
		func(c *[]int, v int) { *c = append(*c, v) },
		func(c *[]int, o []int) { *c = append(*c, o...) },
		part).Collect()
	if err != nil {
		t.Fatal(err)
	}
	// Parallelize deals the records round-robin; reduce partition p sees
	// map task 0's records of its keys, then task 1's, and so on.
	var want []Pair[int, []int]
	for p := 0; p < part.NumPartitions(); p++ {
		var seen []Pair[int, int]
		for m := 0; m < maps; m++ {
			for i := m; i < records; i += maps {
				if part.Partition(recs[i].Key) == p {
					seen = append(seen, recs[i])
				}
			}
		}
		want = append(want, gather([][]Pair[int, int]{seen})...)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shuffled combine:\n %v\nwant\n %v", got, want)
	}
}

// TestChunkReadersMatchMaterialised: a flatMap's emits feed a shuffle's
// map side, and a shuffle's in-memory buckets feed a combine, the records
// the materialised partitions hold, in the same order; so does a union of
// the two feeding a shuffling combine's map side. Each reference reads
// through a MapValues, which has no chunk reader.
func TestChunkReadersMatchMaterialised(t *testing.T) {
	part := NewHashPartitioner(3)
	ctx := NewContext(Conf{Cluster: cluster.Local(2)})
	emitted := FlatMap(Parallelize(ctx, coordsInBox(0, 0, 7, 5), 4),
		func(_ *TaskContext, k matrix.Coord) []Pair[matrix.Coord, int] {
			if k.I == 3 {
				return nil
			}
			return []Pair[matrix.Coord, int]{KV(k, 10*k.I+k.J), KV(matrix.Coord{I: k.J, J: k.I}, -k.I)}
		})
	var local []Pair[matrix.Coord, int]
	for i, k := range coordsInBox(2, 2, 4, 4) {
		local = append(local, KV(k, 1000+i))
	}
	materialised := func(r *RDD[Pair[matrix.Coord, int]]) *RDD[Pair[matrix.Coord, int]] {
		return MapValues(r, func(_ *TaskContext, _ matrix.Coord, v int) int { return v })
	}
	create := func(v int) []int { return []int{v} }
	cat := func(c []int, v int) []int { return append(c, v) }
	merge := func(a, b []int) []int { return append(a, b...) }
	collect := func(name string, r *RDD[Pair[matrix.Coord, []int]]) []Pair[matrix.Coord, []int] {
		t.Helper()
		out, err := r.Collect()
		if err != nil || len(out) == 0 {
			t.Fatalf("%s: %d records, err %v", name, len(out), err)
		}
		return out
	}

	shuffled := PartitionBy(emitted, part)
	got, err := shuffled.Collect()
	if err != nil {
		t.Fatal(err)
	}
	want, err := PartitionBy(materialised(emitted), part).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("flatMap emits as chunks:\n %v\nmaterialised\n %v", got, want)
	}

	if got, want := collect("buckets", CombineByKey(shuffled, create, cat, merge, part)),
		collect("merged buckets", CombineByKey(materialised(shuffled), create, cat, merge, part)); !reflect.DeepEqual(got, want) {
		t.Fatalf("buckets as chunks:\n %v\nmerged\n %v", got, want)
	}

	u := ParallelizePairs(ctx, local, part).Union(shuffled)
	other := NewHashPartitioner(2)
	if got, want := collect("union", CombineByKey(u, create, cat, merge, other)),
		collect("concatenated union", CombineByKey(materialised(u), create, cat, merge, other)); !reflect.DeepEqual(got, want) {
		t.Fatalf("shuffling combine over a union:\n %v\nconcatenated\n %v", got, want)
	}
}
