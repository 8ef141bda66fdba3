package rdd

import (
	"fmt"
	"reflect"
	"testing"

	"dpspark/internal/cluster"
	"dpspark/internal/matrix"
)

// Property tests for the typed record path: the unboxed shortcuts must be
// indistinguishable from the boxed entries they bypass, and everything
// that has no shortcut must still work through the fallback.

// TestCoordPartitionMatchesBoxed: for both built-in partitioners, over a
// full grid and several partition counts, the unboxed coordinate entry
// the generic code resolves equals Partition(any) — and really is
// unboxed.
func TestCoordPartitionMatchesBoxed(t *testing.T) {
	const r = 40
	var parts []Partitioner
	for _, p := range []int{1, 2, 7, 8, 64, 1024} {
		parts = append(parts, NewHashPartitioner(p), NewGridPartitioner(p, r))
	}
	for _, part := range parts {
		partOf := partitionFunc[matrix.Coord](part)
		for i := 0; i < r; i++ {
			for j := 0; j < r; j++ {
				c := matrix.Coord{I: i, J: j}
				if got, want := partOf(c), part.Partition(c); got != want {
					t.Fatalf("%#v: unboxed %v → %d, Partition(any) → %d", part, c, got, want)
				}
			}
		}
		c := matrix.Coord{I: 3, J: 1 << 20}
		if n := testing.AllocsPerRun(100, func() { partOf(c) }); n != 0 {
			t.Fatalf("%#v: unboxed entry allocates %.0f per key", part, n)
		}
	}
}

// modPartitioner is a user-defined partitioner: it has no unboxed entry,
// so every key type goes through Partition(any).
type modPartitioner struct{ p int }

func (m modPartitioner) NumPartitions() int { return m.p }
func (m modPartitioner) Partition(key any) int {
	switch k := key.(type) {
	case int:
		return k % m.p
	case matrix.Coord:
		return (k.I + k.J) % m.p
	case string:
		return len(k) % m.p
	}
	panic(fmt.Sprintf("modPartitioner: key %T", key))
}
func (m modPartitioner) Equal(o Partitioner) bool { return o == Partitioner(m) }

// landsWhere runs a PartitionBy and returns, per output partition, the
// keys it holds — checked against Partition(any) record by record.
func landsWhere[K comparable](t *testing.T, ctx *Context, keys []K, part Partitioner) {
	t.Helper()
	recs := make([]Pair[K, int], len(keys))
	for i, k := range keys {
		recs[i] = KV(k, i)
	}
	out, err := PartitionBy(Parallelize(ctx, recs, 3), part).CheckpointData()
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for p, rows := range out {
		for _, rec := range rows {
			seen++
			if want := part.Partition(rec.Key); want != p {
				t.Fatalf("%T key %v landed in partition %d, Partition(any) says %d", part, rec.Key, p, want)
			}
			if keys[rec.Value] != rec.Key {
				t.Fatalf("record %v lost its value", rec)
			}
		}
	}
	if seen != len(keys) {
		t.Fatalf("%T: %d of %d records arrived", part, seen, len(keys))
	}
}

// TestFallbackPartitionersStillShuffle: user partitioners and non-Coord
// keys shuffle through Partition(any), through both wide operations.
func TestFallbackPartitionersStillShuffle(t *testing.T) {
	ctx := testCtx()
	var coords []matrix.Coord
	var words []string
	for i := 0; i < 60; i++ {
		coords = append(coords, matrix.Coord{I: i % 7, J: i / 7})
		words = append(words, fmt.Sprintf("%0*d", 1+i%9, i))
	}
	landsWhere(t, ctx, ints(60), Partitioner(NewHashPartitioner(5)))
	landsWhere(t, ctx, ints(60), Partitioner(NewGridPartitioner(5, 8)))
	landsWhere(t, ctx, ints(60), Partitioner(modPartitioner{4}))
	landsWhere(t, ctx, words, Partitioner(NewHashPartitioner(5)))
	landsWhere(t, ctx, words, Partitioner(modPartitioner{4}))
	landsWhere(t, ctx, coords, Partitioner(modPartitioner{4}))

	// CombineByKey over string keys with a user partitioner.
	var recs []Pair[string, int]
	for i := 0; i < 90; i++ {
		recs = append(recs, KV(words[i%30], 1))
	}
	sums, err := CollectMap(ReduceByKey(Parallelize(ctx, recs, 4), func(a, b int) int { return a + b }, modPartitioner{3}))
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 30 {
		t.Fatalf("%d keys, want 30", len(sums))
	}
	for k, v := range sums {
		if v != 3 {
			t.Fatalf("key %q summed to %d, want 3", k, v)
		}
	}
}

// TestCombineKeepsFirstSeenKeyOrder: the map side combines a partition's
// records with keys in first-seen order, the reduce side merges the map
// tasks' buckets in map-partition order keeping first-seen order again,
// and the co-partitioned (narrow) combine does the same — the order the
// boxed map+order-slice implementation produced.
func TestCombineKeepsFirstSeenKeyOrder(t *testing.T) {
	ctx := NewContext(Conf{Cluster: cluster.Local(2)})
	// Two map partitions (Parallelize deals round-robin): even positions
	// go to partition 0, odd to partition 1.
	keys := []string{"d", "x", "a", "y", "d", "a", "c", "x", "a", "z"}
	recs := make([]Pair[string, string], len(keys))
	for i, k := range keys {
		recs[i] = KV(k, fmt.Sprint(i))
	}
	cat := func(a, b string) string { return a + "," + b }
	combined := CombineByKey(Parallelize(ctx, recs, 2),
		func(v string) string { return v }, cat, cat, NewHashPartitioner(1))
	got, err := combined.Collect()
	if err != nil {
		t.Fatal(err)
	}
	// Partition 0 holds d0 a2 d4 c6 a8 → d,a,c; partition 1 holds
	// x1 y3 a5 x7 z9 → x,y,a,z. Merged in map order: d,a,c,x,y,z.
	want := []Pair[string, string]{
		{"d", "0,4"}, {"a", "2,8,5"}, {"c", "6"}, {"x", "1,7"}, {"y", "3"}, {"z", "9"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shuffled combine:\n got  %v\n want %v", got, want)
	}

	// Narrow: already partitioned by an equal partitioner.
	part := NewHashPartitioner(1)
	narrow, err := CombineByKey(ParallelizePairs(ctx, recs, part),
		func(v string) string { return v }, cat, cat, part).Collect()
	if err != nil {
		t.Fatal(err)
	}
	wantNarrow := []Pair[string, string]{
		{"d", "0,4"}, {"x", "1,7"}, {"a", "2,5,8"}, {"y", "3"}, {"c", "6"}, {"z", "9"},
	}
	if !reflect.DeepEqual(narrow, wantNarrow) {
		t.Fatalf("narrow combine:\n got  %v\n want %v", narrow, wantNarrow)
	}

	// Coordinate keys take the dense table; the order is the same across
	// chunks — the reduce side's buckets and a union's inputs.
	c := func(i, j int) matrix.Coord { return matrix.Coord{I: i, J: j} }
	coords := []matrix.Coord{c(3, 1), c(0, 2), c(1, 1), c(0, 0), c(3, 1), c(1, 1), c(2, 2), c(0, 2), c(1, 1), c(5, 0)}
	crecs := make([]Pair[matrix.Coord, string], len(coords))
	for i, k := range coords {
		crecs[i] = KV(k, fmt.Sprint(i))
	}
	shuffled, err := CombineByKey(Parallelize(ctx, crecs, 2),
		func(v string) string { return v }, cat, cat, NewHashPartitioner(1)).Collect()
	if err != nil {
		t.Fatal(err)
	}
	// Partition 0: (3,1)0 (1,1)2 (3,1)4 (2,2)6 (1,1)8 → (3,1),(1,1),(2,2);
	// partition 1: (0,2)1 (0,0)3 (1,1)5 (0,2)7 (5,0)9 → (0,2),(0,0),(1,1),(5,0).
	wantCoord := []Pair[matrix.Coord, string]{
		{c(3, 1), "0,4"}, {c(1, 1), "2,8,5"}, {c(2, 2), "6"}, {c(0, 2), "1,7"}, {c(0, 0), "3"}, {c(5, 0), "9"},
	}
	if !reflect.DeepEqual(shuffled, wantCoord) {
		t.Fatalf("shuffled coordinate combine:\n got  %v\n want %v", shuffled, wantCoord)
	}
	front := ParallelizePairs(ctx, crecs[:5], part)
	back := ParallelizePairs(ctx, crecs[5:], part)
	unioned, err := CombineByKey(front.Union(back),
		func(v string) string { return v }, cat, cat, part).Collect()
	if err != nil {
		t.Fatal(err)
	}
	wantUnion := []Pair[matrix.Coord, string]{
		{c(3, 1), "0,4"}, {c(0, 2), "1,7"}, {c(1, 1), "2,5,8"}, {c(0, 0), "3"}, {c(2, 2), "6"}, {c(5, 0), "9"},
	}
	if !reflect.DeepEqual(unioned, wantUnion) {
		t.Fatalf("coordinate combine over a union:\n got  %v\n want %v", unioned, wantUnion)
	}
}

// TestCombiningShuffleStaysMemoryResident: under DurableDir a PartitionBy
// stages its buckets as blocks, a CombineByKey over the same records does
// not — combiners never reach the spill codec.
func TestCombiningShuffleStaysMemoryResident(t *testing.T) {
	ctx := newContext(t, durableConf(t, 0))
	recs := make([]Pair[int, int], 40)
	for i := range recs {
		recs[i] = KV(i%10, i)
	}
	part := NewHashPartitioner(4)
	add := func(a, b int) int { return a + b }

	sums, err := CollectMap(ReduceByKey(Parallelize(ctx, recs, 4), add, part))
	if err != nil || len(sums) != 10 || sums[3] != 3+13+23+33 {
		t.Fatalf("combine: %v, %v", sums, err)
	}
	if keys := ctx.Store().Keys("shuffle/"); len(keys) != 0 {
		t.Fatalf("combining shuffle staged blocks: %v", keys)
	}
	if n, err := PartitionBy(Parallelize(ctx, recs, 4), part).Count(); err != nil || n != 40 {
		t.Fatalf("partitionBy: %d, %v", n, err)
	}
	if keys := ctx.Store().Keys("shuffle/"); len(keys) == 0 {
		t.Fatal("non-combining shuffle staged nothing")
	}
}

// TestShuffleAllocsDoNotGrowWithRecords is the size-independent form of
// the allocation budget: the same narrow → shuffle → combine pipeline
// over 16× the records, with the same partitions (so the same stages,
// tasks and buckets), allocates almost nothing more — under 0.02 objects
// per added record, all of it hash-map growth. Before the typed path
// every added record cost nine and a half.
func TestShuffleAllocsDoNotGrowWithRecords(t *testing.T) {
	part := NewHashPartitioner(8)
	run := func(n int) float64 {
		recs := make([]Pair[matrix.Coord, int], n)
		for i := range recs {
			recs[i] = KV(matrix.Coord{I: i % 64, J: i / 64}, i)
		}
		return testing.AllocsPerRun(2, func() {
			ctx := NewContext(Conf{Cluster: cluster.Local(2)})
			in := ParallelizePairs(ctx, recs, part)
			moved := FlatMap(in.Filter(func(p Pair[matrix.Coord, int]) bool { return p.Value%16 != 0 }),
				func(_ *TaskContext, p Pair[matrix.Coord, int]) []Pair[matrix.Coord, int] {
					return []Pair[matrix.Coord, int]{KV(matrix.Coord{I: p.Key.J, J: p.Key.I}, p.Value)}
				})
			summed := ReduceByKey(MapValues(PartitionBy(moved, part),
				func(_ *TaskContext, _ matrix.Coord, v int) int { return v + 1 }),
				func(a, b int) int { return a + b }, NewGridPartitioner(8, 64))
			if _, err := summed.Count(); err != nil {
				t.Fatal(err)
			}
		})
	}
	const small, big = 1 << 10, 1 << 14
	a, b := run(small), run(big)
	// The FlatMap callback's own one-record slice is the test's, not the
	// engine's: one allocation per record that passes the filter.
	own := float64(big-small) * 15 / 16
	perAdded := (b - a - own) / float64(big-small)
	t.Logf("%d records: %.0f allocations; %d records: %.0f; %.4f per added record (callback's own excluded)", small, a, big, b, perAdded)
	if perAdded > 0.02 {
		t.Fatalf("%.4f engine allocations per added record, want ≤ 0.02", perAdded)
	}
}
