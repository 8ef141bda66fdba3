package rdd

import (
	"sort"
	"sync/atomic"
	"testing"

	"dpspark/internal/cluster"
	"dpspark/internal/matrix"
	"dpspark/internal/simtime"
)

func testCtx() *Context {
	return NewContext(Conf{Substrate: slots(cluster.Local(4), 4)})
}

func clusterCtx() *Context {
	return NewContext(Conf{Cluster: cluster.Skylake16()})
}

func ints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func sortedCollect[T any](t *testing.T, r *RDD[T], less func(a, b T) bool) []T {
	t.Helper()
	recs, err := r.Collect()
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	sort.Slice(recs, func(i, j int) bool { return less(recs[i], recs[j]) })
	return recs
}

func TestParallelizeCollect(t *testing.T) {
	ctx := testCtx()
	r := Parallelize(ctx, ints(100), 7)
	if r.NumPartitions() != 7 {
		t.Fatalf("parts = %d", r.NumPartitions())
	}
	got := sortedCollect(t, r, func(a, b int) bool { return a < b })
	if len(got) != 100 || got[0] != 0 || got[99] != 99 {
		t.Fatalf("collect = %v...", got[:5])
	}
}

func TestMapFilterFlatMap(t *testing.T) {
	ctx := testCtx()
	r := Parallelize(ctx, ints(20), 4)
	sq := Map(r, func(_ *TaskContext, x int) int { return x * x })
	even := sq.Filter(func(x int) bool { return x%2 == 0 })
	dup := FlatMap(even, func(_ *TaskContext, x int) []int { return []int{x, x} })
	got := sortedCollect(t, dup, func(a, b int) bool { return a < b })
	if len(got) != 20 { // 10 even squares, duplicated
		t.Fatalf("len = %d", len(got))
	}
	if got[0] != 0 || got[1] != 0 || got[19] != 324 {
		t.Fatalf("got = %v", got)
	}
}

func TestMapPartitionsPreservesPartitioner(t *testing.T) {
	ctx := testCtx()
	part := NewHashPartitioner(5)
	pairs := make([]Pair[int, int], 30)
	for i := range pairs {
		pairs[i] = KV(i, i)
	}
	r := ParallelizePairs(ctx, pairs, part)
	mp := MapPartitions(r, func(_ *TaskContext, recs []Pair[int, int]) []Pair[int, int] {
		out := make([]Pair[int, int], len(recs))
		for i, p := range recs {
			out[i] = KV(p.Key, p.Value*10)
		}
		return out
	}, true)
	if mp.ds.part == nil || !mp.ds.part.Equal(part) {
		t.Fatal("preservesPartitioning must keep the partitioner")
	}
	lost := MapPartitions(r, func(_ *TaskContext, recs []Pair[int, int]) []Pair[int, int] { return recs }, false)
	if lost.ds.part != nil {
		t.Fatal("partitioner must be dropped without the flag")
	}
}

func TestCountAndCollectMap(t *testing.T) {
	ctx := testCtx()
	pairs := []Pair[string, int]{KV("a", 1), KV("b", 2), KV("a", 3)}
	r := Parallelize(ctx, pairs, 2)
	n, err := r.Count()
	if err != nil || n != 3 {
		t.Fatalf("count = %d, %v", n, err)
	}
	m, err := CollectMap(ReduceByKey(r, func(a, b int) int { return a + b }, NewHashPartitioner(2)))
	if err != nil {
		t.Fatal(err)
	}
	if m["a"] != 4 || m["b"] != 2 {
		t.Fatalf("reduceByKey map = %v", m)
	}
}

func TestPartitionByPlacesByKey(t *testing.T) {
	ctx := testCtx()
	part := NewHashPartitioner(4)
	var pairs []Pair[int, string]
	for i := 0; i < 40; i++ {
		pairs = append(pairs, KV(i, "v"))
	}
	r := Parallelize(ctx, pairs, 3) // no partitioner
	if r.ds.part != nil {
		t.Fatal("fresh parallelize must have no partitioner")
	}
	pb := PartitionBy(r, part)
	if pb.NumPartitions() != 4 || !pb.ds.part.Equal(part) {
		t.Fatal("partitionBy metadata wrong")
	}
	// Records must land in the partitioner-assigned partition: verify via
	// mapPartitions that observes its split.
	ok := MapPartitions(pb, func(tc *TaskContext, recs []Pair[int, string]) []bool {
		for _, rec := range recs {
			if part.Partition(rec.Key) != tc.Partition {
				return []bool{false}
			}
		}
		return []bool{true}
	}, false)
	got, err := ok.Collect()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if !b {
			t.Fatal("record in wrong partition after partitionBy")
		}
	}
}

func TestPartitionByNoOpWhenCoPartitioned(t *testing.T) {
	ctx := testCtx()
	part := NewHashPartitioner(4)
	r := ParallelizePairs(ctx, []Pair[int, int]{KV(1, 1), KV(2, 2)}, part)
	shufflesBefore := ctx.nextShuffle
	pb := PartitionBy(r, NewHashPartitioner(4))
	if pb != r {
		t.Fatal("partitionBy with equal partitioner must be the identity")
	}
	if ctx.nextShuffle != shufflesBefore {
		t.Fatal("no shuffle may be registered")
	}
}

func TestCombineByKeyWideAndNarrow(t *testing.T) {
	ctx := testCtx()
	part := NewHashPartitioner(3)
	var pairs []Pair[int, int]
	for i := 0; i < 30; i++ {
		pairs = append(pairs, KV(i%5, 1))
	}

	// Wide: input not co-partitioned.
	wide := Parallelize(ctx, pairs, 4)
	sums := CombineByKey(wide,
		func(v int) int { return v },
		func(c, v int) int { return c + v },
		func(a, b int) int { return a + b },
		part)
	m, err := CollectMap(sums)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		if m[k] != 6 {
			t.Fatalf("wide combine: m[%d] = %d", k, m[k])
		}
	}

	// Narrow: co-partitioned input must not create a shuffle.
	coparted := ParallelizePairs(ctx, pairs, part)
	before := ctx.nextShuffle
	sums2 := CombineByKey(coparted,
		func(v int) int { return v },
		func(c, v int) int { return c + v },
		func(a, b int) int { return a + b },
		part)
	if ctx.nextShuffle != before {
		t.Fatal("co-partitioned combineByKey must be narrow")
	}
	m2, err := CollectMap(sums2)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		if m2[k] != 6 {
			t.Fatalf("narrow combine: m[%d] = %d", k, m2[k])
		}
	}
}

func TestGroupByKey(t *testing.T) {
	ctx := testCtx()
	pairs := []Pair[string, int]{KV("x", 1), KV("y", 2), KV("x", 3)}
	g, err := CollectMap(GroupByKey(Parallelize(ctx, pairs, 2), NewHashPartitioner(2)))
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(g["x"])
	if len(g["x"]) != 2 || g["x"][0] != 1 || g["x"][1] != 3 || len(g["y"]) != 1 {
		t.Fatalf("groupByKey = %v", g)
	}
}

func TestUnionPartitionerAware(t *testing.T) {
	ctx := testCtx()
	part := NewHashPartitioner(4)
	a := ParallelizePairs(ctx, []Pair[int, int]{KV(1, 1)}, part)
	b := ParallelizePairs(ctx, []Pair[int, int]{KV(2, 2)}, part)
	u := a.Union(b)
	if u.NumPartitions() != 4 || u.ds.part == nil {
		t.Fatal("co-partitioned union must stay partitioner-aware")
	}
	recs, err := u.Collect()
	if err != nil || len(recs) != 2 {
		t.Fatalf("union collect: %v %v", recs, err)
	}

	c := Parallelize(ctx, []Pair[int, int]{KV(3, 3)}, 2) // no partitioner
	u2 := a.Union(c)
	if u2.ds.part != nil || u2.NumPartitions() != 6 {
		t.Fatalf("mixed union: part=%v n=%d", u2.ds.part, u2.NumPartitions())
	}
	recs2, err := u2.Collect()
	if err != nil || len(recs2) != 2 {
		t.Fatalf("mixed union collect: %v %v", recs2, err)
	}
}

func TestMapValuesPreservesPartitioner(t *testing.T) {
	ctx := testCtx()
	part := NewHashPartitioner(3)
	r := ParallelizePairs(ctx, []Pair[int, int]{KV(1, 10), KV(2, 20)}, part)
	mv := MapValues(r, func(_ *TaskContext, k, v int) int { return v + k })
	if mv.ds.part == nil || !mv.ds.part.Equal(part) {
		t.Fatal("mapValues must preserve the partitioner")
	}
	m, err := CollectMap(mv)
	if err != nil || m[1] != 11 || m[2] != 22 {
		t.Fatalf("mapValues = %v, %v", m, err)
	}
}

func TestCheckpointTruncatesLineage(t *testing.T) {
	ctx := NewContext(Conf{Cluster: cluster.Local(2), keepShuffles: 1})
	part := NewHashPartitioner(2)
	var computes atomic.Int64
	r := PartitionBy(Map(Parallelize(ctx, ints(6), 2), func(_ *TaskContext, x int) Pair[int, int] {
		computes.Add(1)
		return KV(x, x)
	}), part)
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	first := computes.Load()
	if first != 6 {
		t.Fatalf("checkpoint computed %d records", first)
	}
	// Retire the underlying shuffle; the checkpointed RDD must still be
	// readable (its data is stored, lineage gone).
	s2 := PartitionBy(Map(r, func(_ *TaskContext, p Pair[int, int]) Pair[int, int] {
		return KV(p.Key+1, p.Value)
	}), part)
	if _, err := s2.Collect(); err != nil {
		t.Fatal(err)
	}
	got, err := r.Collect()
	if err != nil {
		t.Fatalf("checkpointed RDD must survive shuffle retirement: %v", err)
	}
	if len(got) != 6 {
		t.Fatalf("collect = %d records", len(got))
	}
	if computes.Load() != first {
		t.Fatal("checkpointed RDD must not recompute")
	}
}

func TestEventsRecorded(t *testing.T) {
	ctx := testCtx()
	r := PartitionBy(Map(Parallelize(ctx, ints(10), 2), func(_ *TaskContext, x int) Pair[int, int] {
		return KV(x, x)
	}), NewHashPartitioner(3))
	if _, err := r.Collect(); err != nil {
		t.Fatal(err)
	}
	if got := ctx.CountStages(StageShuffleMap); got != 1 {
		t.Fatalf("map stages = %d", got)
	}
	if got := ctx.CountStages(StageResult); got != 1 {
		t.Fatalf("result stages = %d", got)
	}
	evs := ctx.Events()
	if evs[0].Kind != StageShuffleMap || evs[0].ShuffleID != 0 || evs[0].SpillBytes == 0 {
		t.Fatalf("map event = %+v", evs[0])
	}
	if evs[1].Kind != StageResult || evs[1].FetchBytes != evs[0].SpillBytes {
		t.Fatalf("result event = %+v", evs[1])
	}
	if StageShuffleMap.String() != "shuffle-map" || StageResult.String() != "result" {
		t.Fatal("kind names")
	}
}

func TestVirtualClockAdvances(t *testing.T) {
	ctx := clusterCtx()
	r := Map(Parallelize(ctx, ints(64), 32), func(tc *TaskContext, x int) int {
		tc.ChargeCompute(simtime.Second, 1)
		return x
	})
	if _, err := r.Collect(); err != nil {
		t.Fatal(err)
	}
	if ctx.Clock() <= 0 {
		t.Fatal("virtual clock did not advance")
	}
	if c := ctx.Ledger().Snapshot()[simtime.Compute]; c < 2*simtime.Second {
		t.Fatalf("compute ledger = %v", c)
	}
}

func TestShuffleTrafficAccounted(t *testing.T) {
	ctx := clusterCtx()
	tile := matrix.NewTile(64)
	var pairs []Pair[matrix.Coord, *matrix.Tile]
	for i := 0; i < 32; i++ {
		pairs = append(pairs, KV(matrix.Coord{I: i, J: 0}, tile.Clone()))
	}
	r := Parallelize(ctx, pairs, 8)
	pb := PartitionBy(r, NewHashPartitioner(8))
	if _, err := pb.Collect(); err != nil {
		t.Fatal(err)
	}
	wantBytes := int64(32) * (tile.Bytes() + 16)
	if got := ctx.Breakdown().ShuffleWriteBytes; got != wantBytes {
		t.Fatalf("spilled bytes = %d, want %d", got, wantBytes)
	}
	// Network time is charged only for remote bytes.
	if ctx.Ledger().Snapshot()[simtime.Network] == 0 {
		t.Fatal("some shuffle traffic must be remote on a 16-node cluster")
	}
}

func TestBroadcastChargesOncePerNodeStage(t *testing.T) {
	ctx := clusterCtx()
	b := NewBroadcast(ctx, []*matrix.Tile{matrix.NewTile(64)})
	if b.Bytes() != 64*64*8 {
		t.Fatalf("broadcast bytes = %d", b.Bytes())
	}
	sharedAfterWrite := ctx.Breakdown().BroadcastBytes
	if sharedAfterWrite != b.Bytes() {
		t.Fatalf("driver write not charged: %d", sharedAfterWrite)
	}
	// 64 partitions on 16 nodes: 4 tasks per node, one stage → exactly
	// 16 node-fetches.
	r := Map(Parallelize(ctx, ints(64), 64), func(tc *TaskContext, x int) int {
		_ = b.Get(tc)
		_ = b.Get(tc) // second access is free
		return x
	})
	if _, err := r.Collect(); err != nil {
		t.Fatal(err)
	}
	got := ctx.Breakdown().BroadcastBytes - sharedAfterWrite
	if got != 16*b.Bytes() {
		t.Fatalf("shared reads = %d, want %d", got, 16*b.Bytes())
	}
}

func TestGridPartitioner(t *testing.T) {
	g := NewGridPartitioner(8, 4)
	if g.NumPartitions() != 8 {
		t.Fatal("NumPartitions")
	}
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			p := g.Partition(matrix.Coord{I: i, J: j})
			if p < 0 || p >= 8 {
				t.Fatalf("partition %d out of range", p)
			}
			seen[p] = true
		}
	}
	if len(seen) != 8 {
		t.Fatalf("grid partitioner must use all partitions: %d", len(seen))
	}
	if !g.Equal(NewGridPartitioner(8, 4)) || g.Equal(NewGridPartitioner(8, 5)) {
		t.Fatal("Equal")
	}
	if g.Equal(NewHashPartitioner(8)) {
		t.Fatal("grid != hash")
	}
	// Non-coord keys fall back to hashing in range.
	if p := g.Partition("other"); p < 0 || p >= 8 {
		t.Fatal("fallback out of range")
	}
}

func TestHashPartitionerSpread(t *testing.T) {
	h := NewHashPartitioner(16)
	counts := make([]int, 16)
	for i := 0; i < 32; i++ {
		for j := 0; j < 32; j++ {
			counts[h.Partition(matrix.Coord{I: i, J: j})]++
		}
	}
	for p, c := range counts {
		if c == 0 {
			t.Fatalf("partition %d empty for 1024 coords", p)
		}
	}
	if !h.Equal(NewHashPartitioner(16)) || h.Equal(NewHashPartitioner(8)) {
		t.Fatal("Equal")
	}
}

func TestShuffleRetirement(t *testing.T) {
	ctx := NewContext(Conf{Cluster: cluster.Local(2), keepShuffles: 1})
	part := NewHashPartitioner(2)
	r := Parallelize(ctx, []Pair[int, int]{KV(1, 1), KV(2, 2)}, 2)
	a := PartitionBy(r, part)
	if _, err := a.Collect(); err != nil {
		t.Fatal(err)
	}
	// A second shuffle retires the first.
	b := PartitionBy(Map(a, func(_ *TaskContext, p Pair[int, int]) Pair[int, int] {
		return KV(p.Key+10, p.Value)
	}), part)
	if _, err := b.Collect(); err != nil {
		t.Fatal(err)
	}
	// Reading the retired shuffle must surface a job error.
	if _, err := a.Collect(); err == nil {
		t.Fatal("expected retired-shuffle error")
	}
}

func TestUnionAcrossContextsPanics(t *testing.T) {
	a := Parallelize(testCtx(), ints(2), 1)
	b := Parallelize(testCtx(), ints(2), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Union(b)
}

// oldDefaultSizer is the boxed-record pricing the engine used before the
// typed record path (the default of Conf's Sizer knob), kept as the reference
// the typed prices must match.
func oldDefaultSizer(rec any) int64 {
	switch v := rec.(type) {
	case *matrix.Tile:
		if v == nil {
			return 0
		}
		return v.Bytes()
	case matrix.Coord:
		return 16
	case nil:
		return 0
	case int, int64, float64, uint64:
		return 8
	case string:
		return int64(len(v))
	case sized:
		return v.SizeBytes()
	default:
		return 64
	}
}

// tagged is a value record with the SizeBytes hook, shaped like the
// drivers' tagged tile messages; ptrSized carries the hook on a pointer.
type tagged struct {
	tag  uint8
	tile *matrix.Tile
}

func (m tagged) SizeBytes() int64 { return oldDefaultSizer(m.tile) + 1 }

type ptrSized struct{ n int64 }

func (p *ptrSized) SizeBytes() int64 { return p.n }

// priced checks sizerOf[T] against the boxed reference for one value.
func priced[T any](t *testing.T, name string, v T, want int64) {
	t.Helper()
	if got := sizerOf[T]()(v); got != want {
		t.Errorf("%s: typed price %d, boxed reference %d", name, got, want)
	}
	if got := sizeAll([]T{v, v}); got != 2*want {
		t.Errorf("%s: sizeAll of two = %d, want %d", name, got, 2*want)
	}
}

// pricedPair checks a pair prices as key plus value, as pairs always have.
func pricedPair[K comparable, V any](t *testing.T, name string, k K, v V) {
	t.Helper()
	priced(t, name, KV(k, v), oldDefaultSizer(k)+oldDefaultSizer(v))
}

// TestDefaultSizer is the parity table for the typed pricing that
// replaced Conf's Sizer knob: every record shape prices exactly as the boxed
// DefaultSizer did. (core and lcs pin their own record types against the
// same numbers in TestRecordPricing.)
func TestDefaultSizer(t *testing.T) {
	real, sym := matrix.NewTile(8), matrix.NewSymbolicTile(1024)
	var nilTile *matrix.Tile
	c := matrix.Coord{I: 1, J: 2}
	for name, tile := range map[string]*matrix.Tile{"tile": real, "symbolic tile": sym, "nil tile": nilTile} {
		priced(t, name, tile, oldDefaultSizer(tile))
		pricedPair(t, "coord→"+name, c, tile)
		priced(t, "tagged "+name, tagged{1, tile}, oldDefaultSizer(tagged{1, tile}))
		pricedPair(t, "coord→tagged "+name, c, tagged{1, tile})
	}
	if oldDefaultSizer(real) != 8*8*8 || oldDefaultSizer(sym) != 1024*1024*8 {
		t.Fatal("reference tile sizes")
	}
	priced(t, "coord", c, 16)
	priced(t, "int", 3, 8)
	priced(t, "int64", int64(3), 8)
	priced(t, "float64", 3.5, 8)
	priced(t, "uint64", uint64(3), 8)
	priced(t, "string", "abcd", 4)
	priced(t, "unknown struct", struct{ X int }{1}, 64)
	priced(t, "unknown slice", []tagged{{1, real}}, 64)
	priced(t, "pointer with hook", &ptrSized{n: 7}, 7)
	pricedPair(t, "string→int", "key", 9)
	pricedPair(t, "int→unknown", 4, struct{ A, B float64 }{})
	priced(t, "nested pair", KV(1, KV("ab", real)), 8+2+512)
}
