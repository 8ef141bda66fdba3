package core

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"dpspark/internal/cluster"
	"dpspark/internal/matrix"
	"dpspark/internal/rdd"
	"dpspark/internal/semiring"
)

// TestRecordPathAllocBudget pins the typed record path's footprint on the
// fine-tile shape the end-to-end benchmark calls fw_im_fine (IM, n=512,
// b=8, r=64): at most half an allocation per shuffled record, counting
// one record per tile per iteration (r³ = 262 144). Partitions, buckets
// and kernel tallies are per task; nothing is per record. The boxed path
// this replaced took 11.3 — five boxes per record plus staging slices.
// (At n=128 the same solve has 64× fewer records under a quarter of the
// stages, and the per-stage constants are most of the count — see
// TestShuffleAllocsDoNotGrowWithRecords in internal/rdd for the
// size-independent form of this property.)
func TestRecordPathAllocBudget(t *testing.T) {
	const n, b = 512, 8
	rule := semiring.NewFloydWarshall()
	in := randomInput(rule, n, rand.New(rand.NewSource(5)))
	bl := matrix.Block(in, b, rule.Pad(), rule.PadDiag())
	records := float64(bl.R * bl.R * bl.R)

	cl := cluster.Local(2)
	allocs := testing.AllocsPerRun(1, func() {
		ctx := rdd.NewContext(rdd.Conf{Cluster: cl})
		if _, _, err := Run(ctx, bl, Config{Rule: rule, BlockSize: b, Driver: IM}); err != nil {
			t.Fatal(err)
		}
	})
	perRecord := allocs / records
	t.Logf("%.0f allocations for %.0f shuffled records: %.2f per record", allocs, records, perRecord)
	if perRecord > 0.5 {
		t.Fatalf("%.2f allocations per shuffled record, budget 0.5", perRecord)
	}
}

// price is what the engine's traffic accounting charges for one record
// of type T (a one-item broadcast's staged size).
func price[T any](ctx *rdd.Context, v T) int64 {
	return rdd.NewBroadcast(ctx, []T{v}).Bytes()
}

// TestRecordPricing is core's share of the pricing parity table (see
// rdd.TestDefaultSizer): the drivers' record types price exactly as the
// boxed DefaultSizer priced them — a block as coordinate plus payload, a
// message and an operand set through their SizeBytes hooks.
func TestRecordPricing(t *testing.T) {
	ctx := rdd.NewContext(rdd.Conf{Cluster: cluster.Local(1)})
	real, sym := matrix.NewTile(8), matrix.NewSymbolicTile(1024)
	c := matrix.Coord{I: 2, J: 3}
	const tile, big = 8 * 8 * 8, 1024 * 1024 * 8
	for _, tc := range []struct {
		name      string
		got, want int64
	}{
		{"block", price(ctx, rdd.KV(c, real)), 16 + tile},
		{"symbolic block", price(ctx, rdd.KV(c, sym)), 16 + big},
		{"nil block", price(ctx, rdd.KV[matrix.Coord, *matrix.Tile](c, nil)), 16},
		{"msg", price(ctx, Msg{RoleRow, real}), tile + 1},
		{"nil msg", price(ctx, Msg{}), 1},
		{"coord→msg", price(ctx, rdd.KV(c, Msg{RolePivot, sym})), 16 + big + 1},
		{"operands", price(ctx, Operands{Self: real, Row: real, Col: sym}), 2*tile + big + 1},
		{"coord→operands", price(ctx, rdd.KV(c, Operands{Done: real})), 16 + tile + 1},
		{"blocks", price(ctx, []Block{rdd.KV(c, real)}), 64},
	} {
		if tc.got != tc.want {
			t.Errorf("%s priced %d, want %d", tc.name, tc.got, tc.want)
		}
	}
}

// TestKernelMetricsCountFailedAttempts: kernel metrics are tallied per
// task attempt and flushed when the attempt ends. An attempt that dies
// after running kernels must still be counted — call for call, as when
// every call hit the registry itself — and the modelled-seconds sum must
// be the one repeated per-call addition produces, to the bit.
func TestKernelMetricsCountFailedAttempts(t *testing.T) {
	ctx := rdd.NewContext(rdd.Conf{Cluster: cluster.Local(2)})
	rule := semiring.NewFloydWarshall()
	cfg := Config{Rule: rule, BlockSize: 8}
	if err := cfg.normalize(ctx); err != nil {
		t.Fatal(err)
	}
	kr := (&runner{ctx: ctx, cfg: cfg}).newKernelRunner()

	tiles := make([]*matrix.Tile, 300) // more than one wall chunk per task
	for i := range tiles {
		tiles[i] = matrix.NewTile(8)
	}
	var calls, attempts atomic.Int64
	var tried [2]atomic.Bool
	job := rdd.MapPartitions(rdd.Parallelize(ctx, tiles, 2), func(tc *rdd.TaskContext, part []*matrix.Tile) []*matrix.Tile {
		attempts.Add(1)
		first := tried[tc.Partition].CompareAndSwap(false, true)
		for i, x := range part {
			kind := semiring.KindD
			if i%3 == 0 {
				kind = semiring.KindA
			}
			kr.apply(tc, 1, kind, x, x, x, x)
			calls.Add(1)
			if first && i == len(part)/2 {
				panic("attempt dies mid-partition")
			}
		}
		return part
	}, false)
	if _, err := job.Collect(); err != nil {
		t.Fatal(err)
	}
	if attempts.Load() != 4 {
		t.Fatalf("%d attempts, want 4", attempts.Load())
	}

	var counted, walls int64
	for kind := semiring.KindA; kind <= semiring.KindD; kind++ {
		m := kr.m[kind]
		n := m.calls.Value()
		counted += n
		walls += m.wall.Count()
		if m.cost.Count() != n {
			t.Errorf("kind %v: %d calls but %d cost samples", kind, n, m.cost.Count())
		}
		var want float64
		for i := int64(0); i < n; i++ {
			want += kr.price[kind].Compute.Seconds()
		}
		if math.Float64bits(m.cost.Sum()) != math.Float64bits(want) {
			t.Errorf("kind %v: modelled seconds sum %v, per-call addition gives %v", kind, m.cost.Sum(), want)
		}
	}
	if counted != calls.Load() || walls != calls.Load() {
		t.Fatalf("%d kernel calls made (failed attempts included); %d counted, %d wall samples", calls.Load(), counted, walls)
	}
}
