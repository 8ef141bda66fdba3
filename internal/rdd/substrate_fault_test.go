package rdd

import (
	"reflect"
	"testing"
	"time"

	"dpspark/internal/cluster"
	"dpspark/internal/simtime"
)

// TestSubstrateNarrowSlotFaultRecovery: regression test for a real
// deadlock. A reduce task used to hold its substrate slot across
// FetchFailed recovery, but recoverShuffle resubmits the parent map
// stage — whose tasks need slots of their own — so on a one-slot
// substrate (any single-CPU host) the recovery stage waited forever for
// the slot its own child held. Slots are now held only for the real
// execution of an attempt; one slot must suffice for any recovery depth.
func TestSubstrateNarrowSlotFaultRecovery(t *testing.T) {
	clean := NewContext(Conf{Cluster: cluster.LocalN(2, 2)})
	want := collectPairs(t, shuffledDoubles(clean, 4))

	sub, err := NewSubstrate(SubstrateConf{Cluster: cluster.LocalN(2, 2), RealParallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(Conf{
		Substrate: sub,
		// The crash fires as the reduce stage starts: node 0's staged map
		// outputs are lost, the reduce-side fetch fails, and the map
		// stage is resubmitted mid-task.
		FaultPlan: &FaultPlan{Events: []FaultEvent{ExecutorCrash{Stage: 1, Node: 0}}},
	})
	type res struct {
		got map[int]int
		err error
	}
	done := make(chan res, 1)
	go func() {
		got, err := CollectMap(shuffledDoubles(ctx, 4))
		done <- res{got, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("collect: %v", r.err)
		}
		if !reflect.DeepEqual(r.got, want) {
			t.Fatalf("recovery on a narrow substrate changed results: %v vs %v", r.got, want)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: recovery stage starved for the slot its parent task held")
	}
	rs := ctx.RecoveryStats()
	if rs.FetchFailures == 0 || rs.StageResubmits == 0 {
		t.Fatalf("the crash must exercise the nested-recovery path: %+v", rs)
	}
}

// TestSpillDilationFeedsSpeculation: the spill model dilates every node
// in proportion to its own staged backlog (real spill wall observed
// between stages), and the dilation is recorded as slowdown so
// speculation still prices the healthy duration and fires copies on
// healthier nodes.
func TestSpillDilationFeedsSpeculation(t *testing.T) {
	run := func(factor float64) (RecoveryStats, map[int]int) {
		conf := durableConf(t, 64) // a handful of pairs per block: every stage spills
		conf.Cluster = cluster.LocalN(4, 2)
		conf.SpillDilation = factor
		conf.Speculation = factor > 0
		ctx := newContext(t, conf)
		// Shuffle 1 funnels every pair onto partition 0, so one node ends
		// up holding all the data. Re-shuffling from there makes that
		// node the map side staging nearly all of shuffle 2's bytes — a
		// skewed per-node backlog that only the proportional model sees.
		// The result stage's tasks then charge uniform compute: the
		// loaded node's tasks dilate past the speculation threshold, the
		// rest stay healthy.
		funneled := PartitionBy(Map(Parallelize(ctx, ints(20), 8), func(_ *TaskContext, x int) Pair[int, int] {
			return KV(8*x, x)
		}), funnelPartitioner{p: 8})
		spread := PartitionBy(Map(funneled, func(_ *TaskContext, p Pair[int, int]) Pair[int, int] {
			return KV(p.Value, p.Value)
		}), NewHashPartitioner(8))
		r := Map(spread, func(tc *TaskContext, p Pair[int, int]) Pair[int, int] {
			tc.ChargeCompute(10*simtime.Second, 1)
			return p
		})
		got := collectPairs(t, r)
		return ctx.RecoveryStats(), got
	}

	off, _ := run(0)
	if off.SpillStragglers != 0 {
		t.Fatalf("disabled model must dilate nothing: %+v", off)
	}
	on, got := run(32)
	if len(got) != 20 || got[7] != 7 {
		t.Fatalf("collect = %v", got)
	}
	if on.SpillStragglers == 0 {
		t.Fatalf("the backlogged node's tasks must be modelled slow: %+v", on)
	}
	if on.SpeculativeTasks == 0 || on.SpeculationWins == 0 {
		t.Fatalf("spill-dilated tasks must trigger (and lose to) speculation: %+v", on)
	}
}

// funnelPartitioner sends every key to partition 0 — a deliberate worst
// case for load balance that concentrates a shuffle on one node.
type funnelPartitioner struct{ p int }

func (f funnelPartitioner) NumPartitions() int { return f.p }
func (f funnelPartitioner) Partition(any) int  { return 0 }
func (f funnelPartitioner) Equal(o Partitioner) bool {
	of, ok := o.(funnelPartitioner)
	return ok && of == f
}
