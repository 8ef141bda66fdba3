package rdd

import (
	"reflect"
	"testing"
	"time"

	"dpspark/internal/cluster"
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
