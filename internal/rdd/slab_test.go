package rdd

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dpspark/internal/cluster"
)

// concurrentCollects runs three Collects on one Context. A reads shuffle X
// as chunks, through a co-partitioned ReduceByKey over X ∪ Z, and stalls in
// Z's map function — after X's read, holding chunks of X's slab — until B
// and C, one shuffle each, have run; with two shuffles kept, C's or B's
// map stage retires X under A's read. The outputs are returned in order.
func concurrentCollects(t *testing.T) [3]any {
	t.Helper()
	ctx := NewContext(Conf{Substrate: slots(cluster.Local(4), 3), keepShuffles: 2})
	defer ctx.Close()
	recs := func(n, salt int) []Pair[int, int] {
		out := make([]Pair[int, int], n)
		for i := range out {
			out[i] = KV((i*salt)%17, i+salt)
		}
		return out
	}
	one := NewHashPartitioner(1)
	x := PartitionBy(ParallelizePairs(ctx, recs(64, 3), NewHashPartitioner(4)), one)
	stalled, resume := make(chan struct{}), make(chan struct{})
	var once sync.Once
	z := MapValues(ParallelizePairs(ctx, recs(8, 5), one), func(_ *TaskContext, _ int, v int) int {
		once.Do(func() {
			close(stalled)
			<-resume
		})
		return v
	})
	var outs [3]any
	collect := func(i int, r *RDD[Pair[int, int]], wg *sync.WaitGroup) {
		defer wg.Done()
		out, err := r.Collect()
		if err != nil {
			t.Errorf("collect %d: %v", i, err)
		}
		outs[i] = out
	}
	var a, bc sync.WaitGroup
	a.Add(1)
	go collect(0, ReduceByKey(x.Union(z), func(a, b int) int { return 31*a + b }, one), &a)
	<-stalled
	bc.Add(2)
	go collect(1, PartitionBy(ParallelizePairs(ctx, recs(48, 7), NewHashPartitioner(3)), NewHashPartitioner(2)), &bc)
	go collect(2, PartitionBy(ParallelizePairs(ctx, recs(40, 11), NewHashPartitioner(2)), NewHashPartitioner(3)), &bc)
	bc.Wait()
	if _, retired := ctx.shuffle(x.ds.shuffle.id); !retired {
		t.Error("shuffle X outlived two later shuffles with two kept")
	}
	close(resume)
	a.Wait()
	return outs
}

// TestRecycleGuardConcurrentCollects: with recycled slices poisoned, three
// concurrent Collects on one Context — one of them reading a shuffle as
// chunks while the others retire it — produce what they produce without
// the poison. The read's pin holds the slab until its attempt ends.
func TestRecycleGuardConcurrentCollects(t *testing.T) {
	plain := concurrentCollects(t)
	poisonRecycled = true
	defer func() { poisonRecycled = false }()
	if poisoned := concurrentCollects(t); !reflect.DeepEqual(plain, poisoned) {
		t.Errorf("with recycled slices poisoned:\n %v\nwithout:\n %v", poisoned, plain)
	}
}

// TestRetiredShuffleReadFails: no attempt can read a retired shuffle, so
// the first one fails the job — no retry, no new placement — after the
// result stage alone.
func TestRetiredShuffleReadFails(t *testing.T) {
	const keep = 2
	ctx := NewContext(Conf{Substrate: slots(cluster.Local(4), 2), keepShuffles: keep})
	defer ctx.Close()
	first := sizedJob(ctx, 0) // shuffle 0
	if _, err := first.Collect(); err != nil {
		t.Fatal(err)
	}
	for j := 1; j <= keep; j++ { // shuffles 1..keep retire shuffle 0
		if _, err := sizedJob(ctx, j).Collect(); err != nil {
			t.Fatal(err)
		}
	}
	stages, retries := len(ctx.Events()), ctx.RecoveryStats().TaskRetries
	_, err := first.Collect()
	want := fmt.Sprintf("(attempt 1): rdd: shuffle 0 was retired; the context keeps the last %d shuffles", keep)
	if err == nil || !strings.HasSuffix(err.Error(), want) {
		t.Errorf("reading a retired shuffle: err = %v, want it to end in %q", err, want)
	}
	if ran := len(ctx.Events()) - stages; ran != 1 {
		t.Errorf("collecting over a retired shuffle ran %d stages, want the result stage only", ran)
	}
	if got := ctx.RecoveryStats().TaskRetries; got != retries {
		t.Errorf("reading a retired shuffle retried %d tasks, want none", got-retries)
	}
}
