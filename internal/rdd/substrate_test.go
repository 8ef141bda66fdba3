package rdd

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpspark/internal/cluster"
	"dpspark/internal/simtime"
)

func TestSlotSchedulerPriorityOrder(t *testing.T) {
	s := newSlotScheduler(1)
	if !s.acquire(0, nil) {
		t.Fatal("first acquire should get the slot immediately")
	}

	// Queue three waiters: low, high, mid. Releases must serve them
	// high, mid, low — priority first, not arrival order.
	type got struct {
		name string
	}
	order := make(chan got, 3)
	var started sync.WaitGroup
	launch := func(name string, prio int) {
		started.Add(1)
		go func() {
			started.Done()
			s.acquire(prio, nil)
			order <- got{name}
		}()
		started.Wait()
		// Wait until the waiter is actually queued before launching the
		// next, so arrival order is deterministic.
		for i := 0; ; i++ {
			if s.waiting() >= 1 {
				break
			}
			if i > 1000 {
				t.Fatalf("waiter %s never queued", name)
			}
			time.Sleep(time.Millisecond)
		}
	}
	launch("low", 1)
	for s.waiting() < 1 {
		time.Sleep(time.Millisecond)
	}
	launch("high", 9)
	for s.waiting() < 2 {
		time.Sleep(time.Millisecond)
	}
	launch("mid", 5)
	for s.waiting() < 3 {
		time.Sleep(time.Millisecond)
	}

	want := []string{"high", "mid", "low"}
	for _, w := range want {
		s.release()
		g := <-order
		if g.name != w {
			t.Fatalf("release served %q, want %q", g.name, w)
		}
	}
	s.release() // last holder's slot back; no waiters left
	if !s.acquire(0, nil) {
		t.Fatal("slot should be free again")
	}
}

func TestSlotSchedulerFIFOWithinPriority(t *testing.T) {
	s := newSlotScheduler(1)
	s.acquire(0, nil)

	order := make(chan int, 3)
	for i := 0; i < 3; i++ {
		i := i
		go func() {
			s.acquire(7, nil)
			order <- i
		}()
		for s.waiting() < i+1 {
			time.Sleep(time.Millisecond)
		}
	}
	for want := 0; want < 3; want++ {
		s.release()
		if got := <-order; got != want {
			t.Fatalf("equal-priority release served %d, want %d (FIFO)", got, want)
		}
	}
}

func TestSlotSchedulerCancel(t *testing.T) {
	s := newSlotScheduler(1)
	s.acquire(0, nil)

	cancel := make(chan struct{})
	done := make(chan bool, 1)
	go func() { done <- s.acquire(0, cancel) }()
	for s.waiting() < 1 {
		time.Sleep(time.Millisecond)
	}
	close(cancel)
	if got := <-done; got {
		t.Fatal("cancelled acquire reported true")
	}
	if s.waiting() != 0 {
		t.Fatalf("cancelled waiter still queued: waiting=%d", s.waiting())
	}
	// The slot must not be lost: release the holder and re-acquire.
	s.release()
	ok := make(chan bool, 1)
	go func() { ok <- s.acquire(0, nil) }()
	select {
	case <-ok:
	case <-time.After(2 * time.Second):
		t.Fatal("slot lost after cancelled acquire")
	}
}

func TestSlotSchedulerCancelReleaseRace(t *testing.T) {
	// Hammer the cancel-vs-release race: a waiter whose cancellation
	// races the slot hand-off must give the slot back, never leak it.
	s := newSlotScheduler(1)
	for i := 0; i < 200; i++ {
		s.acquire(0, nil)
		cancel := make(chan struct{})
		done := make(chan bool, 1)
		go func() { done <- s.acquire(0, cancel) }()
		for s.waiting() < 1 {
			time.Sleep(time.Microsecond)
		}
		go close(cancel)
		s.release()
		if <-done {
			// The waiter won the race and owns the slot; give it back.
			s.release()
		}
		// Either way exactly one slot must be acquirable now.
		got := make(chan struct{})
		go func() { s.acquire(0, nil); close(got) }()
		select {
		case <-got:
		case <-time.After(2 * time.Second):
			t.Fatalf("iteration %d: slot leaked", i)
		}
		s.release()
	}
}

func TestNewSubstrateValidates(t *testing.T) {
	if _, err := NewSubstrate(SubstrateConf{}); err == nil {
		t.Fatal("nil cluster accepted")
	}
	if _, err := NewSubstrate(SubstrateConf{Cluster: cluster.LocalN(2, 2), KernelThreads: -1}); err == nil {
		t.Fatal("negative KernelThreads accepted")
	}
	if _, err := NewSubstrate(SubstrateConf{Cluster: cluster.LocalN(2, 2), RealParallelism: -1}); err == nil {
		t.Fatal("negative RealParallelism accepted")
	}
	s, err := NewSubstrate(SubstrateConf{Cluster: cluster.LocalN(2, 2), KernelThreads: 2, RealParallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.kernelThreads != 2 || s.realPar != 3 {
		t.Fatalf("substrate settings lost: threads=%d par=%d", s.kernelThreads, s.realPar)
	}
	if len(s.kernelPools) != 2 {
		t.Fatalf("expected one kernel pool per node, got %d", len(s.kernelPools))
	}
}

// slots returns a substrate on c with n real task slots, for tests that
// pin how many task attempts run at once (Conf.Substrate).
func slots(c *cluster.Cluster, n int) *Substrate {
	s, err := NewSubstrate(SubstrateConf{Cluster: c, RealParallelism: n})
	if err != nil {
		panic(err)
	}
	return s
}

// TestSubstrateBoundsConcurrentActions: a context's substrate bounds the
// task attempts of every action on it together, not of each action apart
// (a solo context builds its own substrate the same way).
func TestSubstrateBoundsConcurrentActions(t *testing.T) {
	ctx := NewContext(Conf{Substrate: slots(cluster.LocalN(2, 2), 1)})
	var running, peak atomic.Int32
	ds := Map(Parallelize(ctx, make([]int, 8), 8), func(_ *TaskContext, v int) int {
		n := running.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(200 * time.Microsecond)
		running.Add(-1)
		return v
	})
	var wg sync.WaitGroup
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := ds.Collect(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := peak.Load(); got != 1 {
		t.Fatalf("%d task attempts ran at once on one slot", got)
	}
}

func TestContextCancel(t *testing.T) {
	ctx := NewContext(Conf{Cluster: cluster.LocalN(2, 2)})
	if ctx.CancelCause() != nil {
		t.Fatal("fresh context reports a cancel cause")
	}
	ctx.Cancel(nil)
	if !errors.Is(ctx.Err(), ErrJobCanceled) {
		t.Fatalf("Err after Cancel = %v, want ErrJobCanceled", ctx.Err())
	}
	// Idempotent: the first cause wins.
	ctx.Cancel(fmt.Errorf("second"))
	if !errors.Is(ctx.CancelCause(), ErrJobCanceled) {
		t.Fatalf("second Cancel overwrote cause: %v", ctx.CancelCause())
	}
	select {
	case <-ctx.Canceled():
	default:
		t.Fatal("Canceled channel not closed")
	}
}

func TestContextCancelStopsStage(t *testing.T) {
	ctx := NewContext(Conf{Substrate: slots(cluster.LocalN(2, 2), 1)})
	cause := fmt.Errorf("deadline exceeded: %w", ErrJobCanceled)
	ran := 0
	ctx.execStage(&stageRun{kind: StageResult, shuffleID: -1, parts: 8, stageID: -1,
		work: func(*TaskContext, int, int) {
			ran++
			if ran == 2 {
				ctx.Cancel(cause)
			}
		}})
	if ran >= 8 {
		t.Fatalf("all %d tasks ran despite mid-stage cancel", ran)
	}
	if !errors.Is(ctx.Err(), ErrJobCanceled) {
		t.Fatalf("Err = %v, want wrapped ErrJobCanceled", ctx.Err())
	}
}

// TestSubstrateSharedContextsDeterministic is the heart of the
// isolation invariant at the rdd layer: two contexts mounted on one
// substrate, running concurrently with different priorities, must each
// produce exactly the results and virtual clock of a solo run.
func TestSubstrateSharedContextsDeterministic(t *testing.T) {
	run := func(conf Conf, n int) ([]int, string) {
		ctx := NewContext(conf)
		data := make([]int, 64)
		for i := range data {
			data[i] = i * n
		}
		out, err := Map(Parallelize(ctx, data, 8), func(tc *TaskContext, v int) int {
			tc.ChargeCompute(simtime.Duration(v)*simtime.Millisecond, 1)
			return v * 2
		}).Collect()
		if err != nil {
			t.Fatal(err)
		}
		return out, ctx.Clock().String()
	}

	soloA, clockA := run(Conf{Cluster: cluster.LocalN(4, 2)}, 3)
	soloB, clockB := run(Conf{Cluster: cluster.LocalN(4, 2)}, 7)

	sub, err := NewSubstrate(SubstrateConf{Cluster: cluster.LocalN(4, 2), RealParallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var gotA, gotB []int
	var gclkA, gclkB string
	wg.Add(2)
	go func() { defer wg.Done(); gotA, gclkA = run(Conf{Substrate: sub, Priority: 2}, 3) }()
	go func() { defer wg.Done(); gotB, gclkB = run(Conf{Substrate: sub, Priority: 1}, 7) }()
	wg.Wait()

	if !equalInts(gotA, soloA) || !equalInts(gotB, soloB) {
		t.Fatal("shared-substrate results differ from solo runs")
	}
	if gclkA != clockA || gclkB != clockB {
		t.Fatalf("virtual clocks perturbed by sharing: %s/%s vs solo %s/%s", gclkA, gclkB, clockA, clockB)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
