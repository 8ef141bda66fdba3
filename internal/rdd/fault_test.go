package rdd

import (
	"strings"
	"sync/atomic"
	"testing"

	"dpspark/internal/cluster"
	"dpspark/internal/simtime"
)

// TestTaskRetryRecovers: a task that fails twice must be retried from
// lineage and the job must still produce the right answer, charging the
// failed attempts' work.
func TestTaskRetryRecovers(t *testing.T) {
	var died atomic.Int64
	ctx := NewContext(Conf{Cluster: cluster.Local(2)})
	r := Map(Parallelize(ctx, ints(10), 2), func(tc *TaskContext, x int) int {
		tc.ChargeCompute(simtime.Second, 1)
		if tc.Partition == 1 && died.Load() < 2 {
			died.Add(1)
			panic("partition 1 dies mid-work")
		}
		return x * 2
	})
	got, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("collect = %d records", len(got))
	}
	if rs := ctx.RecoveryStats(); died.Load() != 2 || rs.TaskRetries != 2 {
		t.Fatalf("%d attempts died, %d retries; want 2 and 2", died.Load(), rs.TaskRetries)
	}
}

// TestTaskPanicRetried: panics inside user code are treated as task
// failures and retried; a deterministic panic exhausts the attempts and
// surfaces as a job error naming the task after maxTaskAttempts (4).
func TestTaskPanicRetried(t *testing.T) {
	var calls atomic.Int64
	ctx := NewContext(Conf{Cluster: cluster.Local(2)})
	r := Map(Parallelize(ctx, ints(4), 1), func(_ *TaskContext, x int) int {
		calls.Add(1)
		panic("kaboom")
	})
	_, err := r.Collect()
	if err == nil {
		t.Fatal("expected job failure")
	}
	if !strings.Contains(err.Error(), "attempt 4") {
		t.Fatalf("error = %v", err)
	}
	if calls.Load() != 4 {
		t.Fatalf("task ran %d times, want 4", calls.Load())
	}
}

// TestTransientPanicRecovered: a panic on the first attempt only.
func TestTransientPanicRecovered(t *testing.T) {
	var first atomic.Bool
	first.Store(true)
	ctx := NewContext(Conf{Cluster: cluster.Local(1)})
	r := Map(Parallelize(ctx, ints(3), 1), func(_ *TaskContext, x int) int {
		if first.Swap(false) {
			panic("transient")
		}
		return x + 1
	})
	got, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("collect = %v", got)
	}
}

// TestFailedAttemptsChargeTime: the virtual clock includes the work lost
// to failed attempts.
func TestFailedAttemptsChargeTime(t *testing.T) {
	run := func(failures int) simtime.Duration {
		ctx := NewContext(Conf{Cluster: cluster.Local(1)})
		remaining := failures
		r := Map(Parallelize(ctx, ints(1), 1), func(tc *TaskContext, x int) int {
			tc.ChargeCompute(10*simtime.Second, 1)
			if remaining > 0 {
				remaining--
				panic("lose the work")
			}
			return x
		})
		if _, err := r.Collect(); err != nil {
			t.Fatal(err)
		}
		return ctx.Clock()
	}
	clean := run(0)
	flaky := run(2)
	if flaky < clean+15*simtime.Second {
		t.Fatalf("failed attempts must cost time: clean %v vs flaky %v", clean, flaky)
	}
}

// countingLocal is an AttemptLocal that records its flushes.
type countingLocal struct{ flushed *atomic.Int64 }

func (l countingLocal) Flush() { l.flushed.Add(1) }

// TestAttemptLocalFlushedHoweverTheAttemptEnds: state hung on the
// TaskContext is flushed exactly once per attempt — for the attempt that
// panics as for the one that returns — and replaced state is flushed when
// it is replaced.
func TestAttemptLocalFlushedHoweverTheAttemptEnds(t *testing.T) {
	var attempts, flushed atomic.Int64
	ctx := NewContext(Conf{Substrate: slots(cluster.Local(1), 1)})
	r := MapPartitions(Parallelize(ctx, ints(4), 1), func(tc *TaskContext, recs []int) []int {
		if tc.Local() != nil {
			t.Error("attempt started with the previous attempt's local state")
		}
		tc.SetLocal(countingLocal{&flushed})
		tc.SetLocal(countingLocal{&flushed}) // flushes the first
		if attempts.Add(1) == 1 {
			panic("first attempt dies holding local state")
		}
		return recs
	}, false)
	if _, err := r.Collect(); err != nil {
		t.Fatal(err)
	}
	if attempts.Load() != 2 || flushed.Load() != 4 {
		t.Fatalf("%d attempts, %d flushes; want 2 and 4", attempts.Load(), flushed.Load())
	}
}
