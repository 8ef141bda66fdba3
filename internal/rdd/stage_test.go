package rdd

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpspark/internal/cluster"
	"dpspark/internal/obs"
)

// Dispatch and ownership tests for the stage path: the task cursor hands
// every index out exactly once, stage scratch never serves two stages at a
// time, and a Context does not accumulate what retired shuffles held.

// runBareStage runs one result stage of `parts` tasks straight through
// execStage.
func runBareStage(c *Context, parts int, work func(tc *TaskContext, idx, split int)) {
	c.execStage(&stageRun{kind: StageResult, shuffleID: -1, parts: parts, stageID: -1, work: work})
}

// TestTaskDispatchRunsEveryIndexOnce: whatever the ratio of tasks to
// workers, every task index is claimed exactly once and the stage is
// modelled with one simulated task per index.
func TestTaskDispatchRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, parts := range []int{0, 1, 2, workers - 1, workers, workers + 1, 1000} {
			t.Run(fmt.Sprintf("workers=%d/parts=%d", workers, parts), func(t *testing.T) {
				ctx := NewContext(Conf{Substrate: slots(cluster.Local(4), workers)})
				ran := make([]atomic.Int32, parts)
				runBareStage(ctx, parts, func(tc *TaskContext, idx, split int) {
					if idx != split || tc.Partition != split {
						t.Errorf("task %d got split %d, partition %d", idx, split, tc.Partition)
					}
					ran[idx].Add(1)
				})
				for idx := range ran {
					if n := ran[idx].Load(); n != 1 {
						t.Errorf("task %d ran %d times", idx, n)
					}
				}
				events := ctx.Events()
				if len(events) != 1 || events[0].Tasks != parts {
					t.Fatalf("events = %+v, want one stage of %d tasks", events, parts)
				}
				if err := ctx.Err(); err != nil {
					t.Errorf("Err = %v", err)
				}
			})
		}
	}
}

// TestTaskDispatchCancelMidStage: a Context cancelled while a stage runs
// abandons the tasks not yet started — none of them runs, none runs twice
// — yet the stage still settles with one (empty) simulated task per index
// and Err carries the cause.
func TestTaskDispatchCancelMidStage(t *testing.T) {
	cause := errors.New("stop here")
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const parts = 1000
			ctx := NewContext(Conf{Substrate: slots(cluster.Local(4), workers)})
			ran := make([]atomic.Int32, parts)
			var started atomic.Int32
			runBareStage(ctx, parts, func(tc *TaskContext, idx, _ int) {
				ran[idx].Add(1)
				// The hundredth task to start cancels; one that starts while
				// it does waits for the cancellation to land.
				if n := started.Add(1); n == 100 {
					ctx.Cancel(cause)
				} else if n > 100 {
					<-ctx.Canceled()
				}
			})
			total := 0
			for idx := range ran {
				n := int(ran[idx].Load())
				if n > 1 {
					t.Errorf("task %d ran %d times", idx, n)
				}
				total += n
			}
			// Tasks already past acquireSlot when the cancel lands still
			// finish: at most one on each of the other workers.
			if total < 100 || total >= 100+workers {
				t.Errorf("%d tasks ran, want 100..%d", total, 100+workers-1)
			}
			events := ctx.Events()
			if len(events) != 1 || events[0].Tasks != parts {
				t.Fatalf("events = %+v, want one stage of %d tasks", events, parts)
			}
			if err := ctx.Err(); !errors.Is(err, cause) {
				t.Errorf("Err = %v, want %v", err, cause)
			}
		})
	}
}

// sizedJob is a one-shuffle job whose shape depends on j, so two jobs'
// stages cannot be told apart only if they are the same job.
func sizedJob(ctx *Context, j int) *RDD[Pair[int, int]] {
	recs := make([]Pair[int, int], 24+8*j)
	for i := range recs {
		recs[i] = KV((3*j+i)%(5+j), i)
	}
	return PartitionBy(ParallelizePairs(ctx, recs, NewHashPartitioner(3+j)), NewHashPartitioner(2+j%3))
}

// jobMix runs sizedJob 0–7 plus one job that loses node 0's map outputs
// between two collects of the same shuffle, so its second result stage
// hits a fetch failure and resubmits the map stage from inside the running
// stage. Jobs run on their own goroutines when concurrent is set, one
// after the other otherwise.
func jobMix(t *testing.T, ctx *Context, concurrent bool) {
	t.Helper()
	jobs := make([]func(), 0, 9)
	for j := 0; j < 8; j++ {
		jobs = append(jobs, func() {
			if _, err := sizedJob(ctx, j).Collect(); err != nil {
				t.Errorf("job %d: %v", j, err)
			}
		})
	}
	jobs = append(jobs, func() {
		r := sizedJob(ctx, 8)
		if _, err := r.Collect(); err != nil {
			t.Errorf("recovering job, first collect: %v", err)
		}
		st, _ := ctx.shuffle(r.ds.shuffle.id)
		ctx.loseOutputsOf(st, 0, false)
		if _, err := r.Collect(); err != nil {
			t.Errorf("recovering job, second collect: %v", err)
		}
	})
	if !concurrent {
		for _, job := range jobs {
			job()
		}
		return
	}
	var wg sync.WaitGroup
	for _, job := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			job()
		}()
	}
	wg.Wait()
}

// stageShapes and taskShapes are what a run's stage events and per-task
// trace spans look like once everything that depends on the order jobs
// happened to interleave in — stage and shuffle IDs, start times — is
// taken out, sorted.
func stageShapes(ctx *Context) []string {
	var out []string
	for _, ev := range ctx.Events() {
		ev.StageID, ev.ShuffleID, ev.Start = 0, 0, 0
		out = append(out, fmt.Sprintf("%+v", ev))
	}
	slices.Sort(out)
	return out
}

func taskShapes(o *obs.Observer) []string {
	var out []string
	for _, sp := range o.Spans() {
		if sp.Cat == "task" {
			out = append(out, fmt.Sprintf("tid=%d dur=%v raw=%s", sp.Tid, sp.Dur.Seconds(), sp.Args["raw"]))
		}
	}
	slices.Sort(out)
	return out
}

// TestParallelJobsMatchSerialJobs extends TestParallelJobsOneContext: nine
// jobs sharing one Context at once — one of them running a recovery stage
// nested inside its reduce stage — must produce the stage events, per-task
// spans and breakdown of the same jobs run one at a time. A stage reading
// scratch that another stage has since taken shows up as a foreign task
// count, duration or lane in one of them (and as a race under -race).
func TestParallelJobsMatchSerialJobs(t *testing.T) {
	run := func(concurrent bool) *Context {
		ctx := NewContext(Conf{Substrate: slots(cluster.LocalN(2, 2), 2), keepShuffles: 32})
		ctx.Observer().EnableTrace(true)
		jobMix(t, ctx, concurrent)
		return ctx
	}
	serial, parallel := run(false), run(true)

	if got, want := stageShapes(parallel), stageShapes(serial); !slices.Equal(got, want) {
		t.Errorf("stage events differ:\nparallel %v\nserial   %v", got, want)
	}
	if got, want := taskShapes(parallel.Observer()), taskShapes(serial.Observer()); !slices.Equal(got, want) {
		t.Errorf("task spans differ:\nparallel %v\nserial   %v", got, want)
	} else if len(got) == 0 {
		t.Error("no task spans to compare")
	}
	if got, want := parallel.RecoveryStats(), serial.RecoveryStats(); got != want || got.StageResubmits != 1 {
		t.Errorf("recovery stats: parallel %+v, serial %+v, want one resubmission in each", got, want)
	}
	// The breakdown's durations are sums taken in arrival order: equal up
	// to rounding; its byte counts are exact.
	pb, sb := parallel.Breakdown(), serial.Breakdown()
	for _, d := range [][2]float64{
		{pb.Compute.Seconds(), sb.Compute.Seconds()}, {pb.Shuffle.Seconds(), sb.Shuffle.Seconds()},
		{pb.Broadcast.Seconds(), sb.Broadcast.Seconds()}, {pb.Overhead.Seconds(), sb.Overhead.Seconds()},
		{pb.Recovery.Seconds(), sb.Recovery.Seconds()},
	} {
		if math.Abs(d[0]-d[1]) > 1e-9*math.Max(d[1], 1e-9) {
			t.Errorf("breakdown: parallel %+v, serial %+v", pb, sb)
			break
		}
	}
	if pb.ShuffleWriteBytes != sb.ShuffleWriteBytes || pb.ShuffleFetchBytes != sb.ShuffleFetchBytes || pb.BroadcastBytes != sb.BroadcastBytes {
		t.Errorf("breakdown bytes: parallel %+v, serial %+v", pb, sb)
	}
	if total, clock := pb.Total(), parallel.Clock(); math.Abs(total.Seconds()-clock.Seconds()) > 1e-9*clock.Seconds() {
		t.Errorf("breakdown total %v != clock %v", total, clock)
	}
}

// TestWarmStageAllocatesNoSlabs: on a Context that has already run a stage
// of the size, a 1024-task stage allocates its events and detail strings
// and nothing sized by the task count — a slab that is made afresh per
// stage again fails here, not in a benchmark.
func TestWarmStageAllocatesNoSlabs(t *testing.T) {
	ctx := NewContext(Conf{Substrate: slots(cluster.Local(4), 2)})
	stage := func() { runBareStage(ctx, 1024, func(*TaskContext, int, int) {}) }
	stage()
	if allocs := testing.AllocsPerRun(50, stage); allocs > 40 {
		t.Errorf("a warm 1024-task stage makes %v allocations, want ≤ 40", allocs)
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		stage()
	}
	runtime.ReadMemStats(&after)
	if perStage := (after.TotalAlloc - before.TotalAlloc) / runs; perStage > 16<<10 {
		t.Errorf("a warm 1024-task stage allocates %d bytes, want ≤ 16 KiB", perStage)
	}
}

// liveShuffles counts the Context's shuffle states and, among them, the
// tombstones.
func liveShuffles(c *Context) (states, tombstones, listed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, st := range c.shuffles {
		if st == nil {
			tombstones++
		} else {
			states++
		}
	}
	return states, tombstones, len(c.live)
}

// TestCloseRetiresLiveShuffles: Close hands every shuffle the context still
// stages back to the pools — a second Close finds none — and a job over one
// of them then fails as over any retired shuffle.
func TestCloseRetiresLiveShuffles(t *testing.T) {
	ctx := NewContext(Conf{Substrate: slots(cluster.Local(4), 2)})
	r := sizedJob(ctx, 3)
	if _, err := r.Collect(); err != nil {
		t.Fatal(err)
	}
	if states, _, listed := liveShuffles(ctx); states != 1 || listed != 1 {
		t.Fatalf("before Close: %d shuffle states, %d listed live, want 1", states, listed)
	}
	ctx.Close()
	ctx.Close()
	if states, tombstones, listed := liveShuffles(ctx); states != 0 || listed != 0 || tombstones != 1 {
		t.Errorf("after Close: %d states, %d tombstones, %d listed live, want 0, 1, 0", states, tombstones, listed)
	}
	if _, err := r.Collect(); err == nil || !strings.Contains(err.Error(), "was retired") {
		t.Errorf("collecting over a closed context's shuffle: err = %v", err)
	}
}

// TestContextForgetsRetiredShuffles: a Context reused for many jobs keeps
// at most keepShuffles shuffle states — the rest are tombstones whose
// arrays went back to the pool, pointing at no bucket slab — and a late
// job costs what an early one did.
func TestContextForgetsRetiredShuffles(t *testing.T) {
	const keep, jobs = 4, 50
	ctx := NewContext(Conf{Substrate: slots(cluster.Local(4), 2), keepShuffles: keep})
	job := func(j int) time.Duration {
		t0 := time.Now()
		// Three chained shuffles per job.
		r := sizedJob(ctx, j%8)
		for hop := 0; hop < 2; hop++ {
			r = PartitionBy(Map(r, func(_ *TaskContext, p Pair[int, int]) Pair[int, int] {
				return KV(p.Key+1, p.Value)
			}), NewHashPartitioner(64))
		}
		if _, err := r.Collect(); err != nil {
			t.Fatalf("job %d: %v", j, err)
		}
		return time.Since(t0)
	}
	walls := make([]time.Duration, jobs)
	for j := range walls {
		walls[j] = job(j)
		if states, _, listed := liveShuffles(ctx); states > keep || listed != states {
			t.Fatalf("after job %d: %d shuffle states, %d listed live, want ≤ %d", j, states, listed, keep)
		}
	}
	if states, tombstones, _ := liveShuffles(ctx); states+tombstones != 3*jobs {
		t.Errorf("%d states + %d tombstones, want %d shuffles accounted for", states, tombstones, 3*jobs)
	}
	a := takeShuffleArrays(0, 0)
	for i, refs := range a.byReduce[:cap(a.byReduce)] {
		if refs != nil {
			t.Fatalf("pooled shuffle arrays still hold reduce partition %d's buckets", i)
		}
	}
	putShuffleArrays(a)
	outs := mapOutsPool.Get().(*[]mapTaskOut)
	for i, out := range (*outs)[:cap(*outs)] {
		if out.buckets != nil {
			t.Fatalf("pooled map-output slots still hold map task %d's output", i)
		}
	}
	mapOutsPool.Put(outs)
	// Fastest of a window of jobs, so one scheduling hiccup does not decide.
	early, late := slices.Min(walls[3:8]), slices.Min(walls[jobs-5:])
	if float64(late) > 1.2*float64(early)+float64(200*time.Microsecond) {
		t.Errorf("job ~%d took %v, job ~5 took %v: a reused Context got slower", jobs, late, early)
	}

	// A retired shuffle is still skipped by lineage walks and still refuses
	// to be read, by name.
	first := sizedJob(ctx, 0)
	if _, err := first.Collect(); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < keep; j++ {
		job(j)
	}
	stages := len(ctx.Events())
	_, err := first.Collect()
	// The 3·jobs shuffles above took IDs 0..3·jobs-1; first's is next.
	want := fmt.Sprintf(": rdd: shuffle %d was retired; the context keeps the last %d shuffles", 3*jobs, keep)
	if err == nil || !strings.HasSuffix(err.Error(), want) {
		t.Errorf("reading a retired shuffle: err = %v", err)
	}
	if ran := len(ctx.Events()) - stages; ran != 1 {
		t.Errorf("collecting over a retired shuffle ran %d stages, want the result stage only", ran)
	}
}
