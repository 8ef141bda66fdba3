package rdd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"strings"
	"sync"
	"testing"

	"dpspark/internal/cluster"
	"dpspark/internal/obs"
	"dpspark/internal/simtime"
)

// shuffleJob runs one shuffled word-count-style job on the context.
func shuffleJob(t *testing.T, ctx *Context, seed int) {
	t.Helper()
	recs := make([]Pair[int, int], 64)
	for i := range recs {
		recs[i] = KV((seed+i)%8, 1)
	}
	r := ParallelizePairs(ctx, recs, NewHashPartitioner(4))
	shuffled := PartitionBy(r, NewHashPartitioner(2))
	if _, err := shuffled.Collect(); err != nil {
		t.Errorf("job %d: %v", seed, err)
	}
}

// TestParallelJobsOneContext drives several jobs concurrently through a
// single context (run under -race in CI): the event log, the simulator
// and the metrics registry must all tolerate parallel submissions.
func TestParallelJobsOneContext(t *testing.T) {
	ctx := NewContext(Conf{Substrate: slots(cluster.Local(4), 2)})
	ctx.Observer().EnableTrace(true)
	var wg sync.WaitGroup
	for j := 0; j < 8; j++ {
		j := j
		wg.Add(1)
		go func() {
			defer wg.Done()
			shuffleJob(t, ctx, j)
		}()
	}
	wg.Wait()

	events := ctx.Events()
	if len(events) != 16 { // 8 jobs × (map + result)
		t.Errorf("events = %d, want 16", len(events))
	}
	if total, clock := ctx.Breakdown().Total(), ctx.Clock(); math.Abs(total.Seconds()-clock.Seconds()) > 1e-9*clock.Seconds() {
		t.Errorf("breakdown total %v != clock %v", total, clock)
	}
	if ctx.Observer().SpanCount() == 0 {
		t.Error("no spans collected with tracing enabled")
	}
}

// TestMetricsMatchEventLog checks the acceptance identity: the metrics
// dump's shuffle-write total equals the sum of SpillBytes over the
// context's stage events (and the same for fetches).
func TestMetricsMatchEventLog(t *testing.T) {
	ctx := NewContext(Conf{Substrate: slots(cluster.Local(4), 4)})
	ctx.SetPhase("update")
	for j := 0; j < 3; j++ {
		shuffleJob(t, ctx, j)
	}
	var spill, fetch int64
	for _, ev := range ctx.Events() {
		spill += ev.SpillBytes
		fetch += ev.FetchBytes
	}
	if spill == 0 {
		t.Fatal("test jobs staged no shuffle data")
	}
	reg := ctx.Observer().Metrics()
	if got := reg.CounterTotal("dpspark_shuffle_write_bytes_total"); got != spill {
		t.Errorf("metrics shuffle write total = %d, events spill sum = %d", got, spill)
	}
	if got := reg.CounterTotal("dpspark_shuffle_fetch_bytes_total"); got != fetch {
		t.Errorf("metrics shuffle fetch total = %d, events fetch sum = %d", got, fetch)
	}
	if got := ctx.Breakdown().ShuffleWriteBytes; got != spill {
		t.Errorf("breakdown write bytes = %d, events spill sum = %d", got, spill)
	}
}

// TestStagePhaseAttribution checks that shuffle stages inherit the phase
// current when their dependency was created, not when they run.
func TestStagePhaseAttribution(t *testing.T) {
	ctx := NewContext(Conf{Substrate: slots(cluster.Local(2), 1)})
	recs := []Pair[int, int]{KV(1, 1), KV(2, 1)}
	r := ParallelizePairs(ctx, recs, NewHashPartitioner(2))
	ctx.SetPhase("pivot")
	shuffled := PartitionBy(r, NewHashPartitioner(1))
	ctx.SetPhase("update") // dep already created under "pivot"
	if _, err := shuffled.Collect(); err != nil {
		t.Fatal(err)
	}
	events := ctx.Events()
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	if events[0].Kind != StageShuffleMap || events[0].Phase != "pivot" {
		t.Errorf("map stage phase = %q, want pivot", events[0].Phase)
	}
	if events[1].Kind != StageResult || events[1].Phase != "update" {
		t.Errorf("result stage phase = %q, want update", events[1].Phase)
	}
}

// TestTimelineFooter checks the WriteTimeline totals footer agrees with
// the rendered stage lines.
func TestTimelineFooter(t *testing.T) {
	ctx := NewContext(Conf{Substrate: slots(cluster.Local(2), 1)})
	shuffleJob(t, ctx, 0)
	var buf bytes.Buffer
	if err := ctx.WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	events := ctx.Events()
	if len(lines) != len(events)+1 {
		t.Fatalf("timeline lines = %d, want %d stages + footer", len(lines), len(events))
	}
	var spill int64
	for _, ev := range events {
		spill += ev.SpillBytes
	}
	footer := lines[len(lines)-1]
	want := fmt.Sprintf("total %4d stages spill=%dB", len(events), spill)
	if !strings.HasPrefix(footer, want) {
		t.Errorf("footer %q does not start with %q", footer, want)
	}
}

// TestContextTraceExport runs a shuffled job with tracing on and checks
// the exported Chrome trace is valid JSON whose task spans sit on
// executor-core lanes of the context's process.
func TestContextTraceExport(t *testing.T) {
	o := obs.New()
	o.EnableTrace(true)
	ctx := NewContext(Conf{Substrate: slots(cluster.Local(2), 1), Observer: o, ExecutorCores: 2})
	shuffleJob(t, ctx, 0)
	var buf bytes.Buffer
	if err := o.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	pid := float64(ctx.TracePid())
	var taskSpans, stageSpans int
	for _, ev := range trace.TraceEvents {
		if ev["ph"] != "X" || ev["pid"] != pid {
			continue
		}
		cat := ev["cat"].(string)
		switch {
		case cat == "task":
			taskSpans++
			// Local(2) has 1 node with ExecCores=2: core lanes are tids
			// 1 and 2, the io lane tid 3.
			if tid := ev["tid"].(float64); tid < 1 || tid > 2 {
				t.Errorf("task span on tid %v, want an executor-core lane (1-2)", tid)
			}
		case strings.HasPrefix(cat, "stage"):
			stageSpans++
			if tid := ev["tid"].(float64); tid != 0 {
				t.Errorf("stage span on tid %v, want driver lane 0", tid)
			}
		}
	}
	if taskSpans == 0 || stageSpans == 0 {
		t.Errorf("trace has %d task and %d stage spans, want both > 0", taskSpans, stageSpans)
	}
}

// TestEmptyTasksObserved: a stage's empty tasks, which settle counts per
// node instead of listing, still count wherever the stage's tasks are
// counted — the dpspark_task_seconds histogram, the stage-complete event's
// "tasks=" and the trace's stage span — and the busy tasks' spans keep
// their indices in the stage.
func TestEmptyTasksObserved(t *testing.T) {
	o := obs.New()
	o.EnableTrace(true)
	ctx := NewContext(Conf{Substrate: slots(cluster.Local(4), 2), Observer: o, ExecutorCores: 2})
	part := NewHashPartitioner(16)
	recs := []Pair[int, int]{KV(1, 1), KV(6, 1), KV(11, 1)}
	busy := map[string]bool{} // "stage.task" of each task that moves a record
	for _, p := range recs {
		for stage := range 2 {
			busy[fmt.Sprintf("%d.%d", stage, part.Partition(p.Key))] = true
		}
	}
	keyed := Map(ParallelizePairs(ctx, recs, part), func(_ *TaskContext, p Pair[int, int]) Pair[int, int] { return p })
	if _, err := PartitionBy(keyed, NewHashPartitioner(16)).Collect(); err != nil {
		t.Fatal(err)
	}
	if n := len(ctx.Events()); n != 2 {
		t.Fatalf("%d stages, want 2", n)
	}

	for _, kind := range []StageKind{StageShuffleMap, StageResult} {
		if n := o.Metrics().Histogram("dpspark_task_seconds", obs.Labels{"kind": kind.String()}, nil).Count(); n != 16 {
			t.Errorf("%v stage: %d task durations observed, want 16", kind, n)
		}
	}
	completed := 0
	for _, ev := range o.Flight().Snapshot() {
		if ev.Type == obs.EvStageComplete {
			completed++
			if !strings.HasSuffix(ev.Detail, " tasks=16") {
				t.Errorf("stage %d completion %q, want tasks=16", ev.Stage, ev.Detail)
			}
		}
	}
	if completed != 2 {
		t.Errorf("%d stage completions recorded, want 2", completed)
	}
	var taskSpans int
	for _, sp := range o.Spans() {
		switch {
		case strings.HasPrefix(sp.Cat, "stage") && sp.Args["tasks"] != "16":
			t.Errorf("%s: tasks %q, want 16", sp.Name, sp.Args["tasks"])
		case sp.Cat == "task":
			taskSpans++
			if !busy[strings.TrimPrefix(sp.Name, "task ")] {
				t.Errorf("span %q names no task that moved a record (%v)", sp.Name, busy)
			}
		}
	}
	if taskSpans != len(busy) {
		t.Errorf("%d task spans, want one per busy task (%d)", taskSpans, len(busy))
	}
}

// TestSpeculativeCopySpans: a speculative copy's trace span is numbered
// past the stage's tasks, and the stage span counts it.
func TestSpeculativeCopySpans(t *testing.T) {
	o := obs.New()
	o.EnableTrace(true)
	ctx := NewContext(Conf{Substrate: slots(cluster.LocalN(4, 2), 2), Observer: o, ExecutorCores: 2, Speculation: true,
		FaultPlan: &FaultPlan{Events: []FaultEvent{Straggler{Stage: 0, Partition: 2, Factor: 3}}}})
	work := Map(Parallelize(ctx, ints(4), 4), func(tc *TaskContext, v int) int {
		tc.ChargeCompute(simtime.Second, 1)
		return v
	})
	if _, err := work.Collect(); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, sp := range o.Spans() {
		if sp.Cat == "task" {
			names[sp.Name] = true
		} else if strings.HasPrefix(sp.Cat, "stage") && sp.Args["tasks"] != "5" {
			t.Errorf("%s: tasks %q, want 4 and a copy", sp.Name, sp.Args["tasks"])
		}
	}
	if want := map[string]bool{"task 0.0": true, "task 0.1": true, "task 0.2": true, "task 0.3": true, "task 0.4": true}; !maps.Equal(names, want) {
		t.Errorf("task spans %v, want %v", names, want)
	}
}
