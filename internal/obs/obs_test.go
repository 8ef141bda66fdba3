package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dpspark/internal/simtime"
)

var update = flag.Bool("update", false, "rewrite golden files")

// buildFixedObserver assembles a small deterministic trace: one process,
// a driver lane, two core lanes and an io lane, with nested stage/task
// spans.
func buildFixedObserver() *Observer {
	o := New()
	o.EnableTrace(true)
	pid := o.RegisterProcess("dpspark test-cluster×2")
	o.NameThread(pid, 0, "driver")
	o.NameThread(pid, 1, "node0 core0")
	o.NameThread(pid, 2, "node0 core1")
	o.NameThread(pid, 3, "node0 io")
	o.Add(Span{Name: "stage 0 result", Cat: "stage,update", Pid: pid, Tid: 0,
		Start: 0, Dur: 3 * simtime.Second,
		Args: map[string]string{"phase": "update", "tasks": "2"}})
	o.Add(Span{Name: "io stage 0", Cat: "io", Pid: pid, Tid: 3,
		Start: 0, Dur: simtime.Second})
	o.Add(Span{Name: "task 0.0", Cat: "task", Pid: pid, Tid: 1,
		Start: simtime.Second, Dur: simtime.Second})
	o.Add(Span{Name: "task 0.1", Cat: "task", Pid: pid, Tid: 2,
		Start: simtime.Second, Dur: 2 * simtime.Second})
	return o
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildFixedObserver().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("chrome trace drifted from golden file:\ngot:  %s\nwant: %s", got, want)
	}
}

func TestChromeTraceShape(t *testing.T) {
	var buf bytes.Buffer
	if err := buildFixedObserver().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("exporter output is not valid JSON: %v", err)
	}
	if trace.Unit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", trace.Unit)
	}
	var metas, completes int
	var stage, task map[string]any
	for _, ev := range trace.TraceEvents {
		switch ev["ph"] {
		case "M":
			metas++
		case "X":
			completes++
			name := ev["name"].(string)
			if strings.HasPrefix(name, "stage") {
				stage = ev
			}
			if name == "task 0.1" {
				task = ev
			}
		default:
			t.Errorf("unexpected event phase %v", ev["ph"])
		}
	}
	// process_name + 4×(thread_name + thread_sort_index).
	if metas != 9 {
		t.Errorf("metadata events = %d, want 9", metas)
	}
	if completes != 4 {
		t.Errorf("complete events = %d, want 4", completes)
	}
	// Spans nest: the task interval sits inside the stage interval.
	ts, dur := task["ts"].(float64), task["dur"].(float64)
	sts, sdur := stage["ts"].(float64), stage["dur"].(float64)
	if ts < sts || ts+dur > sts+sdur {
		t.Errorf("task span [%v,%v] not nested in stage span [%v,%v]", ts, ts+dur, sts, sts+sdur)
	}
	// Timestamps are microseconds: 1 virtual second = 1e6.
	if ts != 1e6 || dur != 2e6 {
		t.Errorf("task ts/dur = %v/%v µs, want 1e6/2e6", ts, dur)
	}
}

func TestTraceDisabledCollectsNothing(t *testing.T) {
	o := New()
	o.Add(Span{Name: "x", Pid: 1})
	if n := o.SpanCount(); n != 0 {
		t.Errorf("spans collected while tracing off: %d", n)
	}
	o.EnableTrace(true)
	o.Add(Span{Name: "x", Pid: 1})
	if n := o.SpanCount(); n != 1 {
		t.Errorf("spans = %d after enabling, want 1", n)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	const workers = 16
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				reg.Counter("c_total", Labels{"w": string(rune('a' + w%4))}).Inc()
				reg.Gauge("g", nil).SetMax(float64(i))
				reg.Histogram("h_seconds", nil, LinearBuckets(0, 100, 12)).Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := reg.CounterTotal("c_total"); got != workers*perWorker {
		t.Errorf("counter total = %d, want %d", got, workers*perWorker)
	}
	h := reg.Histogram("h_seconds", nil, nil)
	if h.Count() != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
	if g := reg.Gauge("g", nil).Value(); g != perWorker-1 {
		t.Errorf("gauge high-water = %v, want %v", g, perWorker-1)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE c_total counter",
		"# TYPE h_seconds histogram",
		`h_seconds_bucket{le="+Inf"} 16000`,
		"h_seconds_count 16000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus dump missing %q:\n%s", want, out)
		}
	}
}

func TestObserverConcurrentSpans(t *testing.T) {
	o := New()
	o.EnableTrace(true)
	pid := o.RegisterProcess("p")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				o.NameThread(pid, i%4, "lane")
				o.Add(Span{Name: "s", Pid: pid, Tid: i % 4})
			}
		}()
	}
	wg.Wait()
	if n := o.SpanCount(); n != 4000 {
		t.Errorf("spans = %d, want 4000", n)
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on counter/gauge type mismatch")
		}
	}()
	reg := NewRegistry()
	reg.Counter("m", nil)
	reg.Gauge("m", nil)
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", nil, ExpBuckets(1, 2, 3)) // 1, 2, 4
	for _, v := range []float64{0.5, 1, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("count = %d, want 4", h.Count())
	}
	if h.Sum() != 104.5 {
		t.Errorf("sum = %v, want 104.5", h.Sum())
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`h_bucket{le="1"} 2`,
		`h_bucket{le="2"} 2`,
		`h_bucket{le="4"} 3`,
		`h_bucket{le="+Inf"} 4`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("missing %q in:\n%s", want, buf.String())
		}
	}
}

// TestHistogramBatchedObserveKeepsBits: ObserveN(v, n) and ObserveAll
// leave the histogram exactly where the same samples observed one at a
// time leave it — including the last bit of the sum, which a v*n shortcut
// would move.
func TestHistogramBatchedObserveKeepsBits(t *testing.T) {
	const v = 0.1 // not representable: 0.1 added n times ≠ 0.1*n
	one := &Histogram{buckets: ExpBuckets(1e-4, 2, 22), counts: make([]int64, 23)}
	batched := &Histogram{buckets: ExpBuckets(1e-4, 2, 22), counts: make([]int64, 23)}
	walls := []float64{3e-5, 0.25, 7, 1e9, 0.25}
	for i := 0; i < 1000; i++ {
		one.Observe(v)
	}
	for _, w := range walls {
		one.Observe(w)
	}
	for _, n := range []int64{1, 0, 700, 299} {
		batched.ObserveN(v, n)
	}
	batched.ObserveAll(walls)
	if math.Float64bits(one.Sum()) != math.Float64bits(batched.Sum()) {
		t.Errorf("sum %v (one at a time) vs %v (batched)", one.Sum(), batched.Sum())
	}
	if one.Count() != batched.Count() || !reflect.DeepEqual(one.counts, batched.counts) {
		t.Errorf("counts %v/%d vs %v/%d", one.counts, one.Count(), batched.counts, batched.Count())
	}
}

// TestHistogramObserveWeighted: a weighted sample lands N times in its
// bucket and adds V·N to the sum.
func TestHistogramObserveWeighted(t *testing.T) {
	h := &Histogram{buckets: []float64{1, 2, 4}, counts: make([]int64, 4)}
	h.ObserveWeighted([]Weighted{{V: 0.5, N: 3}, {V: 3, N: 1}, {V: 9, N: 0}, {V: 8, N: 2}})
	if h.Count() != 6 || h.Sum() != 0.5*3+3+8*2 {
		t.Fatalf("count %d sum %v, want 6 and 20.5", h.Count(), h.Sum())
	}
	if want := []int64{3, 0, 1, 2}; !reflect.DeepEqual(h.counts, want) {
		t.Fatalf("bucket counts %v, want %v", h.counts, want)
	}
}
