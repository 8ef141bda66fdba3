package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dpspark/internal/simtime"
)

// Observability-plane unit tests: the critical-path walk over a
// synthetic timeline, histogram quantiles, the flight-recorder ring and
// the HTTP scrape endpoints.

// TestCritPathSyntheticWalk drives the path computation over a
// hand-built timeline: a driver segment, a stage with its critical
// split, a gap, a resubmitted stage and a fully-overlapped entry.
func TestCritPathSyntheticWalk(t *testing.T) {
	r := newCritPathRecorder()
	r.SetEnabled(true)
	const pid = 1

	// [0,2): broadcast segment.
	r.RecordSegment(pid, CritSegment{Start: 0, End: 2 * simtime.Second, Phase: PhaseBroadcast})
	// [2,12): stage whose critical node takes 3 shuffle + 1 shared + 5
	// compute = 9; residual overhead 1.
	r.RecordStage(pid, CritStage{
		Start: 2 * simtime.Second, End: 12 * simtime.Second, Speculative: 1,
		ShuffleIO: 3 * simtime.Second, SharedIO: 1 * simtime.Second, Compute: 5 * simtime.Second,
	})
	// Entry fully covered by the stage above: must be skipped.
	r.RecordSegment(pid, CritSegment{Start: 3 * simtime.Second, End: 4 * simtime.Second, Phase: PhaseCompute})
	// [12,13): uncovered gap. [13,16): resubmitted attempt → recovery.
	r.RecordStage(pid, CritStage{
		Start: 13 * simtime.Second, End: 16 * simtime.Second,
		Attempt: 1, Compute: 3 * simtime.Second,
	})

	rep := r.Compute(pid, 0, 16*simtime.Second)
	want := map[string]simtime.Duration{
		PhaseBroadcast: 3 * simtime.Second, // 2 segment + 1 shared I/O
		PhaseShuffle:   3 * simtime.Second,
		PhaseCompute:   5 * simtime.Second,
		PhaseOverhead:  1 * simtime.Second, // 10 − 9 makespan
		PhaseRecovery:  3 * simtime.Second,
	}
	for p, d := range want {
		if got := rep.Phase(p); got != d {
			t.Errorf("phase %s = %v, want %v", p, got, d)
		}
	}
	if rep.Len != 15*simtime.Second {
		t.Errorf("Len = %v, want 15s", rep.Len)
	}
	if rep.Unattributed != 1*simtime.Second {
		t.Errorf("Unattributed = %v, want the 1s gap", rep.Unattributed)
	}
	if rep.Stages != 2 || rep.RecoveryStages != 1 || rep.Segments != 1 || rep.Speculative != 1 {
		t.Errorf("counts = %d stages / %d recovery / %d segments / %d spec, want 2/1/1/1",
			rep.Stages, rep.RecoveryStages, rep.Segments, rep.Speculative)
	}

	// ComputeAll spans the recorded timeline exactly.
	all := r.ComputeAll(pid)
	if all.Len != rep.Len || all.Unattributed != rep.Unattributed {
		t.Errorf("ComputeAll = %v/%v, want %v/%v", all.Len, all.Unattributed, rep.Len, rep.Unattributed)
	}

	// A window restricted to the recovery attempt sees only it.
	tail := r.Compute(pid, 13*simtime.Second, 16*simtime.Second)
	if tail.Len != 3*simtime.Second || tail.RecoveryStages != 1 || tail.Unattributed != 0 {
		t.Errorf("tail window = %+v, want pure 3s recovery", tail)
	}
}

// TestCritPathDisabled: the recorder is opt-in — nothing is retained
// while off, and Compute reports the whole window as unattributed.
func TestCritPathDisabled(t *testing.T) {
	r := newCritPathRecorder()
	r.RecordSegment(1, CritSegment{Start: 0, End: simtime.Second, Phase: PhaseCompute})
	r.RecordStage(1, CritStage{Start: 0, End: simtime.Second})
	rep := r.Compute(1, 0, simtime.Second)
	if rep.Len != 0 || rep.Unattributed != simtime.Second {
		t.Errorf("disabled recorder attributed time: %+v", rep)
	}
	if len(r.Pids()) != 0 {
		t.Errorf("disabled recorder retained pids: %v", r.Pids())
	}
}

// TestFlightRecorderRing: wrap-around, sequence numbers, drop counting,
// Tail and clock stamping.
func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(4)
	clock := simtime.Duration(0)
	f.SetClockSource(func() simtime.Duration { return clock })

	for i := 0; i < 6; i++ {
		clock = simtime.Duration(i) * simtime.Second
		f.Record(Event{Clock: -1, Type: EvStageSubmit, Stage: i, Attempt: 0, Part: -1, Node: -1, Shuffle: -1})
	}
	if f.Len() != 4 {
		t.Errorf("Len = %d, want ring capacity 4", f.Len())
	}
	if f.Dropped() != 2 {
		t.Errorf("Dropped = %d, want 2", f.Dropped())
	}
	snap := f.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Snapshot holds %d events, want 4", len(snap))
	}
	for i, ev := range snap {
		wantSeq := uint64(i + 2) // oldest two overwritten
		if ev.Seq != wantSeq || ev.Stage != i+2 {
			t.Errorf("snap[%d] = seq %d stage %d, want seq %d stage %d", i, ev.Seq, ev.Stage, wantSeq, i+2)
		}
		if ev.Clock != float64(i+2) {
			t.Errorf("snap[%d] clock = %v, want stamped %v", i, ev.Clock, i+2)
		}
	}
	tail := f.Tail(2)
	if len(tail) != 2 || tail[0].Seq != 4 || tail[1].Seq != 5 {
		t.Errorf("Tail(2) = %+v, want seqs 4,5 oldest-first", tail)
	}
	if got := f.Tail(100); len(got) != 4 {
		t.Errorf("oversized Tail = %d events, want all 4", len(got))
	}

	// An explicit clock stamp is preserved verbatim.
	f.Record(Event{Clock: 42.5, Type: EvFault, Stage: -1, Part: -1, Node: -1, Shuffle: -1})
	last := f.Tail(1)[0]
	if last.Clock != 42.5 {
		t.Errorf("explicit clock = %v, want 42.5", last.Clock)
	}

	// JSONL round-trip: every line decodes back to the source event.
	var buf bytes.Buffer
	if err := f.WriteJSONL(&buf, 0); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("JSONL has %d lines, want 4", len(lines))
	}
	var back Event
	if err := json.Unmarshal([]byte(lines[3]), &back); err != nil {
		t.Fatal(err)
	}
	if back != last {
		t.Errorf("JSONL round-trip drifted: %+v vs %+v", back, last)
	}
}

// buildFixedRegistry populates a registry with a deterministic mix of
// every metric type for the exposition-format golden test.
func buildFixedRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("dpspark_stage_total", Labels{"kind": "update"}).Add(7)
	reg.Counter("dpspark_stage_total", Labels{"kind": "result"}).Add(3)
	reg.Gauge("dpspark_critical_path_seconds", Labels{"phase": "compute"}).Set(12.5)
	reg.Gauge("dpspark_critical_path_seconds", Labels{"phase": "total"}).Set(20)
	h := reg.Histogram("dpspark_task_seconds", nil, ExpBuckets(0.5, 2, 3))
	for _, v := range []float64{0.25, 0.75, 3} {
		h.Observe(v)
	}
	return reg
}

// TestPrometheusGolden pins WritePrometheus output byte-for-byte: the
// exposition format is an interface CI and dashboards parse, so drift
// must be deliberate (-update regenerates).
func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildFixedRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "prometheus_golden.txt")
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
		t.Errorf("prometheus exposition drifted from golden file:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Determinism: a second render is byte-identical.
	var again bytes.Buffer
	if err := buildFixedRegistry().WritePrometheus(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("two renders of the same registry differ")
	}
}

// TestHTTPEndpoints exercises every scrape route against a populated
// observer: the live /metrics bytes must equal a direct WritePrometheus
// dump, /events must serve well-formed JSON lines, and /debug/critpath
// must expose the per-context reports.
func TestHTTPEndpoints(t *testing.T) {
	o := New()
	o.EnableCritPath(true)
	o.Metrics().Counter("dpspark_stage_total", Labels{"kind": "update"}).Add(2)
	o.Metrics().Gauge("dpspark_clock_seconds", nil).Set(3.5)
	o.Flight().Record(Event{Clock: 1, Type: EvStageSubmit, Stage: 0, Part: -1, Node: -1, Shuffle: -1})
	o.Flight().Record(Event{Clock: 2, Type: EvStageComplete, Stage: 0, Part: -1, Node: -1, Shuffle: -1})
	o.CritPath().RecordStage(7, CritStage{
		Start: 0, End: 2 * simtime.Second, Compute: 2 * simtime.Second,
	})

	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var body bytes.Buffer
		if _, err := body.ReadFrom(resp.Body); err != nil {
			t.Fatalf("GET %s read: %v", path, err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), body.String()
	}

	if code, _, body := get("/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}

	code, ctype, body := get("/metrics")
	if code != http.StatusOK || !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("/metrics = %d, content-type %q", code, ctype)
	}
	var direct bytes.Buffer
	if err := o.Metrics().WritePrometheus(&direct); err != nil {
		t.Fatal(err)
	}
	if body != direct.String() {
		t.Errorf("live /metrics differs from WritePrometheus dump:\n%s\nvs\n%s", body, direct.String())
	}

	code, ctype, body = get("/events?n=1")
	if code != http.StatusOK || ctype != "application/x-ndjson" {
		t.Errorf("/events = %d, content-type %q", code, ctype)
	}
	var ev Event
	if err := json.Unmarshal([]byte(strings.TrimSpace(body)), &ev); err != nil {
		t.Fatalf("/events line is not JSON: %v\n%s", err, body)
	}
	if ev.Type != EvStageComplete {
		t.Errorf("/events?n=1 returned %q, want newest event %q", ev.Type, EvStageComplete)
	}
	if code, _, _ := get("/events?n=bogus"); code != http.StatusBadRequest {
		t.Errorf("/events?n=bogus = %d, want 400", code)
	}

	code, ctype, body = get("/debug/critpath")
	if code != http.StatusOK || ctype != "application/json" {
		t.Errorf("/debug/critpath = %d, content-type %q", code, ctype)
	}
	var dump struct {
		Enabled bool                      `json:"enabled"`
		Pids    map[string]CritPathReport `json:"pids"`
	}
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("/debug/critpath is not JSON: %v\n%s", err, body)
	}
	if !dump.Enabled {
		t.Error("/debug/critpath reports disabled")
	}
	rep, ok := dump.Pids["7"]
	if !ok || rep.Len != 2*simtime.Second || rep.Phase(PhaseCompute) != 2*simtime.Second {
		t.Errorf("/debug/critpath pid 7 = %+v (present %v), want 2s compute", rep, ok)
	}
}

// TestListenAndServe: the real listener binds, serves and closes.
func TestListenAndServe(t *testing.T) {
	o := New()
	srv, err := ListenAndServe("localhost:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz over real listener = %d", resp.StatusCode)
	}
	if _, err := ListenAndServe("256.256.256.256:0", o); err == nil {
		t.Error("bad bind address must error synchronously")
	}
}

// TestFlightRingGrowsByDoubling: the observer every engine context gets
// allocates its ring as events arrive, doubling up to the capacity — a
// context that records 10 events holds a ring of at most 16, not 4096 —
// and a ring that outgrows a capacity that is not a power of two still
// fills to exactly that capacity and wraps oldest-first.
func TestFlightRingGrowsByDoubling(t *testing.T) {
	f := New().Flight()
	for i := 0; i < 10; i++ {
		f.Record(Event{Stage: i})
	}
	if c := cap(f.buf); c > 16 {
		t.Errorf("10 events allocated a ring of %d", c)
	}
	g := NewFlightRecorder(100)
	for i := 0; i < 250; i++ {
		g.Record(Event{Stage: i})
	}
	if c := cap(g.buf); c != 100 {
		t.Errorf("a ring of capacity 100 grew to %d", c)
	}
	for i, ev := range g.Snapshot() {
		if ev.Stage != 150+i {
			t.Fatalf("snapshot[%d] is stage %d, want %d", i, ev.Stage, 150+i)
		}
	}
}

// TestFlightReserve: a ring reserved for n events records them without
// regrowing, a reservation never takes it past its capacity, and what it
// holds is what an unreserved ring holds.
func TestFlightReserve(t *testing.T) {
	f, g := NewFlightRecorder(100), NewFlightRecorder(100)
	f.Reserve(40)
	f.Record(Event{Stage: 0})
	g.Record(Event{Stage: 0})
	first := &f.buf[0]
	for i := 1; i < 40; i++ {
		f.Record(Event{Stage: i})
		g.Record(Event{Stage: i})
	}
	if &f.buf[0] != first || cap(f.buf) != 40 {
		t.Errorf("40 reserved events regrew the ring to %d", cap(f.buf))
	}
	f.Reserve(1000)
	if c := cap(f.buf); c != 100 {
		t.Errorf("reserving past the capacity of 100 made a ring of %d", c)
	}
	for i := 40; i < 250; i++ {
		f.Record(Event{Stage: i})
		g.Record(Event{Stage: i})
	}
	f.Reserve(10) // full: nothing to make room for
	if !reflect.DeepEqual(f.Snapshot(), g.Snapshot()) || cap(f.buf) != 100 {
		t.Errorf("a reserved ring holds %v, an unreserved one %v", f.Snapshot(), g.Snapshot())
	}
}

// TestFlightRecorderSinceCursor: Since(seq) is the tailing cursor — it
// returns exactly the events newer than the cursor, stays correct across
// ring wrap (where the cursor may point at an already-overwritten seq),
// and returns nothing once the caller is caught up.
func TestFlightRecorderSinceCursor(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 3; i++ {
		f.Record(Event{Type: EvStageSubmit, Stage: i, Attempt: 0, Part: -1, Node: -1, Shuffle: -1})
	}
	got := f.Since(0)
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("Since(0) = %+v, want seqs 1,2", got)
	}
	if got := f.Since(2); len(got) != 0 {
		t.Fatalf("caught-up Since = %+v, want empty", got)
	}
	if got := f.Since(100); len(got) != 0 {
		t.Fatalf("future cursor Since = %+v, want empty", got)
	}

	// Wrap the ring: seqs 0-1 are overwritten. A cursor pointing into the
	// dropped range returns everything still held (the reader lost events
	// and the Dropped counter says so); a cursor inside the held range
	// returns the strict suffix.
	for i := 3; i < 6; i++ {
		f.Record(Event{Type: EvStageSubmit, Stage: i, Attempt: 0, Part: -1, Node: -1, Shuffle: -1})
	}
	if got := f.Since(1); len(got) != 4 || got[0].Seq != 2 {
		t.Fatalf("Since(1) after wrap = %d events starting seq %d, want all 4 held from seq 2", len(got), got[0].Seq)
	}
	if got := f.Since(4); len(got) != 1 || got[0].Seq != 5 {
		t.Fatalf("Since(4) after wrap = %+v, want just seq 5", got)
	}
	if f.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", f.Dropped())
	}
}

// TestFlightDropCounter: the observer wires ring overwrites into
// dpspark_flight_events_dropped_total so scrapers notice loss without
// diffing sequence numbers.
func TestFlightDropCounter(t *testing.T) {
	o := New()
	overflow := DefaultFlightCapacity + 7
	for i := 0; i < overflow; i++ {
		o.Flight().Record(Event{Type: EvTaskRetry, Stage: -1, Part: -1, Node: -1, Shuffle: -1})
	}
	if n := o.Metrics().CounterTotal("dpspark_flight_events_dropped_total"); n != 7 {
		t.Fatalf("drop counter = %d, want 7", n)
	}
	if d := o.Flight().Dropped(); d != 7 {
		t.Fatalf("Dropped() = %d, want 7", d)
	}
}

// TestEventsSinceEndpoint: /events?since=SEQ serves the NDJSON suffix
// past the cursor, so pollers scrape incrementally.
func TestEventsSinceEndpoint(t *testing.T) {
	o := New()
	for i := 0; i < 5; i++ {
		o.Flight().Record(Event{Clock: float64(i), Type: EvStageSubmit, Stage: i, Part: -1, Node: -1, Shuffle: -1})
	}
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/events?since=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content-type = %q", ct)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(body.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("since=2 returned %d lines, want 2:\n%s", len(lines), body.String())
	}
	for i, line := range lines {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if want := uint64(3 + i); ev.Seq != want {
			t.Fatalf("line %d seq = %d, want %d", i, ev.Seq, want)
		}
	}

	if resp, err := http.Get(srv.URL + "/events?since=bogus"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("since=bogus = %d, want 400", resp.StatusCode)
		}
	}
}

// TestEventsJobFilter: /events?job=ID serves only one tenant job's
// events, composing with both the ?since cursor and the ?n tail.
func TestEventsJobFilter(t *testing.T) {
	o := New()
	for i := 0; i < 6; i++ {
		job := "job-1"
		if i%2 == 1 {
			job = "job-2"
		}
		o.Flight().Record(Event{Clock: float64(i), Type: EvStageSubmit, Job: job, Stage: i, Part: -1, Node: -1, Shuffle: -1})
	}
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	fetch := func(query string) []Event {
		t.Helper()
		resp, err := http.Get(srv.URL + "/events" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body bytes.Buffer
		if _, err := body.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		var out []Event
		for _, line := range strings.Split(strings.TrimSpace(body.String()), "\n") {
			if line == "" {
				continue
			}
			var ev Event
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("line not JSON: %v\n%s", err, line)
			}
			out = append(out, ev)
		}
		return out
	}

	evs := fetch("?job=job-1")
	if len(evs) != 3 {
		t.Fatalf("job=job-1 returned %d events, want 3", len(evs))
	}
	for _, ev := range evs {
		if ev.Job != "job-1" {
			t.Fatalf("foreign event leaked through the job filter: %+v", ev)
		}
	}
	if evs := fetch("?since=2&job=job-2"); len(evs) != 2 {
		t.Fatalf("since=2&job=job-2 returned %d events, want 2", len(evs))
	} else {
		for _, ev := range evs {
			if ev.Job != "job-2" || ev.Seq <= 2 {
				t.Fatalf("cursor+job filter broken: %+v", ev)
			}
		}
	}
	if evs := fetch("?job=job-3"); len(evs) != 0 {
		t.Fatalf("unknown job returned %d events, want 0", len(evs))
	}
}
