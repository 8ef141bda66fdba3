// Package obs is the engine's observability layer: a lightweight span
// tracer on the virtual clock plus a metrics registry (counters, gauges,
// histograms).
//
// The engine (internal/rdd), the GEP drivers (internal/core) and the
// kernel layer record into one Observer per job; two exporters turn the
// collected data into standard formats:
//
//   - WriteChromeTrace emits Chrome trace-event JSON loadable in
//     Perfetto / chrome://tracing, with one process per engine context
//     and one lane (thread) per executor core on the virtual clock;
//   - WritePrometheus emits a Prometheus-style text dump of every
//     counter, gauge and histogram.
//
// Metrics collection is always on (it is a handful of atomic adds per
// stage); span collection is opt-in via EnableTrace because a paper-scale
// sweep executes hundreds of thousands of tasks.
package obs

import (
	"sync"

	"dpspark/internal/simtime"
)

// Span is one completed interval on the virtual clock. Pid/Tid address a
// trace lane: the engine uses one process per context, thread 0 for the
// driver and one thread per (node, executor-core) pair for tasks.
type Span struct {
	// Name labels the interval ("stage 12", "iter 3", "s12.t7", ...).
	Name string
	// Cat is the span category ("stage", "task", "driver", "io", ...).
	Cat string
	// Pid and Tid select the trace lane.
	Pid, Tid int
	// Start is the span's begin on the virtual clock.
	Start simtime.Duration
	// Dur is the span's length.
	Dur simtime.Duration
	// Args carries extra key/value detail shown by the trace viewer.
	Args map[string]string
}

// Observer collects spans and metrics for one or more engine contexts.
// It is safe for concurrent use from parallel tasks and parallel jobs.
type Observer struct {
	mu      sync.Mutex
	traceOn bool
	spans   []Span
	procs   map[int]string
	threads map[[2]int]string
	nextPid int

	reg    *Registry
	flight *FlightRecorder
	crit   *CritPathRecorder
}

// New returns an empty observer: metrics and the flight recorder
// enabled, tracing and critical-path recording disabled.
func New() *Observer {
	o := &Observer{
		procs:   make(map[int]string),
		threads: make(map[[2]int]string),
		nextPid: 1,
		reg:     NewRegistry(),
		flight:  NewFlightRecorder(DefaultFlightCapacity),
		crit:    newCritPathRecorder(),
	}
	// Ring overwrites surface as a counter so scrapers notice event loss
	// (and can size their `since` polling accordingly) without diffing
	// sequence numbers.
	o.flight.SetDropCounter(o.reg.Counter("dpspark_flight_events_dropped_total", nil))
	return o
}

// EnableTrace switches span collection on or off. Metrics are always
// collected.
func (o *Observer) EnableTrace(on bool) {
	o.mu.Lock()
	o.traceOn = on
	o.mu.Unlock()
}

// TraceEnabled reports whether spans are being collected.
func (o *Observer) TraceEnabled() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.traceOn
}

// Metrics returns the observer's metrics registry.
func (o *Observer) Metrics() *Registry { return o.reg }

// Flight returns the observer's always-on flight recorder.
func (o *Observer) Flight() *FlightRecorder { return o.flight }

// CritPath returns the observer's critical-path recorder.
func (o *Observer) CritPath() *CritPathRecorder { return o.crit }

// EnableCritPath switches critical-path interval recording on or off.
func (o *Observer) EnableCritPath(on bool) { o.crit.SetEnabled(on) }

// RegisterProcess allocates a trace process id with the given display
// name (one per engine context).
func (o *Observer) RegisterProcess(name string) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	pid := o.nextPid
	o.nextPid++
	o.procs[pid] = name
	return pid
}

// NameThread sets the display name of a trace lane. Naming an already
// named lane is a no-op, so callers may name lazily on first use.
func (o *Observer) NameThread(pid, tid int, name string) {
	key := [2]int{pid, tid}
	o.mu.Lock()
	if _, ok := o.threads[key]; !ok {
		o.threads[key] = name
	}
	o.mu.Unlock()
}

// Add records a completed span. A no-op while tracing is disabled.
func (o *Observer) Add(s Span) {
	o.mu.Lock()
	if o.traceOn {
		o.spans = append(o.spans, s)
	}
	o.mu.Unlock()
}

// Spans returns a copy of the collected spans in recording order.
func (o *Observer) Spans() []Span {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]Span, len(o.spans))
	copy(out, o.spans)
	return out
}

// SpanCount returns the number of collected spans.
func (o *Observer) SpanCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.spans)
}
