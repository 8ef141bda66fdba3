package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels identify one series within a metric family. Values must not
// contain the `"` or newline characters (they are emitted verbatim into
// the Prometheus text format).
type Labels map[string]string

// encode renders labels in canonical (sorted) Prometheus form, e.g.
// `{kind="shuffle-map",phase="update"}`, or "" for no labels.
func (l Labels) encode() string {
	if len(l) == 0 {
		return ""
	}
	// One allocation total: label sets here carry a handful of pairs, so
	// the key scratch lives on the stack and the builder is grown to the
	// exact output size. Values are documented quote- and newline-free,
	// which makes verbatim quoting identical to %q.
	var scratch [8]string
	keys := scratch[:0]
	if len(l) > len(scratch) {
		keys = make([]string, 0, len(l))
	}
	size := 2
	for k, v := range l {
		keys = append(keys, k)
		size += len(k) + len(v) + 4
	}
	sort.Strings(keys)
	var b strings.Builder
	b.Grow(size)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(l[k])
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n < 0 is ignored: counters only grow).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable floating-point metric.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// SetMax raises the gauge to v if v is larger (a high-water mark).
func (g *Gauge) SetMax(v float64) {
	g.mu.Lock()
	if v > g.v {
		g.v = v
	}
	g.mu.Unlock()
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram is a fixed-bucket distribution metric (Prometheus-style
// cumulative buckets: counts[i] observations fell at or below Buckets[i],
// plus an implicit +Inf bucket).
type Histogram struct {
	mu      sync.Mutex
	buckets []float64 // ascending upper bounds
	counts  []int64   // len(buckets)+1; last is the +Inf overflow
	sum     float64
	count   int64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n samples of the same value v under one lock
// acquisition. The sum takes n separate additions, exactly as n Observe
// calls would make them, so batching a per-task tally does not move a
// bit of the exported _sum.
func (h *Histogram) ObserveN(v float64, n int64) {
	h.mu.Lock()
	h.counts[sort.SearchFloat64s(h.buckets, v)] += n
	for i := int64(0); i < n; i++ {
		h.sum += v
	}
	h.count += n
	h.mu.Unlock()
}

// ObserveAll records every sample of vs, in order, under one lock
// acquisition.
func (h *Histogram) ObserveAll(vs []float64) {
	h.mu.Lock()
	for _, v := range vs {
		h.counts[sort.SearchFloat64s(h.buckets, v)]++
		h.sum += v
	}
	h.count += int64(len(vs))
	h.mu.Unlock()
}

// Weighted is one sample standing for N observations of the value V —
// a sampled measurement carrying the count of events it represents.
type Weighted struct {
	V float64
	N int64
}

// ObserveWeighted records every sample of ws, in order, under one lock
// acquisition: each counts N times and adds V·N to the sum.
func (h *Histogram) ObserveWeighted(ws []Weighted) {
	h.mu.Lock()
	for _, w := range ws {
		h.counts[sort.SearchFloat64s(h.buckets, w.V)] += w.N
		h.sum += w.V * float64(w.N)
		h.count += w.N
	}
	h.mu.Unlock()
}

// Sum returns the total of all observed samples.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Count returns the number of observed samples.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// snapshot copies the histogram state under its lock.
func (h *Histogram) snapshot() (buckets []float64, cum []int64, sum float64, count int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	buckets = append([]float64(nil), h.buckets...)
	cum = make([]int64, len(h.counts))
	var run int64
	for i, c := range h.counts {
		run += c
		cum[i] = run
	}
	return buckets, cum, h.sum, h.count
}

// ExpBuckets returns n exponentially growing bucket bounds starting at
// lo, each factor× the previous — the usual shape for duration metrics.
func ExpBuckets(lo, factor float64, n int) []float64 {
	if n < 1 || lo <= 0 || factor <= 1 {
		panic("obs: ExpBuckets needs n ≥ 1, lo > 0, factor > 1")
	}
	out := make([]float64, n)
	v := lo
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n bucket bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	if n < 1 || width <= 0 {
		panic("obs: LinearBuckets needs n ≥ 1, width > 0")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// series is one (family, labels) instance; exactly one of c/g/h is set.
type series struct {
	family string
	labels string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds metric families and their series. Getter methods create
// on first use and return the same instance for the same (name, labels),
// so callers hold no registration state.
type Registry struct {
	mu     sync.Mutex
	series map[string]*series
	types  map[string]string // family → "counter" | "gauge" | "histogram"
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		series: make(map[string]*series),
		types:  make(map[string]string),
	}
}

// lookup finds or creates the series for (name, labels) of the given type.
func (r *Registry) lookup(name, typ string, l Labels) *series {
	enc := l.encode()
	key := name + enc
	r.mu.Lock()
	defer r.mu.Unlock()
	if have, ok := r.types[name]; ok && have != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, have, typ))
	}
	r.types[name] = typ
	s, ok := r.series[key]
	if !ok {
		s = &series{family: name, labels: enc}
		r.series[key] = s
	}
	return s
}

// Counter returns the counter for (name, labels), creating it on first use.
func (r *Registry) Counter(name string, l Labels) *Counter {
	s := r.lookup(name, "counter", l)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name string, l Labels) *Gauge {
	s := r.lookup(name, "gauge", l)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// Histogram returns the histogram for (name, labels), creating it with
// the given bucket bounds on first use (later calls keep the first
// registration's buckets).
func (r *Registry) Histogram(name string, l Labels, buckets []float64) *Histogram {
	s := r.lookup(name, "histogram", l)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.h == nil {
		bs := append([]float64(nil), buckets...)
		sort.Float64s(bs)
		s.h = &Histogram{buckets: bs, counts: make([]int64, len(bs)+1)}
	}
	return s.h
}

// CounterTotal sums every series of a counter family (all label sets).
func (r *Registry) CounterTotal(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for _, s := range r.series {
		if s.family == name && s.c != nil {
			total += s.c.Value()
		}
	}
	return total
}
