package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dpspark/internal/obs"
	"dpspark/internal/simtime"
)

// The traced pass records a span around every call the harness makes
// into a layer. Spans stay in memory and are written when the pass ends,
// by the Chrome trace-event writer the program itself uses
// (internal/obs/chrome.go), so both open in the same viewer. A nil
// *tracer records nothing: the untraced pass runs the same code.

// span is one timed call. ID is the solve or job it belongs to; Parent
// indexes the span that caused it (-1 for a root).
type span struct {
	Name, Layer string
	ID, Parent  int
	Start, End  time.Time
}

type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name, layer string, id, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, ID: id, Parent: parent, Start: time.Now()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records a span whose times were taken elsewhere (a server's job
// timestamps).
func (t *tracer) add(name, layer string, id, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name, layer, id, parent, start, end})
	return len(t.spans) - 1
}

// splitRow is one line of the self-time table.
type splitRow struct {
	Name, Layer string
	Count       int
	Total, Self time.Duration
}

// split sums, per span name, the total time and the self time: a span's
// duration minus the part its child spans cover. The self times of a
// root and all its descendants add up to the root's duration.
func (t *tracer) split() []splitRow {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	childTime := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childTime[s.Parent] += s.End.Sub(s.Start)
		}
	}
	rows := map[string]*splitRow{}
	var order []string
	for i, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &splitRow{Name: s.Name, Layer: s.Layer}
			rows[s.Name] = r
			order = append(order, s.Name)
		}
		d := s.End.Sub(s.Start)
		r.Count++
		r.Total += d
		self := d - childTime[i]
		if self < 0 {
			self = 0
		}
		r.Self += self
	}
	out := make([]splitRow, 0, len(order))
	for _, n := range order {
		out = append(out, *rows[n])
	}
	return out
}

// durations returns every span of the given name, in seconds.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End.Sub(s.Start).Seconds())
		}
	}
	return out
}

// printSplit writes the self-time table; the self column sums to the
// time of the root spans.
func printSplit(w io.Writer, rows []splitRow, root string) {
	var rootTotal, selfSum time.Duration
	for _, r := range rows {
		if r.Name == root {
			rootTotal = r.Total
		}
		selfSum += r.Self
	}
	fmt.Fprintf(w, "%-18s %-8s %6s %12s %12s %7s\n", "span", "layer", "count", "total_s", "self_s", "share")
	for _, r := range rows {
		share := 0.0
		if rootTotal > 0 {
			share = r.Self.Seconds() / rootTotal.Seconds()
		}
		fmt.Fprintf(w, "%-18s %-8s %6d %12.4f %12.4f %6.1f%%\n", r.Name, r.Layer, r.Count, r.Total.Seconds(), r.Self.Seconds(), 100*share)
	}
	fmt.Fprintf(w, "%-18s %-8s %6s %12.4f %12.4f\n", "sum of self", "", "", rootTotal.Seconds(), selfSum.Seconds())
}

// writeChrome writes the spans through the program's own Chrome
// trace-event writer: one lane per solve or job id, times in seconds
// since the first span.
func (t *tracer) writeChrome(path, process string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	o := obs.New()
	o.EnableTrace(true)
	pid := o.RegisterProcess(process)
	var t0 time.Time
	for _, s := range spans {
		if t0.IsZero() || s.Start.Before(t0) {
			t0 = s.Start
		}
	}
	for _, s := range spans {
		o.Add(obs.Span{
			Name: s.Name, Cat: s.Layer, Pid: pid, Tid: s.ID,
			Start: simtime.Duration(s.Start.Sub(t0).Seconds()),
			Dur:   simtime.Duration(s.End.Sub(s.Start).Seconds()),
			Args:  map[string]string{"id": fmt.Sprint(s.ID)},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = o.WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// finish writes the trace file of a traced pass and prints its self-time
// table; root names the spans the table sums to.
func (t *tracer) finish(e *env, root string) error {
	path := filepath.Join(e.out, "trace-"+e.spec.Name+".json")
	if err := t.writeChrome(path, "benchmark "+e.spec.Name); err != nil {
		return err
	}
	fmt.Fprintf(e.log, "spans written to %s\n", path)
	printSplit(e.log, t.split(), root)
	return nil
}
