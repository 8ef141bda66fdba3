// Package simtime provides the virtual-time primitives used by the cluster
// simulator: a Duration type measured in model seconds, and a Ledger that
// attributes time and traffic to cost categories (compute, network, disk,
// scheduler overhead) so experiments can report breakdowns.
//
// Virtual time is deliberately decoupled from wall-clock time: the same
// engine code path accumulates simtime when replaying paper-scale
// experiments in model mode and when executing small problems for real.
package simtime

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Duration is a span of virtual time in seconds. float64 keeps the model
// closed under the analytic cost formulas without unit juggling.
type Duration float64

// Common durations.
const (
	Microsecond Duration = 1e-6
	Millisecond Duration = 1e-3
	Second      Duration = 1
	Hour        Duration = 3600
)

// Seconds returns d as a float64 number of seconds.
func (d Duration) Seconds() float64 { return float64(d) }

// String formats the duration with a human-appropriate unit.
func (d Duration) String() string {
	s := float64(d)
	abs := math.Abs(s)
	switch {
	case abs == 0:
		return "0s"
	case abs < 1e-6:
		return fmt.Sprintf("%.1fns", s*1e9)
	case abs < 1e-3:
		return fmt.Sprintf("%.1fµs", s*1e6)
	case abs < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	case abs < 120:
		return fmt.Sprintf("%.2fs", s)
	case abs < 2*3600:
		return fmt.Sprintf("%.1fmin", s/60)
	default:
		return fmt.Sprintf("%.2fh", s/3600)
	}
}

// Min returns the smaller of two durations.
func Min(a, b Duration) Duration {
	if a < b {
		return a
	}
	return b
}

// Category labels a ledger entry. The categories match the cost components
// the paper discusses: kernel compute, shuffle/collect network traffic,
// local-disk staging, shared-storage traffic, and Spark scheduling overhead.
type Category string

// Ledger categories.
const (
	Compute   Category = "compute"
	Network   Category = "network"
	LocalDisk Category = "local-disk"
	SharedFS  Category = "shared-fs"
	Overhead  Category = "overhead"
)

// Ledger accumulates virtual time per category plus traffic counters.
// It is safe for concurrent use; tasks executing in parallel report into
// the job's ledger.
type Ledger struct {
	mu     sync.Mutex
	time   map[Category]Duration
	bytes  map[Category]int64
	tasks  int
	stages int
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{
		time:  make(map[Category]Duration),
		bytes: make(map[Category]int64),
	}
}

// Add charges d of virtual time to category c.
func (l *Ledger) Add(c Category, d Duration) {
	l.mu.Lock()
	l.time[c] += d
	l.mu.Unlock()
}

// AddBytes records b bytes of traffic under category c.
func (l *Ledger) AddBytes(c Category, b int64) {
	l.mu.Lock()
	l.bytes[c] += b
	l.mu.Unlock()
}

// CountTasks adds n to the executed-task counter (a stage counts all of
// its tasks at once).
func (l *Ledger) CountTasks(n int) {
	l.mu.Lock()
	l.tasks += n
	l.mu.Unlock()
}

// CountStage increments the executed-stage counter.
func (l *Ledger) CountStage() {
	l.mu.Lock()
	l.stages++
	l.mu.Unlock()
}

// Time returns the accumulated time for category c.
func (l *Ledger) Time(c Category) Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.time[c]
}

// Bytes returns the accumulated traffic for category c.
func (l *Ledger) Bytes(c Category) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes[c]
}

// Tasks returns the number of tasks recorded.
func (l *Ledger) Tasks() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tasks
}

// Stages returns the number of stages recorded.
func (l *Ledger) Stages() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stages
}

// Total returns the sum of all categories. Note that wall-clock style
// job time is tracked by the scheduler, not by summing the ledger: the
// ledger is resource-seconds, which overlap across cores.
func (l *Ledger) Total() Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	var t Duration
	for _, d := range l.time {
		t += d
	}
	return t
}

// Snapshot returns a copy of the per-category times.
func (l *Ledger) Snapshot() map[Category]Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[Category]Duration, len(l.time))
	for c, d := range l.time {
		out[c] = d
	}
	return out
}

// String renders the ledger as a single line, categories sorted by name.
func (l *Ledger) String() string {
	snap := l.Snapshot()
	cats := make([]string, 0, len(snap))
	for c := range snap {
		cats = append(cats, string(c))
	}
	sort.Strings(cats)
	var b strings.Builder
	for i, c := range cats {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%s", c, snap[Category(c)])
	}
	fmt.Fprintf(&b, " tasks=%d stages=%d", l.Tasks(), l.Stages())
	return b.String()
}
