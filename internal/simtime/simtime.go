// Package simtime provides the virtual-time primitives used by the cluster
// simulator: a Duration type measured in model seconds, and a Ledger that
// attributes time to cost categories (compute, network, disk, scheduler
// overhead) so experiments can report breakdowns.
//
// Virtual time is deliberately decoupled from wall-clock time: the same
// engine code path accumulates simtime when replaying paper-scale
// experiments in model mode and when executing small problems for real.
package simtime

import (
	"fmt"
	"math"
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

// Ledger accumulates virtual time per category. It is safe for
// concurrent use; tasks executing in parallel report into the job's
// ledger.
type Ledger struct {
	mu   sync.Mutex
	time map[Category]Duration
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{time: make(map[Category]Duration)}
}

// Add charges d of virtual time to category c.
func (l *Ledger) Add(c Category, d Duration) {
	l.mu.Lock()
	l.time[c] += d
	l.mu.Unlock()
}

// Snapshot returns a copy of the per-category times. They are
// resource-seconds, which overlap across cores: the job's elapsed time is
// the scheduler's clock, not their sum.
func (l *Ledger) Snapshot() map[Category]Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[Category]Duration, len(l.time))
	for c, d := range l.time {
		out[c] = d
	}
	return out
}
