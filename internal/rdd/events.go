package rdd

import (
	"fmt"
	"io"

	"dpspark/internal/simtime"
)

// StageKind classifies an executed stage.
type StageKind int

// Stage kinds.
const (
	// StageShuffleMap is the map side of a shuffle (wide dependency).
	StageShuffleMap StageKind = iota
	// StageResult computes a job's final RDD (actions, checkpoints).
	StageResult
)

// String names the kind.
func (k StageKind) String() string {
	if k == StageShuffleMap {
		return "shuffle-map"
	}
	return "result"
}

// StageEvent records one executed stage — the engine's equivalent of a
// Spark UI timeline entry. Tests use the event log to assert the drivers'
// stage structure (e.g. the IM driver runs exactly three shuffles per
// grid iteration) and its task counts; core's RunMark.StatsSince reads
// the task skew from it, and -v prints the ledger, not this log.
type StageEvent struct {
	// StageID is the global stage counter value. Resubmitted recovery
	// stages reuse their original stage's ID (see Attempt).
	StageID int
	// Attempt is the stage execution's attempt number: 0 for the planned
	// run, ≥ 1 for resubmissions recomputing lost map outputs.
	Attempt int
	// Kind classifies the stage.
	Kind StageKind
	// Tasks is the number of tasks launched (one per partition).
	Tasks int
	// ShuffleID is the materialized shuffle for map stages, -1 otherwise.
	ShuffleID int
	// Phase is the driver phase that built the stage's lineage (set via
	// Context.SetPhase; "" when unlabelled).
	Phase string
	// Start is the virtual clock when the stage began.
	Start simtime.Duration
	// Duration is the stage's modelled makespan.
	Duration simtime.Duration
	// SpillBytes is the shuffle data staged by the stage.
	SpillBytes int64
	// FetchBytes is the shuffle data read by the stage.
	FetchBytes int64
	// MaxTask and MeanTask summarize the stage's raw task durations;
	// MaxTask/MeanTask is its straggler-skew factor.
	MaxTask, MeanTask simtime.Duration
}

// Events returns a copy of the executed-stage log.
func (c *Context) Events() []StageEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]StageEvent, len(c.events))
	copy(out, c.events)
	return out
}

// appendEvent records a stage execution.
func (c *Context) appendEvent(ev StageEvent) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// CountStages returns how many stages of the given kind have run.
func (c *Context) CountStages(kind StageKind) int {
	n := 0
	for _, ev := range c.Events() {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// WriteTimeline renders the stage timeline, one line per stage, followed
// by a totals footer. The event log is snapshotted once up front, so the
// lines and the footer describe the same set of stages even if jobs are
// still appending events concurrently.
func (c *Context) WriteTimeline(w io.Writer) error {
	events := c.Events()
	var spill, fetch int64
	for _, ev := range events {
		shuffle := ""
		if ev.ShuffleID >= 0 {
			shuffle = fmt.Sprintf(" shuffle=%d", ev.ShuffleID)
		}
		phase := ""
		if ev.Phase != "" {
			phase = " phase=" + ev.Phase
		}
		attempt := ""
		if ev.Attempt > 0 {
			attempt = fmt.Sprintf(" attempt=%d", ev.Attempt)
		}
		if _, err := fmt.Fprintf(w, "stage %4d %-11s tasks=%-5d start=%-10v dur=%-10v spill=%dB fetch=%dB%s%s%s\n",
			ev.StageID, ev.Kind, ev.Tasks, ev.Start, ev.Duration,
			ev.SpillBytes, ev.FetchBytes, shuffle, phase, attempt); err != nil {
			return err
		}
		spill += ev.SpillBytes
		fetch += ev.FetchBytes
	}
	_, err := fmt.Fprintf(w, "total %4d stages spill=%dB fetch=%dB\n",
		len(events), spill, fetch)
	return err
}
