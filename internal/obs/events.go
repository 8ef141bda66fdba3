package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"

	"dpspark/internal/simtime"
)

// Flight-recorder event types. One constant per instrumentation site so
// dumps can be filtered without parsing Detail strings.
const (
	EvStageSubmit   = "stage-submit"
	EvStageComplete = "stage-complete"
	EvStageResubmit = "stage-resubmit"
	EvTaskRetry     = "task-retry"
	EvFetchFailure  = "fetch-failure"
	EvBlacklist     = "blacklist"
	EvSpeculation   = "speculation"
	EvFault         = "fault-injection"
	EvRestore       = "remote-restore"
	EvCheckpoint    = "checkpoint"
	EvEviction      = "eviction"
	EvReplication   = "replication"
	EvCorrupt       = "corrupt-detected"
	EvJobSubmit     = "job-submit"
	EvJobFinish     = "job-finish"
	EvSuspicion     = "suspicion"
	EvFencedCommit  = "fenced-commit"
)

// Event is one structured flight-recorder record. Integer fields use -1
// for "not applicable" so that legitimate zero values (stage 0, node 0,
// partition 0) survive JSON round trips unambiguously.
type Event struct {
	// Seq is the record's global sequence number (monotonic, never
	// reset); gaps after a wrap tell the reader how much was dropped.
	Seq uint64 `json:"seq"`
	// Clock is the virtual-clock timestamp in model seconds. Producers
	// that have no clock at hand record -1 and the recorder stamps the
	// current clock from its clock source (0 without one).
	Clock float64 `json:"clock_s"`
	// Type is one of the Ev* constants.
	Type string `json:"type"`
	// Stage, Attempt, Part, Node and Shuffle locate the event in the
	// job's stage DAG; -1 where not applicable.
	Stage   int `json:"stage"`
	Attempt int `json:"attempt"`
	Part    int `json:"part"`
	Node    int `json:"node"`
	Shuffle int `json:"shuffle"`
	// Detail carries free-form context (fault kind, block key, error).
	Detail string `json:"detail,omitempty"`
	// Job labels the event with the owning job's ID when the producing
	// context runs inside a multi-tenant service; empty for standalone
	// runs. /events?job=ID filters on it.
	Job string `json:"job,omitempty"`
}

// DefaultFlightCapacity is the ring size used by New.
const DefaultFlightCapacity = 4096

// FlightRecorder is a bounded ring buffer of structured events: always
// on, lock-cheap (one short mutex hold per record, no allocation after
// the ring fills), and dumpable as JSON lines at any point — including
// concurrently with producers.
type FlightRecorder struct {
	mu    sync.Mutex
	buf   []Event
	cap   int
	head  int    // index of the oldest record when full
	n     int    // number of live records (≤ cap)
	seq   uint64 // next sequence number
	clock func() simtime.Duration
	// dropped, when set, mirrors the ring's overwrite count into a
	// metrics counter so scrapers see event loss without reading seqs.
	dropped *Counter
}

// NewFlightRecorder returns an empty recorder holding at most capacity
// events (DefaultFlightCapacity if capacity < 1).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity < 1 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{cap: capacity}
}

// SetClockSource installs the virtual-clock reader used to stamp events
// recorded with Clock < 0. The function must be safe for concurrent use.
func (f *FlightRecorder) SetClockSource(fn func() simtime.Duration) {
	f.mu.Lock()
	f.clock = fn
	f.mu.Unlock()
}

// SetDropCounter installs a metrics counter incremented every time the
// full ring overwrites (drops) its oldest event.
func (f *FlightRecorder) SetDropCounter(c *Counter) {
	f.mu.Lock()
	f.dropped = c
	f.mu.Unlock()
}

// Record appends one event, stamping Seq and (when ev.Clock < 0) the
// current virtual clock. The oldest event is overwritten once the ring
// is full.
func (f *FlightRecorder) Record(ev Event) {
	f.mu.Lock()
	// The clock source may itself take a lock (the simulator's), but the
	// simulator never calls back into the recorder, so the lock order
	// recorder→sim is acyclic.
	if ev.Clock < 0 {
		ev.Clock = 0
		if f.clock != nil {
			ev.Clock = f.clock().Seconds()
		}
	}
	ev.Seq = f.seq
	f.seq++
	if f.buf == nil {
		f.buf = make([]Event, 0, f.cap)
	}
	if f.n < f.cap {
		f.buf = append(f.buf, ev)
		f.n++
	} else {
		f.buf[f.head] = ev
		f.head = (f.head + 1) % f.cap
		if f.dropped != nil {
			f.dropped.Inc()
		}
	}
	f.mu.Unlock()
}

// Len returns the number of events currently held.
func (f *FlightRecorder) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// Dropped returns how many events have been overwritten by the ring.
func (f *FlightRecorder) Dropped() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq - uint64(f.n)
}

// Snapshot returns the held events oldest-first.
func (f *FlightRecorder) Snapshot() []Event {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Event, 0, f.n)
	for i := 0; i < f.n; i++ {
		out = append(out, f.buf[(f.head+i)%f.cap])
	}
	return out
}

// Tail returns the newest n events oldest-first (all of them if n is
// larger than the ring's population, or ≤ 0).
func (f *FlightRecorder) Tail(n int) []Event {
	all := f.Snapshot()
	if n <= 0 || n >= len(all) {
		return all
	}
	return all[len(all)-n:]
}

// Since returns the held events with Seq > seq, oldest-first — the
// tailing cursor: a scraper remembers the last Seq it saw and asks only
// for what is new, instead of re-reading the whole ring. Since(0) after
// at least one event returns everything held except Seq 0 itself; use
// Snapshot for a full read.
func (f *FlightRecorder) Since(seq uint64) []Event {
	all := f.Snapshot()
	// Seqs are monotonically increasing through the ring, so binary
	// search for the first event past the cursor.
	lo, hi := 0, len(all)
	for lo < hi {
		mid := (lo + hi) / 2
		if all[mid].Seq <= seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return all[lo:]
}

// WriteJSONL dumps the newest n events (all for n ≤ 0) as JSON lines,
// oldest first.
func (f *FlightRecorder) WriteJSONL(w io.Writer, n int) error {
	events := f.Tail(n)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}
