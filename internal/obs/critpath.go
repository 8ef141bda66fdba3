package obs

import (
	"sort"
	"sync"

	"dpspark/internal/simtime"
)

// Critical-path phases. Every second of a run's clock advance is
// attributed to exactly one of these.
const (
	PhaseCompute   = "compute"
	PhaseShuffle   = "shuffle"
	PhaseBroadcast = "broadcast"
	PhaseOverhead  = "overhead"
	PhaseRecovery  = "recovery"
	// PhaseDetection is the failure-detector share: modelled time spent
	// waiting for missed heartbeats before a crashed (or falsely
	// suspected) executor becomes scheduler-visible.
	PhaseDetection = "detection"
)

// CritPhases lists every phase in the report's canonical display order.
var CritPhases = []string{
	PhaseCompute, PhaseShuffle, PhaseBroadcast,
	PhaseRecovery, PhaseDetection, PhaseOverhead,
}

// CritStage is one executed stage on the virtual clock: Start and End
// are raw clock readings (End bit-identical to the clock after the
// stage), so consecutive entries tile the run without float drift.
type CritStage struct {
	Start, End simtime.Duration
	// Attempt is the stage attempt; a resubmission (> 0) is recovery.
	Attempt int
	// Speculative counts speculative copy tasks the stage ran beyond its
	// partition count.
	Speculative int
	// ShuffleIO, SharedIO and Compute are the stage's critical-node
	// split as the scheduler reported it (sim.StageReport).
	ShuffleIO, SharedIO, Compute simtime.Duration
}

// CritSegment is one driver-side clock advance (collect, broadcast,
// scheduling overhead, recovery restore) between stages.
type CritSegment struct {
	Start, End simtime.Duration
	// Phase is the critical-path phase the segment is attributed to.
	Phase string
}

// critEntry is one recorded interval: exactly one of stage/seg is set.
type critEntry struct {
	start, end simtime.Duration
	stage      *CritStage
	seg        *CritSegment
}

// CritPathRecorder collects the per-context interval timeline the
// critical path is computed from. Like span tracing it is opt-in
// (EnableCritPath): recording allocates per stage.
type CritPathRecorder struct {
	mu    sync.Mutex
	on    bool
	byPid map[int][]critEntry
}

func newCritPathRecorder() *CritPathRecorder {
	return &CritPathRecorder{byPid: make(map[int][]critEntry)}
}

// SetEnabled switches interval recording on or off.
func (r *CritPathRecorder) SetEnabled(on bool) {
	r.mu.Lock()
	r.on = on
	r.mu.Unlock()
}

// Enabled reports whether intervals are being recorded.
func (r *CritPathRecorder) Enabled() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.on
}

// RecordStage records one executed stage for pid. No-op while disabled.
func (r *CritPathRecorder) RecordStage(pid int, st CritStage) {
	r.mu.Lock()
	if r.on {
		r.byPid[pid] = append(r.byPid[pid], critEntry{start: st.Start, end: st.End, stage: &st})
	}
	r.mu.Unlock()
}

// RecordSegment records one driver-side advance for pid. No-op while
// disabled.
func (r *CritPathRecorder) RecordSegment(pid int, sg CritSegment) {
	r.mu.Lock()
	if r.on {
		r.byPid[pid] = append(r.byPid[pid], critEntry{start: sg.Start, end: sg.End, seg: &sg})
	}
	r.mu.Unlock()
}

// Pids returns the sorted pids with recorded intervals.
func (r *CritPathRecorder) Pids() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int, 0, len(r.byPid))
	for pid := range r.byPid {
		out = append(out, pid)
	}
	sort.Ints(out)
	return out
}

// CritPathReport is the critical path of one run window: its length,
// the attribution of that length to phases, and how much of the window
// no recorded interval covered (Unattributed ≈ 0 on a healthy run —
// the invariant tests assert it).
type CritPathReport struct {
	// Len is the summed attributed length (= Σ Phases).
	Len simtime.Duration `json:"len_s"`
	// Phases maps each phase to its share of the path.
	Phases map[string]simtime.Duration `json:"phases"`
	// Unattributed is window time no interval covered (clock drift or a
	// missed instrumentation site would surface here).
	Unattributed simtime.Duration `json:"unattributed_s"`
	// Stages and RecoveryStages count stage entries on the path
	// (RecoveryStages = resubmitted attempts, attributed to recovery).
	Stages         int `json:"stages"`
	RecoveryStages int `json:"recovery_stages"`
	// Segments counts driver-side advances on the path.
	Segments int `json:"segments"`
	// Speculative sums speculative copy tasks across path stages.
	Speculative int `json:"speculative_tasks"`
}

// Phase returns one phase's share (0 for unknown phases).
func (r CritPathReport) Phase(p string) simtime.Duration {
	return r.Phases[p]
}

// Compute derives the critical path for pid over the clock window
// [from, to]. The run's stage DAG executes serially on the virtual
// clock (parallelism lives inside stages, across executor cores), so
// the path is the recorded timeline itself; within each stage it is the
// serial io→compute chain of the scheduler's critical (makespan) node,
// attributed to phases.
func (r *CritPathRecorder) Compute(pid int, from, to simtime.Duration) CritPathReport {
	r.mu.Lock()
	entries := append([]critEntry(nil), r.byPid[pid]...)
	r.mu.Unlock()

	rep := CritPathReport{Phases: make(map[string]simtime.Duration, len(CritPhases))}
	add := func(phase string, d simtime.Duration) {
		if d != 0 {
			rep.Phases[phase] += d
			rep.Len += d
		}
	}

	window := make([]critEntry, 0, len(entries))
	for _, e := range entries {
		if e.start >= from && e.start < to {
			window = append(window, e)
		}
	}
	sort.SliceStable(window, func(i, j int) bool { return window[i].start < window[j].start })

	cur := from
	for _, e := range window {
		if e.start > cur {
			rep.Unattributed += e.start - cur
			cur = e.start
		}
		if e.end <= cur {
			continue // fully covered by an earlier interval
		}
		switch {
		case e.stage != nil:
			rep.Stages++
			rep.Speculative += e.stage.Speculative
			attributeStage(e.stage, add)
			if e.stage.Attempt > 0 {
				rep.RecoveryStages++
			}
		case e.seg != nil:
			rep.Segments++
			add(e.seg.Phase, e.end-e.start)
		}
		cur = e.end
	}
	if to > cur {
		rep.Unattributed += to - cur
	}
	return rep
}

// ComputeAll derives the critical path over pid's whole recorded
// timeline (first interval start to last interval end).
func (r *CritPathRecorder) ComputeAll(pid int) CritPathReport {
	r.mu.Lock()
	entries := r.byPid[pid]
	var from, to simtime.Duration
	for i, e := range entries {
		if i == 0 || e.start < from {
			from = e.start
		}
		if e.end > to {
			to = e.end
		}
	}
	r.mu.Unlock()
	return r.Compute(pid, from, to)
}

// attributeStage splits one stage's clock advance across phases. A
// resubmitted attempt is recovery work wholesale; a first attempt
// charges the critical node's shuffle I/O, shared I/O (the broadcast
// path) and compute, then the residual (scheduling overhead plus idle
// wait) — total minus the node's time, summed in the scheduler's order.
func attributeStage(st *CritStage, add func(phase string, d simtime.Duration)) {
	total := st.End - st.Start
	if st.Attempt > 0 {
		add(PhaseRecovery, total)
		return
	}
	add(PhaseShuffle, st.ShuffleIO)
	add(PhaseBroadcast, st.SharedIO)
	add(PhaseCompute, st.Compute)
	add(PhaseOverhead, total-((st.ShuffleIO+st.SharedIO)+st.Compute))
}
