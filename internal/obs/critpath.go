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

// CritBranch is one executor node's serial io→compute chain inside a
// stage: the candidate critical branches the scheduler's makespan
// maximum ran over. Values come verbatim from the scheduler's
// StageReport so re-deriving the winning branch reproduces the same
// float operations the makespan used.
type CritBranch struct {
	Node      int              `json:"node"`
	ShuffleIO simtime.Duration `json:"shuffle_io_s"`
	SharedIO  simtime.Duration `json:"shared_io_s"`
	Compute   simtime.Duration `json:"compute_s"`
}

// CritStage is one executed stage on the virtual clock: Start and End
// are raw clock readings (End bit-identical to the clock after the
// stage), so consecutive entries tile the run without float drift.
type CritStage struct {
	Start   simtime.Duration `json:"start_s"`
	End     simtime.Duration `json:"end_s"`
	StageID int              `json:"stage"`
	Attempt int              `json:"attempt"`
	Kind    string           `json:"kind"`
	Phase   string           `json:"phase,omitempty"`
	Tasks   int              `json:"tasks"`
	// Speculative counts speculative copy tasks the stage ran beyond its
	// partition count.
	Speculative int          `json:"speculative,omitempty"`
	Branches    []CritBranch `json:"branches,omitempty"`
}

// CritSegment is one driver-side clock advance (collect, broadcast,
// scheduling overhead, recovery restore) between stages.
type CritSegment struct {
	Start simtime.Duration `json:"start_s"`
	End   simtime.Duration `json:"end_s"`
	// Phase is the critical-path phase the segment is attributed to.
	Phase string `json:"phase"`
	// Name carries the ledger category or call-site detail.
	Name string `json:"name,omitempty"`
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
// the path is the recorded timeline itself; within each stage the
// scheduler's critical (makespan) node is re-derived from the recorded
// branches with the same float-op grouping the scheduler used, and its
// serial io→compute chain attributed to phases.
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
// re-derives the scheduler's critical branch — first maximum of
// (shuffle+shared)+compute in node order, matching sim.RunStageReport's
// float-op grouping bit for bit — and charges its shuffle I/O, shared
// I/O (the broadcast path), compute, and the residual (scheduling
// overhead plus idle wait) in that order.
func attributeStage(st *CritStage, add func(phase string, d simtime.Duration)) {
	total := st.End - st.Start
	if st.Attempt > 0 {
		add(PhaseRecovery, total)
		return
	}
	var crit *CritBranch
	var makespan simtime.Duration
	for i := range st.Branches {
		b := &st.Branches[i]
		if t := (b.ShuffleIO + b.SharedIO) + b.Compute; t > makespan {
			makespan = t
			crit = b
		}
	}
	if crit == nil {
		add(PhaseOverhead, total)
		return
	}
	add(PhaseShuffle, crit.ShuffleIO)
	add(PhaseBroadcast, crit.SharedIO)
	add(PhaseCompute, crit.Compute)
	add(PhaseOverhead, total-makespan)
}
