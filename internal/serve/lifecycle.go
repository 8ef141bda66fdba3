package serve

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"dpspark/internal/obs"
)

// A job moves through its lifecycle only by journal records, and every
// record goes through applyLocked: the live path applies a record where
// it journals it, Recover applies each record it replays. A replayed job
// is therefore the job the crashed server held, field for field. What
// only a live server does on a transition (counters, flight events,
// dispatch, compaction) rides on applyLocked's live flag, which replay
// clears. DESIGN.md §7 has the table with its side-effect column and the
// rule for when each record reaches the disk.

const (
	// stateNew is the state of a job no admission record has created.
	stateNew JobState = ""
	// stateOutcome stands, in lifecycle, for the terminal state a
	// terminal record names.
	stateOutcome JobState = "outcome"
)

// lifecycle is the job state machine: state × record type → next state.
// A pair missing from it is a record that state ignores — a second
// admission, anything for a terminal job, a retired or unknown type — so
// replay takes a damaged or duplicated journal without special cases.
var lifecycle = map[JobState]map[string]JobState{
	stateNew:     {recAdmitted: StateQueued},
	StateQueued:  {recDispatched: StateRunning, recRecovered: StateQueued, recTerminal: stateOutcome},
	StateRunning: {recDispatched: StateRunning, recRetry: StateRunning, recRecovered: StateQueued, recTerminal: stateOutcome},
}

// outcomes are the states a terminal record may name, each with the
// per-tenant counter (dpspark_jobs_<outcome>_total) it bumps.
var outcomes = map[JobState]string{
	StateDone: "completed", StateFailed: "failed", StateCancelled: "cancelled", StateQuarantined: "quarantined",
}

// applyLocked moves rec's job one step along lifecycle and writes the
// fields rec carries. It is the only writer of a job's state, attempts,
// crashes, outcome and finish time. live adds the transition's live-only
// side effects; replay clears it. It returns the job, or nil when the
// table has no row for the record. Caller holds mu.
func (s *Server) applyLocked(rec journalRecord, live bool) *Job {
	j := s.jobs[rec.Job]
	from := stateNew
	if j != nil {
		from = j.state
	}
	next, ok := lifecycle[from][rec.Type]
	if next == stateOutcome {
		next = rec.State
		_, ok = outcomes[next]
	}
	if !ok || rec.Type == recAdmitted && rec.Spec == nil {
		return nil
	}
	switch rec.Type {
	case recAdmitted:
		j = &Job{ID: rec.Job, Spec: *rec.Spec, seq: rec.Seq, submitted: time.Now()}
		s.jobs[j.ID] = j
		s.seq = max(s.seq, j.seq)
		if k := j.Spec.IdempotencyKey; k != "" {
			s.idem[k] = j
		}
	case recDispatched, recRetry:
		j.attempts = rec.Attempt
	case recRecovered:
		j.crashes = rec.Crashes
	case recTerminal:
		j.checksum, _ = strconv.ParseUint(rec.Checksum, 16, 64)
		j.modelled, j.errMsg, j.flightDump = rec.Modelled, rec.Error, rec.Flight
		j.finished = time.Now()
	}
	s.moveLocked(j, next)
	if !live {
		return j
	}
	switch rec.Type {
	case recAdmitted:
		s.jobCounter("admitted", j.Spec.Tenant).Inc()
		s.recordJobEvent(obs.EvJobSubmit, j, fmt.Sprintf("%s/%s n=%d prio=%d", j.Spec.Bench, j.Spec.Driver, j.Spec.N, j.Spec.Priority))
		s.dispatchLocked()
	case recTerminal:
		s.jobCounter(outcomes[next], j.Spec.Tenant).Inc()
		s.recordJobEvent(obs.EvJobFinish, j, strings.TrimSpace(fmt.Sprintf("state=%s checksum=%s %s", next, rec.Checksum, rec.Error)))
		s.maybeCompactLocked()
		s.dispatchLocked()
	}
	return j
}

// recordJobEvent records one of a job's lifecycle flight events.
func (s *Server) recordJobEvent(typ string, j *Job, detail string) {
	s.obsv.Flight().Record(obs.Event{
		Type: typ, Job: j.ID, Stage: -1, Part: -1, Node: -1, Shuffle: -1,
		Detail: fmt.Sprintf("%s tenant=%s %s", j.ID, j.Spec.Tenant, detail),
	})
}

// moveLocked sets j's state. It is the one place queue membership, the
// run-slot and per-tenant counts and their gauges change: when a job
// enters or leaves queued or running. Caller holds mu.
func (s *Server) moveLocked(j *Job, to JobState) {
	if to == j.state {
		return
	}
	t := j.Spec.Tenant
	switch j.state {
	case StateQueued:
		s.queue = slices.DeleteFunc(s.queue, func(q *Job) bool { return q == j })
		s.tenantPending[t]--
	case StateRunning:
		s.running--
		s.tenantRunning[t]--
	}
	switch j.state = to; to {
	case StateQueued:
		s.queue = append(s.queue, j)
		s.tenantPending[t]++
	case StateRunning:
		s.running++
		s.tenantRunning[t]++
	}
	s.queuedGauge.Set(float64(len(s.queue)))
	s.runningGauge.Set(float64(s.running))
}

// terminateLocked ends j with the terminal record rec; every terminal
// transition goes through here. The record is fsynced under mu, before
// the outcome is visible. The job's checkpoint directory is retired only
// once that fsync has returned, so a crash in between replays a terminal
// job whose directory Recover sweeps. Caller holds mu.
func (s *Server) terminateLocked(j *Job, rec journalRecord) {
	if s.jl != nil {
		if err := s.jl.append(rec); err == nil && !s.cfg.keepCkptDirs {
			_ = os.RemoveAll(s.jl.ckptDir(j.ID)) // Recover sweeps a directory this leaves behind
		}
	}
	s.applyLocked(rec, true)
}

// cancelLocked is the cancel event. A queued job ends cancelled at once.
// A running one is cancelled cooperatively: its tasks finish their
// current attempt, and the attempt's end is its terminal record. Caller
// holds mu.
func (s *Server) cancelLocked(j *Job, cause error) {
	if j.state == StateQueued {
		s.terminateLocked(j, terminalRecord(j.ID, StateCancelled, 0, 0, cause.Error(), ""))
		return
	}
	j.cancelCause = cause
	if j.ctx != nil {
		j.ctx.Cancel(cause)
	}
}

// terminalRecord renders a terminal journal record.
func terminalRecord(id string, state JobState, sum uint64, modelled float64, errMsg, flight string) journalRecord {
	return journalRecord{
		Type: recTerminal, Job: id, State: state,
		Checksum: fmt.Sprintf("%016x", sum), Modelled: modelled,
		Error: errMsg, Flight: flight,
	}
}
