package serve

import (
	"fmt"
	"os"
	"path/filepath"
)

// RecoveryStats summarizes what Recover replayed.
type RecoveryStats struct {
	// Terminal jobs now serving persisted results.
	Terminal int
	// Queued jobs re-admitted in their original priority/FIFO order.
	Requeued int
	// Jobs caught mid-run, re-admitted to resume from their latest
	// durable checkpoint (or re-run cleanly from the journaled spec).
	Resumed int
	// Jobs quarantined because repeated crashes caught them mid-run.
	Quarantined int
	// Bytes of torn journal tail dropped by the replay.
	DroppedBytes int
}

// Recover replays the journal and flips the server ready. A server
// without a journal is ready from New, and Recover does nothing. With
// one:
//
//   - terminal jobs are rebuilt from their journaled outcome and serve
//     their persisted results (same bytes as before the crash);
//   - queued jobs re-enter the queue with their original sequence
//     numbers, so dispatch order (priority desc, FIFO within) is
//     preserved;
//   - jobs caught mid-run (a dispatched record with no terminal) gain a
//     crash strike and are re-admitted to resume from their latest
//     durable checkpoint, when one exists — unless the strikes reach the
//     poison threshold, in which case they are quarantined instead of
//     crash-looping the server;
//   - idempotency keys are rebuilt, so a client retrying a submission
//     from before the crash still gets its original job back.
//
// The journal is then compacted to the recovered snapshot, checkpoint
// directories no live job owns are swept, and dispatch begins. Recover
// must be called exactly once, before serving traffic.
func (s *Server) Recover() (RecoveryStats, error) {
	var stats RecoveryStats
	if s.jl == nil {
		return stats, nil
	}
	recs, dropped, err := readJournal(s.jl.dir)
	if err != nil {
		return stats, err
	}
	stats.DroppedBytes = dropped

	s.mu.Lock()
	for _, rec := range recs {
		s.applyLocked(rec, false)
	}
	for _, j := range s.jobsLocked() {
		switch {
		case j.state.terminal():
			stats.Terminal++
		case j.state == StateQueued:
			stats.Requeued++
		default:
			// The crash caught this job mid-run: one strike, then either
			// quarantine or re-admit for checkpoint resume.
			s.applyLocked(journalRecord{Type: recRecovered, Job: j.ID, Crashes: j.crashes + 1}, false)
			if j.crashes < s.cfg.PoisonThreshold { // panics are not journaled
				s.jobCounter("recovered", j.Spec.Tenant).Inc()
				stats.Resumed++
				continue
			}
			msg := fmt.Sprintf("quarantined after %d crash-restarts caught the job mid-run", j.crashes)
			s.terminateLocked(j, terminalRecord(j.ID, StateQuarantined, 0, 0, msg, s.DumpFlight(j.ID)))
			stats.Quarantined++
		}
	}
	snap := s.snapshotLocked()
	s.mu.Unlock()

	// Compacting to the recovered snapshot is what persists the replay's
	// decisions (crash strikes, recovery-time quarantines): rename is
	// atomic, so a crash mid-compaction replays the OLD journal and
	// re-derives the same decisions.
	if err := s.jl.compact(snap); err != nil {
		return stats, err
	}
	s.sweepCkptDirs()
	if s.cfg.replayHook != nil {
		s.cfg.replayHook()
	}
	s.mu.Lock()
	s.ready = true
	s.dispatchLocked()
	s.mu.Unlock()
	return stats, nil
}

// sweepCkptDirs removes every checkpoint directory whose job is terminal
// or unknown to the replayed journal: what a crash between a terminal
// record's fsync and the directory's retirement leaves behind (and what
// servers that never retired them accumulated). Called by Recover before
// dispatch, so no job is writing under ckpt/.
func (s *Server) sweepCkptDirs() {
	root := filepath.Join(s.jl.dir, ckptSubdir)
	entries, err := os.ReadDir(root)
	if err != nil {
		return // nothing to sweep; openJournal made the root
	}
	s.mu.Lock()
	var stale []string
	for _, e := range entries {
		if j := s.jobs[e.Name()]; j == nil || j.state.terminal() {
			stale = append(stale, e.Name())
		}
	}
	s.mu.Unlock()
	for _, name := range stale {
		_ = os.RemoveAll(filepath.Join(root, name)) // the next Recover tries again
	}
}
