// The job journal is the serve layer's log of job lifecycle records
// (admitted → dispatched → retry → terminal, plus recovered; lifecycle.go
// applies them), appended to one CRC32C-framed file and fsynced. Admission
// and terminal records are written ahead: fsynced before the transition
// is visible, so a server killed at ANY point — SIGKILL included —
// restarts knowing exactly which jobs it had accepted and which results
// it had already produced. A dispatched record trails its transition: the
// job's goroutine writes it after dispatch marked the job running, so a
// crash in between replays the job queued (or running its previous
// attempt) and re-runs it. A retry record follows its failed attempt;
// recovered records are written only by compaction, which is how a
// restart's crash strikes persist. Records ride the store package's
// journal frames (store.AppendFrame / store.ReadFrames); replay keeps the
// longest intact prefix and drops the torn tail, the expected
// after-crash state of an append-only file. Compaction rewrites the
// journal as a fresh snapshot via tmp+rename, so it too is crash-atomic.
package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dpspark/internal/obs"
	"dpspark/internal/store"
)

// journalName is the append-only log file inside the journal directory.
const journalName = "journal.log"

// ckptSubdir roots the per-job durable checkpoint directories inside the
// journal directory (ckpt/<jobID>/ckpt-*.ck).
const ckptSubdir = "ckpt"

// journalCompactThreshold is the least record count at which the server
// compacts the journal in place (terminal jobs collapse to two records,
// dispatch/retry chatter is dropped for live ones); see journal.due.
const journalCompactThreshold = 4096

// journalCommitBuckets spans a page-cache write (tens of µs) to a stalled
// disk (seconds).
var journalCommitBuckets = obs.ExpBuckets(16e-6, 2, 18)

// Journal record types, in lifecycle order.
const (
	recAdmitted   = "admitted"   // spec accepted; carries the full JobSpec
	recDispatched = "dispatched" // an attempt started running
	recRetry      = "retry"      // an attempt failed on an engine error; another follows
	recRecovered  = "recovered"  // a restart found the job mid-run and re-admitted it
	recTerminal   = "terminal"   // done / failed / cancelled / quarantined
)

// journalRecord is one framed journal entry. Fields are sparse: each
// record type fills only what it needs.
type journalRecord struct {
	Type string `json:"type"`
	Job  string `json:"job"`
	// Seq is the job's global admission sequence (admitted records).
	Seq uint64 `json:"seq,omitempty"`
	// Spec is the full submission payload (admitted records) — the
	// journal is the source of truth a crashed job is re-run from.
	Spec *JobSpec `json:"spec,omitempty"`
	// Attempt numbers dispatched/retry records (1-based).
	Attempt int `json:"attempt,omitempty"`
	// Crashes counts how many restarts found this job mid-run
	// (recovered records) — the poison-job strike counter.
	Crashes int `json:"crashes,omitempty"`
	// Terminal outcome.
	State    JobState `json:"state,omitempty"`
	Checksum string   `json:"checksum,omitempty"`
	Modelled float64  `json:"modelled,omitempty"`
	Error    string   `json:"error,omitempty"`
	// Flight is the path of the flight-recorder dump attached to a
	// quarantined job.
	Flight string `json:"flight,omitempty"`
}

// journal is the append handle. Appends are framed, written and fsynced
// under one lock so records hit the disk in admission order and a crash
// can only ever lose a suffix.
type journal struct {
	dir string

	mu sync.Mutex
	f  *os.File
	// records is how many frames the log holds: those of the snapshot the
	// last compaction (Recover's included) wrote, plus every append since.
	records int
	// base is what records was right after that compaction. A snapshot
	// keeps two records per retained job, so it alone can exceed any fixed
	// threshold; compacting again only once the log has doubled (due)
	// makes the rewrite O(1) amortised per append instead of O(jobs) per
	// finished job.
	base int
	// threshold is journalCompactThreshold; tests lower it.
	threshold int

	commit      *obs.Histogram // write+fsync seconds of one append
	compactions *obs.Counter

	// failAfter, when ≥ 0, silently drops every append once that many
	// records have been written — the crash-sweep test seam simulating a
	// SIGKILL whose surviving journal is exactly the fsynced prefix.
	failAfter int
}

// openJournal creates dir (and its checkpoint root) and opens the log
// for appending.
func openJournal(dir string, reg *obs.Registry) (*journal, error) {
	if err := os.MkdirAll(filepath.Join(dir, ckptSubdir), 0o755); err != nil {
		return nil, fmt.Errorf("serve: journal dir %s: %w", dir, err)
	}
	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: journal open: %w", err)
	}
	return &journal{
		dir: dir, f: f, failAfter: -1, threshold: journalCompactThreshold,
		commit:      reg.Histogram("dpspark_serve_journal_commit_seconds", nil, journalCommitBuckets),
		compactions: reg.Counter("dpspark_serve_journal_compactions_total", nil),
	}, nil
}

// ckptDir returns the per-job durable checkpoint directory.
func (jl *journal) ckptDir(jobID string) string {
	return filepath.Join(jl.dir, ckptSubdir, jobID)
}

// append frames, writes and fsyncs one record. The fsync is the
// crash-safety contract: once append returns, a restart will replay the
// record.
func (jl *journal) append(rec journalRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("serve: journal encode: %w", err)
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.failAfter >= 0 && jl.records >= jl.failAfter {
		jl.records++ // the "process" thinks it logged; the disk never sees it
		return nil
	}
	start := time.Now()
	if _, err := jl.f.Write(store.AppendFrame(nil, payload)); err != nil {
		return fmt.Errorf("serve: journal write: %w", err)
	}
	if err := jl.f.Sync(); err != nil {
		return fmt.Errorf("serve: journal sync: %w", err)
	}
	jl.commit.Observe(time.Since(start).Seconds())
	jl.records++
	return nil
}

// due reports whether the log has grown enough to be worth compacting:
// past the threshold, and to at least twice what the last compaction
// left.
func (jl *journal) due() bool {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.records >= max(jl.threshold, 2*jl.base)
}

// compact atomically replaces the journal with the given snapshot
// records: they are framed into one buffer, written to a temp file,
// fsynced and renamed over the log, then the append handle is reopened.
// A crash anywhere in here leaves either the old or the new journal
// intact — never a mix.
func (jl *journal) compact(recs []journalRecord) error {
	var buf []byte
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("serve: journal compact encode: %w", err)
		}
		buf = store.AppendFrame(buf, payload)
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.f == nil {
		return fmt.Errorf("serve: journal closed")
	}
	final := filepath.Join(jl.dir, journalName)
	tmp, err := os.CreateTemp(jl.dir, ".tmp-journal-*")
	if err != nil {
		return fmt.Errorf("serve: journal compact temp: %w", err)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: journal compact write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: journal compact sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: journal compact close: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: journal compact rename: %w", err)
	}
	old := jl.f
	f, err := os.OpenFile(final, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("serve: journal reopen: %w", err)
	}
	jl.f = f
	jl.records, jl.base = len(recs), len(recs)
	jl.compactions.Inc()
	old.Close()
	return nil
}

// close releases the append handle.
func (jl *journal) close() {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.f != nil {
		jl.f.Close()
		jl.f = nil
	}
}

// decodeJournal replays journal bytes into records: the longest intact
// prefix of frames whose payloads parse as records. Damage — a torn
// tail, a flipped bit, an unparsable payload — stops the replay at that
// point; everything before it is kept, everything from it on is
// dropped. It never fails and never panics; dropped reports how many
// trailing bytes were discarded.
func decodeJournal(data []byte) (recs []journalRecord, dropped int) {
	payloads, consumed := store.ReadFrames(data)
	kept := consumed
	// Walk back from consumed only if a payload fails to parse.
	good := 0
	for _, p := range payloads {
		var rec journalRecord
		if err := json.Unmarshal(p, &rec); err != nil || rec.Type == "" || rec.Job == "" {
			// A framed-but-unparsable record: treat it and everything
			// after it as the torn tail.
			kept = 0
			for _, q := range payloads[:good] {
				kept += store.FrameHeaderLen + len(q)
			}
			return recs, len(data) - kept
		}
		recs = append(recs, rec)
		good++
	}
	return recs, len(data) - kept
}

// readJournal loads and replays dir's journal file. A missing file is an
// empty journal, not an error.
func readJournal(dir string) (recs []journalRecord, dropped int, err error) {
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("serve: journal read: %w", err)
	}
	recs, dropped = decodeJournal(data)
	return recs, dropped, nil
}
