package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpspark/internal/obs"
	"dpspark/internal/store"
)

// copyTree recursively copies src into dst (used to preserve checkpoint
// directories across simulated crashes).
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copyTree %s -> %s: %v", src, dst, err)
	}
}

// TestCrashRestartSweep is the PR's headline invariant: a journaled
// batch is run to completion once, then the server is "kill -9"ed at
// EVERY lifecycle boundary — simulated by truncating the journal at
// every frame boundary (the exact byte states an fsynced append-only
// log can be left in), plus torn mid-frame cuts — and restarted. After
// each restart plus a full round of client retries under the original
// idempotency keys, every admitted job must reach a terminal state with
// a checksum bit-identical to the uninterrupted run, and the job count
// must prove zero duplicate executions. Each crash point is swept both
// with the checkpoint directories intact (resume path) and deleted
// (clean re-run path): bits must be identical either way. The reference
// run writes a checkpoint at every boundary and keeps its directories, so
// that its disk stands for what a crash can leave; the restarted servers
// run as production does.
func TestCrashRestartSweep(t *testing.T) {
	specs := []JobSpec{
		{Tenant: "alice", Bench: "fw", Driver: "im", N: 64, Block: 32, Seed: 1, Priority: 2, IdempotencyKey: "sweep-0"},
		{Tenant: "bob", Bench: "ge", Driver: "cb", N: 64, Block: 32, Seed: 2, IdempotencyKey: "sweep-1"},
		// Carol's job crash-recovers INSIDE the engine; serve-level crash
		// recovery must compose with it.
		{Tenant: "carol", Bench: "fw", Driver: "cb", N: 64, Block: 32, Seed: 3, ChaosSeed: 11, ChaosCrashes: 1, IdempotencyKey: "sweep-2"},
		{Tenant: "dave", Bench: "ge", Driver: "im", N: 96, Block: 32, Seed: 4, Priority: 1, IdempotencyKey: "sweep-3"},
	}

	// Uninterrupted reference run, fully journaled.
	dir := t.TempDir()
	everyBoundary := time.Duration(0)
	s1, err := New(Config{JournalDir: dir, MaxRunning: 2, ckptInterval: &everyBoundary, keepCkptDirs: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s1.Drain)
	if _, err := s1.Recover(); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string, len(specs)) // idempotency key -> checksum
	ids := make([]string, len(specs))
	for i := range specs {
		j, err := s1.Submit(specs[i])
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = j.ID
	}
	for i, id := range ids {
		st := waitTerminal(t, s1, id)
		if st.State != StateDone {
			t.Fatalf("reference job %s ended %s: %s", id, st.State, st.Error)
		}
		want[specs[i].IdempotencyKey] = st.Checksum
	}

	// The journal now holds the batch's full lifecycle. Every frame
	// boundary is a distinct crash point: the byte states a SIGKILL can
	// leave an fsynced append-only log in.
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	offsets := []int{0}
	rest := data
	for len(rest) > 0 {
		if _, r, err := store.NextFrame(rest); err != nil {
			t.Fatalf("reference journal has a bad frame: %v", err)
		} else {
			rest = r
		}
		offsets = append(offsets, len(data)-len(rest))
	}
	if len(offsets) < 10 {
		t.Fatalf("reference journal only has %d frames — the sweep would be vacuous", len(offsets)-1)
	}

	var resumed atomic.Int64 // attempts that loaded a checkpoint, keepCkpt cases
	for i, cut := range offsets {
		cuts := []int{cut}
		if i%3 == 1 && cut+3 < len(data) {
			// A torn write: the crash landed mid-frame. Replay must treat
			// it exactly like the clean boundary before it.
			cuts = append(cuts, cut+3)
		}
		for _, c := range cuts {
			// The resume path (checkpoints survive) at every crash point;
			// the clean re-run path (checkpoint dirs lost too) sampled.
			keeps := []bool{true}
			if i%3 == 0 {
				keeps = append(keeps, false)
			}
			for _, keepCkpt := range keeps {
				runCrashCase(t, dir, data[:c], keepCkpt, specs, want, &resumed)
			}
		}
	}
	if resumed.Load() == 0 {
		t.Fatal("no crash case resumed from a checkpoint — the resume path of the sweep is vacuous")
	}
}

// runCrashCase restarts a server on one simulated post-crash state and
// asserts the headline invariant.
func runCrashCase(t *testing.T, refDir string, journalBytes []byte, keepCkpt bool, specs []JobSpec, want map[string]string, resumed *atomic.Int64) {
	t.Helper()
	dst := t.TempDir()
	if keepCkpt {
		copyTree(t, filepath.Join(refDir, ckptSubdir), filepath.Join(dst, ckptSubdir))
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dst, journalName), journalBytes, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := Config{JournalDir: dst, MaxRunning: 2}
	cfg.ckptLoaded = func(*Job) {
		if !keepCkpt {
			t.Errorf("cut=%d: an attempt resumed from a checkpoint although none was kept", len(journalBytes))
		}
		resumed.Add(1)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)
	if _, err := s.Recover(); err != nil {
		t.Fatalf("recover (cut=%d keepCkpt=%v): %v", len(journalBytes), keepCkpt, err)
	}

	// The client's side of the crash: every submission's outcome is
	// ambiguous, so every spec is retried under its original key. Keys
	// replayed from the journal dedup to the original job; keys the
	// truncation erased admit fresh jobs. Either way the TOTAL must stay
	// len(specs) — zero duplicate executions.
	jobs := make(map[string]string, len(specs))
	for i := range specs {
		j, err := s.Submit(specs[i])
		if err != nil {
			t.Fatalf("retry submit %d (cut=%d keepCkpt=%v): %v", i, len(journalBytes), keepCkpt, err)
		}
		jobs[specs[i].IdempotencyKey] = j.ID
	}
	if got := len(s.Jobs()); got != len(specs) {
		t.Fatalf("cut=%d keepCkpt=%v: %d jobs after retries, want %d (duplicate execution)",
			len(journalBytes), keepCkpt, got, len(specs))
	}
	for key, id := range jobs {
		st := waitTerminal(t, s, id)
		if st.State != StateDone {
			t.Fatalf("cut=%d keepCkpt=%v: job %s (%s) ended %s: %s",
				len(journalBytes), keepCkpt, id, key, st.State, st.Error)
		}
		if st.Checksum != want[key] {
			t.Errorf("cut=%d keepCkpt=%v: job %s (%s) checksum %s != uninterrupted %s — recovery changed the bits",
				len(journalBytes), keepCkpt, id, key, st.Checksum, want[key])
		}
	}
	if got := len(s.Jobs()); got != len(specs) {
		t.Fatalf("cut=%d keepCkpt=%v: job count drifted to %d", len(journalBytes), keepCkpt, got)
	}
	if left := ckptDirs(t, dst); len(left) != 0 {
		t.Errorf("cut=%d keepCkpt=%v: every job is terminal but ckpt/ still holds %v", len(journalBytes), keepCkpt, left)
	}
}

// ckptDirs lists what is under a journal directory's ckpt/.
func ckptDirs(t *testing.T, journalDir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(journalDir, ckptSubdir))
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// TestCkptDirLifecycle: a job's checkpoint directory exists only while
// the job can still need it. Finished jobs leave ckpt/ empty; a restart
// sweeps the directories of terminal jobs (a crash between the terminal
// record's fsync and the removal) and of jobs the journal does not know,
// keeps the directory of a job caught mid-run until that job is
// terminal, and leaves journal.log and an empty ckpt/ behind a drain.
func TestCkptDirLifecycle(t *testing.T) {
	dir := t.TempDir()
	everyBoundary := time.Duration(0) // every job writes files for the retirement to remove
	sA, err := New(Config{JournalDir: dir, MaxRunning: 2, ckptInterval: &everyBoundary})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sA.Drain)
	if _, err := sA.Recover(); err != nil {
		t.Fatal(err)
	}
	specs := []JobSpec{
		{Tenant: "alice", Bench: "fw", Driver: "im", N: 64, Block: 32, Seed: 1},
		{Tenant: "bob", Bench: "ge", Driver: "cb", N: 64, Block: 32, Seed: 2},
		{Tenant: "carol", Bench: "fw", Driver: "cb", N: 96, Block: 32, Seed: 3},
		{Tenant: "dave", Bench: "ge", Driver: "im", N: 64, Block: 16, Seed: 4},
	}
	for i := range specs {
		j, err := sA.Submit(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, sA, j.ID); st.State != StateDone {
			t.Fatalf("job %s ended %s: %s", j.ID, st.State, st.Error)
		}
	}
	if n := sA.obsv.Metrics().CounterTotal("dpspark_durable_checkpoints_total"); n == 0 {
		t.Fatal("no job wrote a checkpoint — the retirement check would be vacuous")
	}
	if left := ckptDirs(t, dir); len(left) != 0 {
		t.Fatalf("%d jobs finished but ckpt/ still holds %v", len(specs), left)
	}

	// The crash: sA is abandoned. It died after job-1's terminal fsync and
	// before removing its directory, with job-5 mid-run over a checkpoint
	// directory of its own; job-99's directory belongs to no journal.
	live := specs[0]
	live.Seed = 5
	for _, rec := range []journalRecord{
		{Type: recAdmitted, Job: "job-5", Seq: 5, Spec: &live},
		{Type: recDispatched, Job: "job-5", Attempt: 1},
	} {
		if err := sA.jl.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	for _, job := range []string{"job-1", "job-5", "job-99"} {
		if err := os.MkdirAll(sA.jl.ckptDir(job), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sA.jl.ckptDir(job), "ckpt-000001.ck"), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var atDispatch []string
	cfgB := Config{JournalDir: dir, MaxRunning: 1}
	cfgB.hook = func(*Job) { atDispatch = ckptDirs(t, dir) }
	sB, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sB.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Terminal != len(specs) || rs.Resumed != 1 {
		t.Fatalf("recovery stats %+v, want %d terminal + 1 resumed", rs, len(specs))
	}
	if st := waitTerminal(t, sB, "job-5"); st.State != StateDone {
		t.Fatalf("job-5 ended %s: %s", st.State, st.Error)
	}
	if fmt.Sprint(atDispatch) != "[job-5]" {
		t.Fatalf("ckpt/ held %v when job-5 was dispatched, want only its own directory", atDispatch)
	}
	if left := ckptDirs(t, dir); len(left) != 0 {
		t.Fatalf("after the restart's jobs finished ckpt/ still holds %v", left)
	}
	sB.Drain()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if fmt.Sprint(names) != fmt.Sprint([]string{ckptSubdir, journalName}) {
		t.Fatalf("journal directory of a drained server holds %v, want %s and %s only", names, ckptSubdir, journalName)
	}
}

// TestCheckpointIntervalKeepsResults: how often a journaled job's
// checkpoints reach the disk — every boundary, the production interval,
// never — moves neither its checksum nor its modelled seconds, and the
// boundary counters say which of the three ran.
func TestCheckpointIntervalKeepsResults(t *testing.T) {
	specs := []JobSpec{
		{Tenant: "alice", Bench: "fw", Driver: "im", N: 128, Block: 32, Seed: 1},
		{Tenant: "bob", Bench: "ge", Driver: "cb", N: 128, Block: 32, Seed: 2},
		{Tenant: "carol", Bench: "fw", Driver: "cb", N: 64, Block: 16, Seed: 3, ChaosSeed: 11, ChaosCrashes: 2},
	}
	type result struct {
		checksum string
		modelled float64
	}
	want := make([]result, len(specs))
	for i := range specs {
		want[i].checksum, want[i].modelled = soloChecksum(t, specs[i])
	}
	every, never := time.Duration(0), time.Hour
	for _, tc := range []struct {
		name     string
		interval *time.Duration
	}{{"every boundary", &every}, {"checkpointInterval", nil}, {"never", &never}} {
		s, err := New(Config{JournalDir: t.TempDir(), MaxRunning: 2, ckptInterval: tc.interval})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Drain)
		if _, err := s.Recover(); err != nil {
			t.Fatal(err)
		}
		boundaries := 0
		for i := range specs {
			j, err := s.Submit(specs[i])
			if err != nil {
				t.Fatal(err)
			}
			st := waitTerminal(t, s, j.ID)
			if got := (result{st.Checksum, st.ModelledSeconds}); st.State != StateDone || got != want[i] {
				t.Errorf("%s: job %d ended %s with %+v, want done with %+v", tc.name, i, st.State, got, want[i])
			}
			boundaries += specs[i].N / specs[i].Block
		}
		reg := s.obsv.Metrics()
		count := func(outcome string) int {
			return int(reg.Counter("dpspark_durable_checkpoints_total", obs.Labels{"outcome": outcome}).Value())
		}
		written, deferred := count("written"), count("deferred")
		if written+deferred != boundaries {
			t.Errorf("%s: %d written + %d deferred, want the jobs' %d boundaries", tc.name, written, deferred, boundaries)
		}
		if tc.interval == &every && deferred != 0 || tc.interval == &never && written != 0 {
			t.Errorf("%s: %d written, %d deferred", tc.name, written, deferred)
		}
		// The durability series a journaled server exports on /metrics:
		// one journal commit per lifecycle record, Recover's compaction.
		var prom bytes.Buffer
		if err := reg.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			fmt.Sprintf(`dpspark_durable_checkpoints_total{outcome="written"} %d`, written),
			fmt.Sprintf(`dpspark_durable_checkpoints_total{outcome="deferred"} %d`, deferred),
			fmt.Sprintf(`dpspark_serve_journal_commit_seconds_count %d`, 3*len(specs)),
			`dpspark_serve_journal_compactions_total 1`,
		} {
			if !strings.Contains(prom.String(), want) {
				t.Errorf("%s: /metrics lacks %q", tc.name, want)
			}
		}
	}
}

// TestCompactAmortised: the journal is compacted when it has doubled
// since the last compaction, not whenever it is longer than a fixed
// threshold — which a snapshot of enough finished jobs always is.
func TestCompactAmortised(t *testing.T) {
	const threshold = 16
	const jobs = 8 * threshold
	dir := t.TempDir()
	finish := func(s *Server, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			j, err := s.Submit(JobSpec{N: 16, Block: 16, Seed: int64(i)})
			if err != nil {
				t.Fatal(err)
			}
			if st := waitTerminal(t, s, j.ID); st.State != StateDone {
				t.Fatalf("job %s ended %s: %s", j.ID, st.State, st.Error)
			}
		}
	}
	compactions := func(s *Server) int64 {
		return s.obsv.Metrics().CounterTotal("dpspark_serve_journal_compactions_total")
	}

	sA, err := New(Config{JournalDir: dir, MaxRunning: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sA.Drain)
	if _, err := sA.Recover(); err != nil {
		t.Fatal(err)
	}
	sA.jl.threshold = threshold
	replay := compactions(sA) // Recover's own
	finish(sA, jobs)
	// A finished job appends three records and keeps two in a snapshot, so
	// between two compactions the retained jobs grow by 5/3 at least: from
	// the first compaction (threshold/3 jobs) to 8 × threshold jobs is a
	// factor 24, ⌈log 24 / log 5/3⌉ = 7 compactions. A fixed threshold
	// compacts at every finish past threshold/2 jobs: ~7.5 × threshold.
	if n := compactions(sA) - replay; n < 1 || n > 7 {
		t.Fatalf("%d compactions while %d jobs finished at threshold %d, want 1..7", n, jobs, threshold)
	}

	// A restart on a journal whose snapshot alone is past the threshold
	// must not compact per finished job either.
	sB, err := New(Config{JournalDir: dir, MaxRunning: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sB.Drain)
	rs, err := sB.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Terminal != jobs {
		t.Fatalf("recovery stats %+v, want %d terminal jobs", rs, jobs)
	}
	sB.jl.threshold = threshold
	replay = compactions(sB)
	finish(sB, 10)
	if n := compactions(sB) - replay; n != 0 {
		t.Fatalf("%d compactions while ten jobs finished on a replayed journal of %d jobs, want 0", n, jobs)
	}
}

// TestIdempotentRetryAfterAmbiguousFailure drives the exact scenario
// idempotency keys exist for: the server crashes after fsyncing the
// admission record but before the client hears back. On restart the job
// is recovered and finishes; the client's retried POST returns the
// ORIGINAL job — same ID, same checksum — instead of double-running.
func TestIdempotentRetryAfterAmbiguousFailure(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Tenant: "alice", N: 64, Block: 32, Seed: 9, IdempotencyKey: "ambiguous-1"}

	sA, err := New(Config{JournalDir: dir, MaxRunning: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sA.Drain)
	if _, err := sA.Recover(); err != nil {
		t.Fatal(err)
	}
	// Simulate the SIGKILL window: only the admission record reaches the
	// disk; everything after (dispatch, checkpoints, terminal) is lost
	// with the process.
	sA.jl.failAfter = 1
	jA, err := sA.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	stA := waitTerminal(t, sA, jA.ID)
	if stA.State != StateDone {
		t.Fatalf("first run ended %s: %s", stA.State, stA.Error)
	}
	// The process dies here; the client never saw a response.

	sB, err := New(Config{JournalDir: dir, MaxRunning: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sB.Drain)
	rs, err := sB.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Requeued != 1 {
		t.Fatalf("recovery stats %+v, want exactly the one admitted job requeued", rs)
	}
	// The client retries the same key + spec: must dedup to the original
	// job ID, and the eventual checksum must match the lost run's.
	jB, err := sB.Submit(spec)
	if err != nil {
		t.Fatalf("retried submit: %v", err)
	}
	if jB.ID != jA.ID {
		t.Fatalf("retried submit got job %s, want original %s", jB.ID, jA.ID)
	}
	if got := len(sB.Jobs()); got != 1 {
		t.Fatalf("%d jobs after retry, want 1 — the retry double-ran", got)
	}
	stB := waitTerminal(t, sB, jB.ID)
	if stB.State != StateDone || stB.Checksum != stA.Checksum {
		t.Fatalf("recovered run: state %s checksum %s, want done/%s", stB.State, stB.Checksum, stA.Checksum)
	}
}

// TestResultBytesStableAcrossRestart asserts the durable-result
// contract over the HTTP surface: GET /jobs/{id}/result for a job whose
// terminal record is journaled returns byte-identical JSON before and
// after a crash+restart, and a duplicate keyed POST returns the same
// job with the same result bytes.
func TestResultBytesStableAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	sA, err := New(Config{JournalDir: dir, MaxRunning: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sA.Drain)
	if _, err := sA.Recover(); err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(sA.Handler())
	defer tsA.Close()

	body := `{"tenant":"alice","n":64,"block":32,"seed":5,"idempotency_key":"stable-1"}`
	var st JobStatus
	postJSON(t, tsA.URL+"/jobs", body, http.StatusAccepted, &st)
	waitTerminal(t, sA, st.ID)
	bytesA := getBody(t, tsA.URL+"/jobs/"+st.ID+"/result", http.StatusOK)

	// Duplicate keyed POST on the SAME server: same job, zero new work.
	var st2 JobStatus
	postJSON(t, tsA.URL+"/jobs", body, http.StatusAccepted, &st2)
	if st2.ID != st.ID {
		t.Fatalf("duplicate POST admitted %s, want original %s", st2.ID, st.ID)
	}
	if n := len(sA.Jobs()); n != 1 {
		t.Fatalf("%d jobs after duplicate POST, want 1", n)
	}

	// Same key, DIFFERENT spec: 409, nothing admitted.
	var errBody map[string]string
	postJSON(t, tsA.URL+"/jobs", `{"tenant":"alice","n":64,"block":32,"seed":6,"idempotency_key":"stable-1"}`,
		http.StatusConflict, &errBody)
	if n := len(sA.Jobs()); n != 1 {
		t.Fatalf("%d jobs after conflicting POST, want 1", n)
	}

	// Crash (terminal record IS journaled) and restart.
	sB, err := New(Config{JournalDir: dir, MaxRunning: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sB.Drain)
	rs, err := sB.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Terminal != 1 {
		t.Fatalf("recovery stats %+v, want 1 terminal job replayed", rs)
	}
	tsB := httptest.NewServer(sB.Handler())
	defer tsB.Close()
	bytesB := getBody(t, tsB.URL+"/jobs/"+st.ID+"/result", http.StatusOK)
	if !bytes.Equal(bytesA, bytesB) {
		t.Fatalf("result bytes changed across restart:\n before: %s\n after:  %s", bytesA, bytesB)
	}
	// And the retried keyed POST still dedups to the terminal job.
	var st3 JobStatus
	postJSON(t, tsB.URL+"/jobs", body, http.StatusAccepted, &st3)
	if st3.ID != st.ID || len(sB.Jobs()) != 1 {
		t.Fatalf("post-restart retry admitted %s (%d jobs), want %s (1 job)", st3.ID, len(sB.Jobs()), st.ID)
	}
}

// TestRecoverRequeueOrder crashes a server with a full queue and
// asserts the restart dispatches the recovered jobs in the original
// order: priority descending, FIFO within a priority — with the
// mid-run job recovered too.
func TestRecoverRequeueOrder(t *testing.T) {
	dir := t.TempDir()
	block := make(chan struct{})
	entered := make(chan struct{})

	cfgA := Config{JournalDir: dir, MaxRunning: 1}
	cfgA.hook = func(j *Job) {
		if j.Spec.Tenant == "blocker" {
			close(entered)
			<-block
		}
	}
	sA, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	// Unblock the abandoned server's parked goroutine at the end and wait
	// for it to finish writing before TempDir cleanup sweeps the dir.
	t.Cleanup(func() { close(block); sA.Drain() })
	if _, err := sA.Recover(); err != nil {
		t.Fatal(err)
	}
	// The blocker occupies the single run slot; the rest queue up.
	submits := []JobSpec{
		{Tenant: "blocker", N: 64, Block: 32, Seed: 1},
		{Tenant: "low", N: 64, Block: 32, Seed: 2, Priority: 1},
		{Tenant: "mid", N: 64, Block: 32, Seed: 3, Priority: 5},
		{Tenant: "high", N: 64, Block: 32, Seed: 4, Priority: 9},
	}
	for i := range submits {
		if _, err := sA.Submit(submits[i]); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	// Wait until the blocker's dispatched record is durable (the hook
	// runs after the journal append), then SIGKILL: sA is abandoned
	// mid-flight, its goroutine parked on the hook channel until cleanup.
	<-entered

	var orderMu sync.Mutex
	var order []string
	cfgB := Config{JournalDir: dir, MaxRunning: 1}
	cfgB.hook = func(j *Job) {
		orderMu.Lock()
		order = append(order, j.Spec.Tenant)
		orderMu.Unlock()
	}
	sB, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sB.Drain)
	rs, err := sB.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Resumed != 1 || rs.Requeued != 3 {
		t.Fatalf("recovery stats %+v, want 1 resumed + 3 requeued", rs)
	}
	for _, st := range sB.Jobs() {
		fin := waitTerminal(t, sB, st.ID)
		if fin.State != StateDone {
			t.Fatalf("recovered job %s ended %s: %s", st.ID, fin.State, fin.Error)
		}
	}
	orderMu.Lock()
	got := fmt.Sprint(order)
	orderMu.Unlock()
	// The blocker was caught mid-run at priority 0 — it re-enters the
	// queue and dispatches LAST, after the queued jobs in priority order.
	if want := "[high mid low blocker]"; got != want {
		t.Fatalf("recovered dispatch order %s, want %s", got, want)
	}
}

// TestQuarantineAfterRepeatedCrashes hand-builds the journal of a job
// that two previous server generations already caught mid-run, then
// restarts: the third strike must quarantine it (terminal state, flight
// dump attached) instead of crash-looping, the quarantine must survive
// a FURTHER restart, and healthy siblings must keep running.
func TestQuarantineAfterRepeatedCrashes(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Tenant: "poison", N: 64, Block: 32, Seed: 7}
	if err := spec.validate(); err != nil {
		t.Fatal(err)
	}
	jl, err := openJournal(dir, obs.New().Metrics())
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []journalRecord{
		{Type: recAdmitted, Job: "job-1", Seq: 1, Spec: &spec},
		{Type: recDispatched, Job: "job-1", Attempt: 1},
		{Type: recRecovered, Job: "job-1", Crashes: 2}, // two prior generations struck out
		{Type: recDispatched, Job: "job-1", Attempt: 2},
	} {
		if err := jl.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	jl.close()

	s, err := New(Config{JournalDir: dir, MaxRunning: 1, PoisonThreshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)
	rs, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Quarantined != 1 || rs.Resumed != 0 {
		t.Fatalf("recovery stats %+v, want exactly 1 quarantined", rs)
	}
	st, ok := s.Status("job-1")
	if !ok || st.State != StateQuarantined {
		t.Fatalf("job-1 state %s, want quarantined", st.State)
	}
	if st.Crashes != 3 {
		t.Fatalf("job-1 crashes %d, want 3", st.Crashes)
	}
	if st.Flight == "" {
		t.Fatal("quarantined job has no flight-recorder dump attached")
	}
	if _, err := os.Stat(st.Flight); err != nil {
		t.Fatalf("flight dump %s: %v", st.Flight, err)
	}
	// A healthy sibling still runs to completion on the same server.
	j, err := s.Submit(JobSpec{Tenant: "healthy", N: 64, Block: 32, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, s, j.ID); fin.State != StateDone {
		t.Fatalf("healthy sibling ended %s: %s", fin.State, fin.Error)
	}

	// The quarantine is terminal across restarts: no more strikes, no
	// more dispatches.
	s2, err := New(Config{JournalDir: dir, MaxRunning: 1, PoisonThreshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.Drain)
	rs2, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs2.Quarantined != 0 || rs2.Terminal != 2 {
		t.Fatalf("second recovery stats %+v, want 2 terminal (quarantined job replayed as terminal)", rs2)
	}
	st2, _ := s2.Status("job-1")
	if st2.State != StateQuarantined {
		t.Fatalf("job-1 after second restart: state %s, want quarantined", st2.State)
	}
}

// TestReadinessGating covers the liveness/readiness split: /readyz is
// 503 while the journal is replaying and while draining, 200 in
// between; /healthz stays 200 throughout; Submit before Recover is a
// not_ready rejection (503 over HTTP).
func TestReadinessGating(t *testing.T) {
	dir := t.TempDir()
	// Seed a journal so Recover has real replay work.
	jl, err := openJournal(dir, obs.New().Metrics())
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Tenant: "alice", N: 64, Block: 32, Seed: 3}
	if err := spec.validate(); err != nil {
		t.Fatal(err)
	}
	if err := jl.append(journalRecord{Type: recAdmitted, Job: "job-1", Seq: 1, Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	jl.close()

	var ts *httptest.Server
	var readyDuring, liveDuring int
	cfg := Config{JournalDir: dir, MaxRunning: 1}
	cfg.replayHook = func() {
		// Mid-replay: not ready, but alive.
		readyDuring = getStatus(t, ts.URL+"/readyz")
		liveDuring = getStatus(t, ts.URL+"/healthz")
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts = httptest.NewServer(s.Handler())
	defer ts.Close()

	// Before Recover: submissions bounce with 503, liveness is up.
	var errBody map[string]string
	postJSON(t, ts.URL+"/jobs", `{"n":64,"block":32}`, http.StatusServiceUnavailable, &errBody)
	if got := getStatus(t, ts.URL+"/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before replay: %d, want 503", got)
	}
	if got := getStatus(t, ts.URL+"/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz before replay: %d, want 200", got)
	}

	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if readyDuring != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during replay: %d, want 503", readyDuring)
	}
	if liveDuring != http.StatusOK {
		t.Fatalf("/healthz during replay: %d, want 200", liveDuring)
	}
	if got := getStatus(t, ts.URL+"/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz after replay: %d, want 200", got)
	}
	waitTerminal(t, s, "job-1")

	s.Drain()
	if got := getStatus(t, ts.URL+"/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while drained: %d, want 503", got)
	}
	if got := getStatus(t, ts.URL+"/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz while drained: %d, want 200", got)
	}
}

// postJSON posts a body and decodes the response, asserting the status.
func postJSON(t *testing.T, url, body string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d (body %s)", url, resp.StatusCode, wantStatus, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("POST %s: bad JSON %s: %v", url, raw, err)
		}
	}
}

// getBody GETs a URL, asserts the status and returns the raw bytes.
func getBody(t *testing.T, url string, wantStatus int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d (body %s)", url, resp.StatusCode, wantStatus, raw)
	}
	return raw
}

// getStatus GETs a URL and returns only the status code.
func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}
