package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dpspark/internal/obs"
)

// TestRecoverMatchesLive drives one journaled server through every row of
// the lifecycle table — done; a panic, a retry record, then done; panics
// up to the poison threshold; a deadline; a queued cancel; a running
// cancel; queued jobs cancelled by Drain — and replays its journal, read
// before Drain's compaction rewrites it, on a fresh server. Every job's
// result must be byte-equal and its status equal but for timestamps. The
// live server records exactly one job-finish flight event per job,
// whichever path ended it; the replaying server, whose side effects are
// off, records and counts none.
func TestRecoverMatchesLive(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	runs := map[string]int{} // attempts started, by tenant
	entered, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	cfg := Config{JournalDir: dir, MaxRunning: 1, retryBackoff: time.Millisecond, DrainGrace: time.Minute}
	cfg.hook = func(j *Job) {
		mu.Lock()
		runs[j.Spec.Tenant]++
		n := runs[j.Spec.Tenant]
		mu.Unlock()
		switch j.Spec.Tenant {
		case "flaky":
			if n == 1 {
				panic("first attempt exploded")
			}
		case "bomb":
			panic("kernel exploded")
		case "late":
			time.Sleep(20 * time.Millisecond) // past the 1 ms deadline
		case "blocker":
			close(entered)
			<-release
		}
	}
	live, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { releaseOnce.Do(func() { close(release) }); live.Drain() })
	if _, err := live.Recover(); err != nil {
		t.Fatal(err)
	}
	want := map[string]JobState{} // job ID -> the state its row ends in
	submit := func(tenant string, end JobState) string {
		t.Helper()
		spec := JobSpec{Tenant: tenant, N: 32, Block: 16, Seed: int64(len(want))}
		if tenant == "late" {
			spec.DeadlineMS = 1
		}
		j, err := live.Submit(spec)
		if err != nil {
			t.Fatalf("submit %s: %v", tenant, err)
		}
		want[j.ID] = end
		return j.ID
	}
	for _, row := range []struct {
		tenant string
		end    JobState
	}{{"done", StateDone}, {"flaky", StateDone}, {"bomb", StateQuarantined}, {"late", StateCancelled}} {
		waitTerminal(t, live, submit(row.tenant, row.end))
	}

	// The blocker holds the only run slot while the queue rows play out.
	blocker := submit("blocker", StateCancelled)
	<-entered
	if err := live.Cancel(submit("queued", StateCancelled), nil); err != nil {
		t.Fatal(err)
	}
	drained := []string{submit("drained", StateCancelled), submit("drained", StateCancelled)}
	// Hold Drain past its queue cancellations, so the journal is read
	// before Drain's compaction rewrites it.
	live.wg.Add(1)
	drainDone := make(chan struct{})
	go func() { live.Drain(); close(drainDone) }()
	for _, id := range drained {
		waitTerminal(t, live, id)
	}
	if err := live.Cancel(blocker, nil); err != nil {
		t.Fatal(err)
	}
	releaseOnce.Do(func() { close(release) })
	waitTerminal(t, live, blocker)
	journal, err := os.ReadFile(filepath.Join(dir, journalName))
	live.wg.Done()
	<-drainDone
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := decodeJournal(journal)
	types := map[string]int{}
	for _, rec := range recs {
		types[rec.Type]++
	}
	if types[recRetry] != 3 || types[recTerminal] != len(want) {
		t.Fatalf("journal holds %v, want 3 retry records (flaky 1, bomb 2) and %d terminal", types, len(want))
	}

	rdir := t.TempDir()
	if err := os.WriteFile(filepath.Join(rdir, journalName), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	replayed, err := New(Config{JournalDir: rdir, MaxRunning: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(replayed.Drain)
	if rs, err := replayed.Recover(); err != nil || rs.Terminal != len(want) {
		t.Fatalf("recover: %+v, %v; want %d terminal jobs", rs, err, len(want))
	}

	finishes := map[string]int{}
	for _, ev := range live.obsv.Flight().Snapshot() {
		if ev.Type == obs.EvJobFinish {
			finishes[ev.Job]++
		}
	}
	for _, st := range live.Jobs() {
		if st.State != want[st.ID] {
			t.Errorf("%s (%s) ended %s, want %s: %s", st.ID, st.Tenant, st.State, want[st.ID], st.Error)
		}
		if finishes[st.ID] != 1 {
			t.Errorf("%s (%s, %s) recorded %d job-finish events, want 1", st.ID, st.Tenant, st.State, finishes[st.ID])
		}
		got, _ := replayed.Status(st.ID)
		st.Submitted, st.Started, st.Finished = "", "", ""
		got.Submitted, got.Started, got.Finished = "", "", ""
		if got != st {
			t.Errorf("%s: replayed status\n %+v\nlive\n %+v", st.ID, got, st)
		}
		liveRes, _, _ := live.Result(st.ID)
		gotRes, _, _ := replayed.Result(st.ID)
		a, _ := json.Marshal(liveRes)
		b, _ := json.Marshal(gotRes)
		if string(a) != string(b) {
			t.Errorf("%s: replayed result %s, live %s", st.ID, b, a)
		}
	}
	for _, ev := range replayed.obsv.Flight().Snapshot() {
		if ev.Type == obs.EvJobSubmit || ev.Type == obs.EvJobFinish {
			t.Errorf("replay recorded a %s event for %s", ev.Type, ev.Job)
		}
	}
	for _, outcome := range []string{"admitted", "completed", "cancelled", "quarantined", "recovered"} {
		if n := replayed.obsv.Metrics().CounterTotal("dpspark_jobs_" + outcome + "_total"); n != 0 {
			t.Errorf("replay counted %d %s jobs", n, outcome)
		}
	}
}

// FuzzRecoverInvariants replays arbitrary record sequences — up to four
// jobs, every record type and state, duplicates, records for jobs never
// admitted, the retired checkpointed type and unknown ones — and checks
// the accounting the lifecycle keeps by construction, after replay and
// before dispatch: every job is queued or terminal, the queue holds
// exactly the queued jobs, the per-tenant pending counts sum to it,
// nothing holds a run slot, and the recovery stats account for every
// admitted job.
func FuzzRecoverInvariants(f *testing.F) {
	types := []string{recAdmitted, recDispatched, recRetry, recRecovered, recTerminal, "checkpointed", "zebra"}
	states := []JobState{StateDone, StateFailed, StateCancelled, StateQuarantined, StateQueued, StateRunning, "", "zebra"}
	specs := make([]JobSpec, 4)
	for i := range specs {
		specs[i] = JobSpec{Tenant: []string{"alice", "bob"}[i%2], N: 16, Block: 16, Seed: int64(i), Priority: i % 3}
		if err := specs[i].validate(); err != nil {
			f.Fatal(err)
		}
	}
	// A record is three bytes: job (low 2 bits) and type (the rest);
	// state, with the top bit dropping an admission's spec; and a small
	// count used as sequence number, attempt and crash count alike.
	rec := func(job, typ, state, n int) []byte { return []byte{byte(typ<<2 | job), byte(state), byte(n)} }
	seed := func(recs ...[]byte) []byte {
		var b []byte
		for _, r := range recs {
			b = append(b, r...)
		}
		return b
	}
	f.Add(seed(rec(0, 0, 0, 1), rec(0, 1, 0, 1), rec(0, 4, 0, 0))) // admitted, dispatched, done
	f.Add(seed(rec(1, 0, 0, 2), rec(1, 1, 0, 1), rec(1, 2, 0, 1), rec(1, 1, 0, 2)))
	f.Add(seed(rec(2, 0, 0, 3), rec(2, 1, 0, 1), rec(2, 3, 0, 2), rec(2, 1, 0, 2))) // struck twice: quarantined
	f.Add(seed(rec(3, 0, 0, 4), rec(3, 0, 0, 4), rec(3, 4, 5, 0), rec(0, 4, 0, 0), rec(3, 5, 0, 0), rec(3, 6, 0, 0)))
	f.Add(seed(rec(0, 0, 0x80, 1), rec(1, 0, 0, 1), rec(1, 4, 2, 0), rec(1, 1, 0, 1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []journalRecord
		for ; len(data) >= 3; data = data[3:] {
			job, n := int(data[0]&3), int(data[2]%5)
			r := journalRecord{
				Type: types[int(data[0]>>2)%len(types)], Job: fmt.Sprintf("job-%d", job+1),
				State: states[int(data[1]&0x7f)%len(states)], Error: "e",
				Seq: uint64(n), Attempt: n, Crashes: n,
			}
			if r.Type == recAdmitted && data[1]&0x80 == 0 {
				r.Spec = &specs[job]
			}
			recs = append(recs, r)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalName), frameRecords(t, recs...), 0o644); err != nil {
			t.Fatal(err)
		}
		var s *Server
		cfg := Config{JournalDir: dir, MaxRunning: 1}
		cfg.replayHook = func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			queued, pending, running := 0, 0, 0
			for _, j := range s.jobs {
				if _, terminal := outcomes[j.state]; j.state == StateQueued {
					queued++
				} else if !terminal {
					t.Errorf("%s replayed into state %q", j.ID, j.state)
				}
			}
			for _, n := range s.tenantPending {
				pending += n
			}
			for _, n := range s.tenantRunning {
				running += n
			}
			if len(s.queue) != queued || pending != queued || s.running != 0 || running != 0 {
				t.Errorf("queue %d, pending %d for %d queued jobs; running %d, per tenant %d",
					len(s.queue), pending, queued, s.running, running)
			}
		}
		var err error
		if s, err = New(cfg); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Drain)
		rs, err := s.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if sum, jobs := rs.Terminal+rs.Requeued+rs.Resumed+rs.Quarantined, len(s.Jobs()); sum != jobs {
			t.Errorf("recovery stats %+v account for %d jobs, %d admitted", rs, sum, jobs)
		}
	})
}
