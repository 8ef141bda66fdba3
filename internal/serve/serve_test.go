package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// waitTerminal polls a job until it leaves the queued/running states.
func waitTerminal(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, ok := s.Status(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if st.State != StateQueued && st.State != StateRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// soloChecksum runs one spec alone on a fresh single-job server and
// returns its checksum and modelled seconds — the reference values the
// isolation invariant compares against.
func soloChecksum(t *testing.T, spec JobSpec) (string, float64) {
	t.Helper()
	s, err := New(Config{MaxRunning: 1})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, s, j.ID)
	if st.State != StateDone {
		t.Fatalf("solo run of %+v ended %s: %s", spec, st.State, st.Error)
	}
	return st.Checksum, st.ModelledSeconds
}

// TestServeIsolationInvariant is the PR's headline: N concurrent jobs
// with mixed rules and drivers — one under an injected-fault chaos plan
// — each produce checksums AND modelled clocks bit-identical to the
// same job run solo, while an over-quota submission is rejected with
// zero effect on the in-flight jobs.
func TestServeIsolationInvariant(t *testing.T) {
	specs := []JobSpec{
		{Tenant: "alice", Bench: "fw", Driver: "im", N: 96, Block: 32, Seed: 1, Priority: 2},
		{Tenant: "bob", Bench: "ge", Driver: "cb", N: 64, Block: 32, Seed: 2, Priority: 1},
		// Carol's job runs under injected executor crashes; its recovery
		// must stay entirely inside its own context.
		{Tenant: "carol", Bench: "fw", Driver: "cb", N: 64, Block: 32, Seed: 3, ChaosSeed: 11, ChaosCrashes: 2},
	}
	wantSum := make([]string, len(specs))
	wantClk := make([]float64, len(specs))
	for i, sp := range specs {
		wantSum[i], wantClk[i] = soloChecksum(t, sp)
	}

	// Gate the running jobs so the overload phase below happens while
	// all three are genuinely in flight.
	release := make(chan struct{})
	cfg := Config{
		MaxRunning:      len(specs),
		MaxQueue:        2,
		TenantPending:   1,
		realParallelism: 3, // force real slot contention between jobs
	}
	cfg.hook = func(*Job) { <-release }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(specs))
	for i, sp := range specs {
		j, err := s.Submit(sp)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = j.ID
	}

	// Overload the queue mid-flight: dave fills his pending quota, then
	// gets rejected — with zero effect on the running jobs.
	if _, err := s.Submit(JobSpec{Tenant: "dave", N: 64, Block: 32}); err != nil {
		t.Fatalf("dave's first job should queue: %v", err)
	}
	_, err = s.Submit(JobSpec{Tenant: "dave", N: 64, Block: 32})
	var rej *errRejected
	if !asRejected(err, &rej) || rej.reason != "tenant_quota" {
		t.Fatalf("over-quota submission: got %v, want tenant_quota rejection", err)
	}

	close(release)
	for i, id := range ids {
		st := waitTerminal(t, s, id)
		if st.State != StateDone {
			t.Fatalf("job %s (%s) ended %s: %s", id, specs[i].Tenant, st.State, st.Error)
		}
		if st.Checksum != wantSum[i] {
			t.Errorf("tenant %s: shared checksum %s != solo %s — isolation broken",
				specs[i].Tenant, st.Checksum, wantSum[i])
		}
		if st.ModelledSeconds != wantClk[i] {
			t.Errorf("tenant %s: shared modelled clock %v != solo %v — virtual time perturbed",
				specs[i].Tenant, st.ModelledSeconds, wantClk[i])
		}
	}
}

func asRejected(err error, target **errRejected) bool {
	if err == nil {
		return false
	}
	r, ok := err.(*errRejected)
	if ok {
		*target = r
	}
	return ok
}

func TestAdmissionControlHTTP(t *testing.T) {
	// Gate the run slot so the queue fills deterministically: the
	// running job blocks in the hook until released.
	release := make(chan struct{})
	cfg := Config{MaxRunning: 1, MaxQueue: 1}
	cfg.hook = func(*Job) { <-release }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submit := func(spec JobSpec) *http.Response {
		body, _ := json.Marshal(spec)
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	decodeStatus := func(resp *http.Response) JobStatus {
		defer resp.Body.Close()
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	// First job runs, second queues, third hits the bounded queue.
	r1 := submit(JobSpec{N: 96, Block: 32})
	if r1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", r1.StatusCode)
	}
	j1 := decodeStatus(r1)
	r2 := submit(JobSpec{N: 64, Block: 32})
	if r2.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", r2.StatusCode)
	}
	j2 := decodeStatus(r2)
	r3 := submit(JobSpec{N: 64, Block: 32})
	if r3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: %d, want 429", r3.StatusCode)
	}
	if r3.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	r3.Body.Close()

	// Bad specs are 400, not 429.
	rBad := submit(JobSpec{N: 16, Block: 32})
	if rBad.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid shape: %d, want 400", rBad.StatusCode)
	}
	rBad.Body.Close()

	// Cancel the queued job over HTTP.
	resp, err := http.Post(ts.URL+"/jobs/"+j2.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel queued job: %d", resp.StatusCode)
	}
	resp.Body.Close()
	if st := waitTerminal(t, s, j2.ID); st.State != StateCancelled {
		t.Fatalf("cancelled queued job ended %s", st.State)
	}

	close(release) // let the gated job run
	if st := waitTerminal(t, s, j1.ID); st.State != StateDone {
		t.Fatalf("running job ended %s: %s", st.State, st.Error)
	}

	// The job list and per-tenant metrics surfaces.
	listResp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobStatus
	if err := json.NewDecoder(listResp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	listResp.Body.Close()
	// Rejected submissions never become jobs; only the admitted two list.
	if len(list) != 2 {
		t.Fatalf("job list has %d entries, want 2", len(list))
	}
	mResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mResp.Body)
	mResp.Body.Close()
	metrics := buf.String()
	for _, want := range []string{
		`dpspark_jobs_admitted_total{tenant="default"} 2`,
		`dpspark_jobs_rejected_total{reason="queue_full",tenant="default"} 1`,
		`dpspark_jobs_completed_total{tenant="default"} 1`,
		`dpspark_jobs_cancelled_total{tenant="default"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestDeadlineCancelsJob(t *testing.T) {
	// The deadline counts from admission. Holding the job in the hook
	// until the budget is provably spent makes the outcome independent
	// of how fast the engine would have finished the run: the job must
	// be cancelled with the deadline as the cause, never run to done.
	cfg := Config{MaxRunning: 1}
	cfg.hook = func(*Job) { time.Sleep(20 * time.Millisecond) }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(JobSpec{N: 256, Block: 32, DeadlineMS: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, s, j.ID)
	if st.State != StateCancelled {
		t.Fatalf("deadline job ended %s (err %q), want cancelled", st.State, st.Error)
	}
	if !strings.Contains(st.Error, "deadline") {
		t.Fatalf("cancellation cause %q does not name the deadline", st.Error)
	}
}

func TestPanicContainment(t *testing.T) {
	// A persistently panicking job is retried up to the poison threshold
	// and then quarantined — never crashing the server or its siblings.
	cfg := Config{MaxRunning: 2, retryBackoff: time.Millisecond}
	attempts := 0
	var amu sync.Mutex
	cfg.hook = func(j *Job) {
		if j.Spec.Tenant == "bomb" {
			amu.Lock()
			attempts++
			amu.Unlock()
			panic("kernel exploded")
		}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bomb, err := s.Submit(JobSpec{Tenant: "bomb", N: 64, Block: 32})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := s.Submit(JobSpec{Tenant: "steady", N: 64, Block: 32})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s, bomb.ID); st.State != StateQuarantined || !strings.Contains(st.Error, "panic") {
		t.Fatalf("panicking job: state=%s err=%q, want quarantined with panic", st.State, st.Error)
	}
	amu.Lock()
	if attempts != 3 { // the default PoisonThreshold
		t.Fatalf("panicking job ran %d attempts, want 3 (the poison threshold)", attempts)
	}
	amu.Unlock()
	// The sibling finishes and the server keeps admitting.
	if st := waitTerminal(t, s, ok.ID); st.State != StateDone {
		t.Fatalf("sibling job ended %s: %s", st.State, st.Error)
	}
	after, err := s.Submit(JobSpec{Tenant: "steady", N: 64, Block: 32})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s, after.ID); st.State != StateDone {
		t.Fatalf("post-panic job ended %s: %s", st.State, st.Error)
	}
}

func TestPriorityScheduling(t *testing.T) {
	var mu sync.Mutex
	var started []string
	gate := make(chan struct{})
	cfg := Config{MaxRunning: 1}
	cfg.hook = func(j *Job) {
		mu.Lock()
		started = append(started, j.Spec.Tenant)
		mu.Unlock()
		if j.Spec.Tenant == "blocker" {
			<-gate // hold the slot until low and high are both queued
		}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The blocker occupies the single run slot while low and high queue;
	// dispatch must pick high first despite low's earlier arrival.
	blocker, _ := s.Submit(JobSpec{Tenant: "blocker", N: 96, Block: 32})
	low, _ := s.Submit(JobSpec{Tenant: "low", N: 64, Block: 32, Priority: 1})
	high, _ := s.Submit(JobSpec{Tenant: "high", N: 64, Block: 32, Priority: 9})
	close(gate)
	for _, j := range []*Job{blocker, low, high} {
		waitTerminal(t, s, j.ID)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"blocker", "high", "low"}
	if fmt.Sprint(started) != fmt.Sprint(want) {
		t.Fatalf("start order %v, want %v", started, want)
	}
}

func TestDrain(t *testing.T) {
	cfg := Config{MaxRunning: 1, DrainGrace: time.Millisecond}
	// The hook delays the running job past the grace window so Drain
	// exercises its cancellation path, not just the happy wait.
	cfg.hook = func(*Job) { time.Sleep(30 * time.Millisecond) }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	running, err := s.Submit(JobSpec{N: 256, Block: 32})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(JobSpec{N: 64, Block: 32})
	if err != nil {
		t.Fatal(err)
	}

	s.Drain()

	if st, _ := s.Status(queued.ID); st.State != StateCancelled {
		t.Fatalf("queued job after drain: %s, want cancelled", st.State)
	}
	st, _ := s.Status(running.ID)
	if st.State != StateCancelled && st.State != StateDone {
		t.Fatalf("running job after drain: %s (%s), want cancelled or done", st.State, st.Error)
	}
	if !s.Draining() {
		t.Fatal("server not draining after Drain")
	}
	if _, err := s.Submit(JobSpec{N: 64, Block: 32}); err == nil {
		t.Fatal("submission accepted while draining")
	}
	// Drain is idempotent.
	s.Drain()
}

// TestServeDrainWithFalseSuspicionInFlight: a drain arriving while a
// job is mid false-suspicion recovery (detector on, seeded GC pauses)
// must let that recovery finish inside the grace window — the job lands
// done with its solo checksum, zombie commits fenced, no deadlock — and
// every flight event the job emitted carries its ID for /events?job=.
func TestServeDrainWithFalseSuspicionInFlight(t *testing.T) {
	spec := JobSpec{Tenant: "erin", Bench: "fw", Driver: "im", N: 64, Block: 32, Seed: 5, ChaosSeed: 17, ChaosGCPauses: 3}
	wantSum, wantClk := soloChecksum(t, spec)

	started := make(chan struct{})
	cfg := Config{MaxRunning: 1, DrainGrace: 60 * time.Second}
	cfg.hook = func(*Job) { close(started) }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	s.Drain() // races the in-flight recovery; grace must cover it

	st, ok := s.Status(j.ID)
	if !ok || st.State != StateDone {
		t.Fatalf("drained job ended %s (%s), want done", st.State, st.Error)
	}
	if st.Checksum != wantSum {
		t.Fatalf("drained checksum %s != solo %s", st.Checksum, wantSum)
	}
	if st.ModelledSeconds != wantClk {
		t.Fatalf("drained modelled clock %v != solo %v", st.ModelledSeconds, wantClk)
	}
	// The detector really ran in-service: the pauses were suspected and
	// at least one outlived the lease count into a false declaration.
	reg := s.obsv.Metrics()
	if reg.CounterTotal("dpspark_detector_suspicions_total") == 0 {
		t.Fatal("no suspicions recorded — the GC-pause plan never met the detector")
	}
	if reg.CounterTotal("dpspark_detector_false_suspicions_total") == 0 {
		t.Fatal("no false declaration — recovery was never in flight to race the drain")
	}
	// Every engine event the job emitted is tagged for /events?job=.
	tagged := 0
	for _, ev := range s.obsv.Flight().Snapshot() {
		if ev.Job == j.ID {
			tagged++
		}
	}
	if tagged == 0 {
		t.Fatal("no flight events carry the job's ID")
	}
	if _, err := s.Submit(spec); err == nil {
		t.Fatal("submission accepted while draining")
	}
}

// TestServeConfNormalization is the serve half of the PR's table-driven
// validation coverage (rdd.Conf's lives in internal/rdd).
func TestServeConfNormalization(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"negative MaxQueue", func(c *Config) { c.MaxQueue = -1 }, "MaxQueue"},
		{"negative MaxRunning", func(c *Config) { c.MaxRunning = -1 }, "MaxRunning"},
		{"negative TenantRunning", func(c *Config) { c.TenantRunning = -1 }, "TenantRunning"},
		{"negative TenantPending", func(c *Config) { c.TenantPending = -1 }, "TenantPending"},
		{"negative DrainGrace", func(c *Config) { c.DrainGrace = -time.Second }, "DrainGrace"},
		{"negative KernelThreads", func(c *Config) { c.KernelThreads = -1 }, "KernelThreads"},
		{"negative MaxAttempts", func(c *Config) { c.MaxAttempts = -1 }, "MaxAttempts"},
		{"oversize MaxAttempts", func(c *Config) { c.MaxAttempts = 17 }, "MaxAttempts"},
		{"negative PoisonThreshold", func(c *Config) { c.PoisonThreshold = -1 }, "PoisonThreshold"},
	} {
		cfg := Config{}
		tc.mut(&cfg)
		err := cfg.normalize()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error naming %s", tc.name, err, tc.want)
		}
	}

	cfg := Config{}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	if cfg.MaxQueue != 16 || cfg.MaxRunning != 2 || cfg.TenantRunning != 2 || cfg.TenantPending != 16 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	if cfg.DrainGrace != 30*time.Second || cfg.Observer == nil {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	if cfg.MaxAttempts != 1 || cfg.retryBackoff != 50*time.Millisecond || cfg.PoisonThreshold != 3 {
		t.Fatalf("retry/poison defaults wrong: %+v", cfg)
	}

	// Per-tenant caps clamp to the global bounds.
	cfg = Config{MaxRunning: 2, MaxQueue: 4, TenantRunning: 10, TenantPending: 10}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	if cfg.TenantRunning != 2 || cfg.TenantPending != 4 {
		t.Fatalf("tenant caps not clamped: %+v", cfg)
	}
}

func TestJobSpecValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec JobSpec
		want string
	}{
		{"bad bench", JobSpec{Bench: "lcs"}, "bench"},
		{"bad driver", JobSpec{Driver: "mpi"}, "driver"},
		{"block > n", JobSpec{N: 16, Block: 32}, "shape"},
		{"oversize", JobSpec{N: 8192, Block: 64}, "cap"},
		{"negative deadline", JobSpec{DeadlineMS: -1}, "deadline"},
		{"overflowing deadline", JobSpec{DeadlineMS: 1 << 62}, "deadline_ms"},
		{"negative chaos", JobSpec{ChaosCrashes: -1}, "chaos"},
		{"oversize chaos", JobSpec{ChaosCrashes: 65}, "chaos_crashes"},
		{"negative gcpauses", JobSpec{ChaosGCPauses: -1}, "chaos_gcpauses"},
		{"oversize gcpauses", JobSpec{ChaosGCPauses: 65}, "chaos_gcpauses"},
		{"negative heartbeat", JobSpec{HeartbeatMS: -1}, "heartbeat_ms"},
		{"oversize idempotency key", JobSpec{IdempotencyKey: strings.Repeat("k", 257)}, "idempotency_key"},
		{"negative max attempts", JobSpec{MaxAttempts: -1}, "max_attempts"},
		{"oversize max attempts", JobSpec{MaxAttempts: 17}, "max_attempts"},
	} {
		spec := tc.spec
		if err := spec.validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error naming %s", tc.name, err, tc.want)
		}
	}
	sp := JobSpec{}
	if err := sp.validate(); err != nil {
		t.Fatal(err)
	}
	if sp.Tenant != "default" || sp.Bench != "fw" || sp.Driver != "im" || sp.N != 128 || sp.Block != 32 {
		t.Fatalf("spec defaults wrong: %+v", sp)
	}
	// A GC-pause plan defaults the detector on; otherwise it stays off.
	gc := JobSpec{ChaosGCPauses: 2}
	if err := gc.validate(); err != nil {
		t.Fatal(err)
	}
	if gc.HeartbeatMS != 2000 {
		t.Fatalf("gcpause heartbeat default = %d, want 2000", gc.HeartbeatMS)
	}
	if sp.HeartbeatMS != 0 {
		t.Fatalf("detector must stay off without chaos: %+v", sp)
	}
}
