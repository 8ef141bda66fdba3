// Package serve is the multi-tenant DP job service behind `dpspark
// serve`: a long-lived server that admits many concurrent jobs (rule,
// driver, shape, seed, priority, deadline) and schedules their stages
// onto ONE shared simulated cluster via rdd.Substrate — the
// cluster-manager role Spark delegates to YARN/Mesos/K8s, moved into
// the engine.
//
// Robustness is the point of the package:
//
//   - Admission control: the job queue is bounded; over-capacity and
//     over-quota submissions are rejected with 429 + Retry-After
//     instead of queueing unboundedly, with zero effect on in-flight
//     jobs.
//   - Tenant isolation: every job gets its own rdd.Context (lineage,
//     shuffle state, fault plan, virtual clock), so one tenant's
//     injected faults recover through the usual machinery without
//     perturbing any other tenant's result bits or modelled time.
//   - Overload degradation: per-job panic containment (a failing job
//     reports an error result; the server and sibling jobs keep
//     running), deadlines enforced by cooperative cancellation, and
//     graceful drain on SIGTERM (stop admitting, let in-flight jobs
//     finish within a grace window, then cancel what remains and dump
//     the flight recorder).
//   - Crash safety: with Config.JournalDir set, every lifecycle
//     transition is journaled (CRC32C-framed, fsynced; admission and
//     outcome write-ahead — see journal.go) and a running job
//     checkpoints durably under the journal directory about every
//     checkpointInterval. A server killed at ANY point — SIGKILL
//     included — restarts via Recover: terminal
//     jobs serve their persisted results, queued jobs re-enter the queue
//     in the original priority/FIFO order, and jobs caught mid-run
//     resume from their latest durable checkpoint, when one exists, or
//     re-run cleanly from the journaled spec — bit-identical either
//     way. Idempotency keys make retried submissions after an ambiguous
//     failure return the original job instead of double-running; bounded
//     per-job retries absorb engine errors; and a job that panics or
//     crashes the server repeatedly is quarantined with a
//     flight-recorder dump instead of wedging the service in a crash
//     loop.
package serve

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dpspark/internal/cluster"
	"dpspark/internal/core"
	"dpspark/internal/matrix"
	"dpspark/internal/obs"
	"dpspark/internal/rdd"
	"dpspark/internal/semiring"
	"dpspark/internal/simtime"
)

// checkpointInterval is the least wall time between two durable
// checkpoints of one running job (core.Config.DurableInterval): a crash
// costs a running job, on top of its restart, at most this much re-run
// plus one iteration. The restart alone is tens of milliseconds and a
// client retry, so 100 ms of re-work is the same order, while a file per
// iteration cost the small jobs of a serving mix more than their compute
// (DESIGN.md §7 has the numbers). Jobs whose iterations outlast the
// interval checkpoint at every boundary.
const checkpointInterval = 100 * time.Millisecond

// Config configures the job service.
type Config struct {
	// KernelThreads is the shared per-node kernel pool width (see
	// rdd.SubstrateConf). Default 1: serial kernels.
	KernelThreads int
	// MaxQueue bounds the admission queue: submissions arriving with
	// MaxQueue jobs already queued are rejected with 429. Default 16;
	// negative values are rejected.
	MaxQueue int
	// MaxRunning bounds concurrently executing jobs. Default 2;
	// negative values are rejected.
	MaxRunning int
	// TenantRunning caps one tenant's concurrently running jobs (its
	// share of MaxRunning). Default: MaxRunning — no per-tenant cap.
	TenantRunning int
	// TenantPending caps one tenant's queued jobs; submissions beyond
	// it are rejected with 429 even while the global queue has room.
	// Default: MaxQueue — no per-tenant cap.
	TenantPending int
	// DrainGrace is how long Drain waits for in-flight jobs to finish
	// before cancelling them. Default 30s; negative values are rejected.
	DrainGrace time.Duration
	// Observer receives every job's metrics and flight events (plus the
	// server's per-tenant job counters), so one /metrics endpoint serves
	// the whole process. Default: a fresh observer.
	Observer *obs.Observer

	// JournalDir, when non-empty, turns on crash safety: the job journal
	// lives at JournalDir/journal.log, a running job's durable checkpoints
	// under JournalDir/ckpt/<jobID> (created by its first checkpoint,
	// removed once the job is terminal), and the server starts NOT ready —
	// call Recover to replay the journal before serving. Empty: in-memory
	// only (a crash loses all job state), ready immediately.
	JournalDir string
	// MaxAttempts bounds run attempts per job on engine errors (a
	// deadline or client cancel never retries). Default 1 — no retries;
	// JobSpec.MaxAttempts overrides per job.
	MaxAttempts int
	// PoisonThreshold quarantines a job once its panics plus the server
	// crashes it was caught mid-run in reach this count: the job lands in
	// the terminal "quarantined" state with a flight-recorder dump
	// attached instead of crash-looping the service. Default 3.
	PoisonThreshold int

	// realParallelism, when set, bounds the real task-execution slots
	// shared by every running job — the test seam for slot contention.
	// Default: runtime.NumCPU() (via the substrate).
	realParallelism int
	// retryBackoff, when set, replaces the 50ms delay before a job's first
	// retry (doubling each further attempt, capped at 1s) — the test seam
	// that keeps retry tests fast.
	retryBackoff time.Duration
	// hook, when set, runs inside each job's goroutine right before the
	// engine run — the test seam for panic containment.
	hook func(j *Job)
	// replayHook, when set, runs inside Recover after the journal has
	// been replayed but before the server flips ready — the test seam
	// for readiness gating.
	replayHook func()
	// ckptInterval, when set, replaces checkpointInterval (0: a file at
	// every boundary) — the test seam for checkpoint spacing.
	ckptInterval *time.Duration
	// keepCkptDirs stops terminal jobs from retiring their checkpoint
	// directories — the test seam that lets a finished reference run
	// stand in for the disk state of a crash.
	keepCkptDirs bool
	// ckptLoaded, when set, runs each time an attempt resumes from a
	// checkpoint it loaded — the test seam that tells the resume path
	// from the clean re-run.
	ckptLoaded func(j *Job)
}

// normalize validates and defaults the Config in place — the single
// validation site, like rdd.Conf.normalize.
func (cfg *Config) normalize() error {
	if cfg.MaxQueue < 0 {
		return fmt.Errorf("serve: Config.MaxQueue must be ≥ 0 (0 means the default 16), got %d", cfg.MaxQueue)
	}
	if cfg.MaxRunning < 0 {
		return fmt.Errorf("serve: Config.MaxRunning must be ≥ 0 (0 means the default 2), got %d", cfg.MaxRunning)
	}
	if cfg.TenantRunning < 0 {
		return fmt.Errorf("serve: Config.TenantRunning must be ≥ 0 (0 means no per-tenant cap), got %d", cfg.TenantRunning)
	}
	if cfg.TenantPending < 0 {
		return fmt.Errorf("serve: Config.TenantPending must be ≥ 0 (0 means no per-tenant cap), got %d", cfg.TenantPending)
	}
	if cfg.DrainGrace < 0 {
		return fmt.Errorf("serve: Config.DrainGrace must be ≥ 0 (0 means the default 30s), got %v", cfg.DrainGrace)
	}
	if cfg.KernelThreads < 0 {
		return fmt.Errorf("serve: Config.KernelThreads must be ≥ 0 (0 means serial kernels), got %d", cfg.KernelThreads)
	}
	if cfg.MaxAttempts < 0 || cfg.MaxAttempts > 16 {
		return fmt.Errorf("serve: Config.MaxAttempts must be in [0, 16] (0 means the default 1), got %d", cfg.MaxAttempts)
	}
	if cfg.PoisonThreshold < 0 {
		return fmt.Errorf("serve: Config.PoisonThreshold must be ≥ 0 (0 means the default 3), got %d", cfg.PoisonThreshold)
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 16
	}
	if cfg.MaxRunning == 0 {
		cfg.MaxRunning = 2
	}
	if cfg.TenantRunning == 0 || cfg.TenantRunning > cfg.MaxRunning {
		cfg.TenantRunning = cfg.MaxRunning
	}
	if cfg.TenantPending == 0 || cfg.TenantPending > cfg.MaxQueue {
		cfg.TenantPending = cfg.MaxQueue
	}
	if cfg.DrainGrace == 0 {
		cfg.DrainGrace = 30 * time.Second
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 1
	}
	if cfg.retryBackoff == 0 {
		cfg.retryBackoff = 50 * time.Millisecond
	}
	if cfg.PoisonThreshold == 0 {
		cfg.PoisonThreshold = 3
	}
	if cfg.Observer == nil {
		cfg.Observer = obs.New()
	}
	return nil
}

// JobSpec is the submission payload.
type JobSpec struct {
	// Tenant attributes the job for quotas and metrics. Default "default".
	Tenant string `json:"tenant"`
	// Bench selects the update rule: "fw" (min-plus closure) or "ge"
	// (Gaussian elimination). Default "fw".
	Bench string `json:"bench"`
	// Driver selects the engine driver: "im" or "cb". Default "im".
	Driver string `json:"driver"`
	// N and Block are the matrix size and tile size. Defaults 128 / 32.
	N     int `json:"n"`
	Block int `json:"block"`
	// Seed deterministically generates the input matrix, so the same
	// (bench, n, block, seed) job always produces the same checksum.
	Seed int64 `json:"seed"`
	// Priority orders this job against others contending for executor
	// slots and the run queue: higher wins, FIFO within a priority.
	Priority int `json:"priority"`
	// DeadlineMS, when > 0, cancels the job that many real milliseconds
	// after it is admitted (cooperative: tasks finish their current
	// attempt).
	DeadlineMS int64 `json:"deadline_ms"`
	// ChaosSeed, with ChaosCrashes > 0, injects a seeded fault plan
	// (executor crashes, 2 stragglers, 1 staging-disk loss — the chaos
	// subcommand's mix) into THIS job only; recovery must not perturb
	// sibling jobs.
	ChaosSeed    int64 `json:"chaos_seed"`
	ChaosCrashes int   `json:"chaos_crashes"`
	// ChaosGCPauses, when > 0, additionally injects that many seeded
	// stop-the-world GC pauses and turns on the heartbeat failure
	// detector for THIS job (HeartbeatMS lease interval, dead after two
	// missed leases). Pauses outliving the detection latency falsely
	// declare the executor dead; the job must recover through
	// resubmission with the zombie attempt's commits fenced.
	ChaosGCPauses int `json:"chaos_gcpauses"`
	// HeartbeatMS is the detector's lease interval in virtual
	// milliseconds. Default 2000 when ChaosGCPauses > 0; 0 otherwise
	// (detector off, instant failure detection).
	HeartbeatMS int64 `json:"heartbeat_ms"`
	// IdempotencyKey, when non-empty, makes admission idempotent: a
	// later submission with the same key and an equal spec returns the
	// ORIGINAL job (same ID, same eventual result) instead of admitting
	// a duplicate — the safe client response to an ambiguous failure
	// (timeout, connection drop, server crash after the journal fsync).
	// The same key with a DIFFERENT spec is a conflict (HTTP 409). Keys
	// survive restarts through the journal.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// MaxAttempts overrides Config.MaxAttempts for this job: the run is
	// retried on engine errors up to this many attempts with exponential
	// backoff. 0 means the server default; capped at 16.
	MaxAttempts int `json:"max_attempts,omitempty"`
}

const (
	// maxChaosEvents caps chaos_crashes and chaos_gcpauses: dispatch
	// builds the job's fault plan event by event.
	maxChaosEvents = 64
	// maxDeadlineMS is the largest deadline_ms a time.Duration holds.
	maxDeadlineMS = math.MaxInt64 / int64(time.Millisecond)
)

// validate checks and defaults a submitted spec.
func (sp *JobSpec) validate() error {
	if sp.Tenant == "" {
		sp.Tenant = "default"
	}
	if sp.Bench == "" {
		sp.Bench = "fw"
	}
	if sp.Bench != "fw" && sp.Bench != "ge" {
		return fmt.Errorf("serve: unknown bench %q (want fw or ge)", sp.Bench)
	}
	if sp.Driver == "" {
		sp.Driver = "im"
	}
	if sp.Driver != "im" && sp.Driver != "cb" {
		return fmt.Errorf("serve: unknown driver %q (want im or cb)", sp.Driver)
	}
	if sp.N == 0 {
		sp.N = 128
	}
	if sp.Block == 0 {
		sp.Block = 32
	}
	if sp.N < 1 || sp.Block < 1 || sp.Block > sp.N {
		return fmt.Errorf("serve: invalid shape n=%d block=%d (need 1 ≤ block ≤ n)", sp.N, sp.Block)
	}
	if sp.N > 4096 {
		return fmt.Errorf("serve: n=%d exceeds the serving cap 4096 — submit a batch run instead", sp.N)
	}
	if sp.DeadlineMS < 0 || sp.DeadlineMS > maxDeadlineMS {
		return fmt.Errorf("serve: deadline_ms must be in [0, %d], got %d", maxDeadlineMS, sp.DeadlineMS)
	}
	if sp.ChaosCrashes < 0 || sp.ChaosCrashes > maxChaosEvents {
		return fmt.Errorf("serve: chaos_crashes must be in [0, %d], got %d", maxChaosEvents, sp.ChaosCrashes)
	}
	if sp.ChaosGCPauses < 0 || sp.ChaosGCPauses > maxChaosEvents {
		return fmt.Errorf("serve: chaos_gcpauses must be in [0, %d], got %d", maxChaosEvents, sp.ChaosGCPauses)
	}
	if sp.HeartbeatMS < 0 {
		return fmt.Errorf("serve: heartbeat_ms must be ≥ 0, got %d", sp.HeartbeatMS)
	}
	if sp.ChaosGCPauses > 0 && sp.HeartbeatMS == 0 {
		sp.HeartbeatMS = 2000 // a GC-pause plan needs the detector on
	}
	if len(sp.IdempotencyKey) > 256 {
		return fmt.Errorf("serve: idempotency_key longer than 256 bytes")
	}
	if sp.MaxAttempts < 0 || sp.MaxAttempts > 16 {
		return fmt.Errorf("serve: max_attempts must be in [0, 16] (0 means the server default), got %d", sp.MaxAttempts)
	}
	return nil
}

// rule resolves the spec's semiring rule.
func (sp *JobSpec) rule() semiring.Rule {
	if sp.Bench == "ge" {
		return semiring.NewGaussian()
	}
	return semiring.NewFloydWarshall()
}

// driverKind resolves the spec's driver.
func (sp *JobSpec) driverKind() core.DriverKind {
	if sp.Driver == "cb" {
		return core.CB
	}
	return core.IM
}

// JobState is a job's lifecycle position.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
	// StateQuarantined is the poison-job terminal state: the job
	// panicked or was caught mid-run across server crashes
	// Config.PoisonThreshold times, so the server stopped retrying it
	// and attached a flight-recorder dump for diagnosis.
	StateQuarantined JobState = "quarantined"
)

// terminal reports whether a state is final.
func (st JobState) terminal() bool {
	return st != StateQueued && st != StateRunning
}

// Job is one admitted job. All mutable fields are guarded by the
// server's mu; the lifecycle fields (state, attempts, crashes, outcome,
// finished) are written only by applyLocked (lifecycle.go).
type Job struct {
	ID   string
	Spec JobSpec

	state     JobState
	seq       uint64
	submitted time.Time
	started   time.Time
	finished  time.Time

	// ctx is the job's engine context while an attempt runs; cancel
	// requests arriving earlier are remembered in cancelCause.
	ctx         *rdd.Context
	cancelCause error

	// attempts counts dispatched run attempts; panics counts in-process
	// panics; crashes counts server crashes that caught the job mid-run
	// (replayed from the journal). panics+crashes reaching the poison
	// threshold quarantines the job.
	attempts int
	panics   int
	crashes  int
	// flightDump is the flight-recorder dump attached at quarantine.
	flightDump string

	checksum uint64
	modelled float64 // virtual seconds
	errMsg   string
}

// errServerDraining is the cancellation cause drain applies to jobs it
// cannot let finish.
var errServerDraining = fmt.Errorf("server draining: %w", rdd.ErrJobCanceled)

// errDeadline marks deadline cancellations (wraps rdd.ErrJobCanceled so
// the engine treats it as a cancel; the distinct message reaches the
// job's error field).
func errDeadline(d time.Duration) error {
	return fmt.Errorf("deadline %v exceeded: %w", d, rdd.ErrJobCanceled)
}

// Server is the job service. Create with New, mount Handler on an HTTP
// server, and Drain before exit.
type Server struct {
	cfg  Config
	sub  *rdd.Substrate
	obsv *obs.Observer

	// jl is the write-ahead job journal (nil without JournalDir).
	jl *journal

	mu            sync.Mutex
	jobs          map[string]*Job
	queue         []*Job // admitted, not yet running
	idem          map[string]*Job
	seq           uint64
	running       int
	tenantRunning map[string]int
	tenantPending map[string]int
	draining      bool
	ready         bool
	wg            sync.WaitGroup

	queuedGauge  *obs.Gauge
	runningGauge *obs.Gauge
}

// New builds a server over one shared substrate on a 4-node, 2-core
// local cluster.
func New(cfg Config) (*Server, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	sub, err := rdd.NewSubstrate(rdd.SubstrateConf{
		Cluster:         cluster.LocalN(4, 2),
		KernelThreads:   cfg.KernelThreads,
		RealParallelism: cfg.realParallelism,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:           cfg,
		sub:           sub,
		obsv:          cfg.Observer,
		jobs:          make(map[string]*Job),
		idem:          make(map[string]*Job),
		tenantRunning: make(map[string]int),
		tenantPending: make(map[string]int),
		// A journal-backed server starts NOT ready: Recover must replay
		// the journal first, so /readyz gates traffic until then.
		ready: cfg.JournalDir == "",
	}
	if cfg.JournalDir != "" {
		jl, err := openJournal(cfg.JournalDir, cfg.Observer.Metrics())
		if err != nil {
			return nil, err
		}
		s.jl = jl
	}
	s.queuedGauge = s.obsv.Metrics().Gauge("dpspark_jobs_queued", nil)
	s.runningGauge = s.obsv.Metrics().Gauge("dpspark_jobs_running", nil)
	return s, nil
}

// Ready reports whether the server is accepting jobs: true once any
// journal replay has finished and until Drain begins.
func (s *Server) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ready && !s.draining
}

// jobCounter resolves one of the per-tenant job counters.
func (s *Server) jobCounter(outcome, tenant string) *obs.Counter {
	return s.obsv.Metrics().Counter("dpspark_jobs_"+outcome+"_total", obs.Labels{"tenant": tenant})
}

// rejectedCounter carries the rejection reason alongside the tenant.
func (s *Server) rejectedCounter(tenant, reason string) *obs.Counter {
	return s.obsv.Metrics().Counter("dpspark_jobs_rejected_total", obs.Labels{"tenant": tenant, "reason": reason})
}

// errRejected is returned by Submit for admission-control rejections;
// the HTTP layer maps it to 429 (or 503 while draining or before
// journal replay has finished).
type errRejected struct {
	reason string // "queue_full" | "tenant_quota" | "draining" | "not_ready"
}

func (e *errRejected) Error() string { return "serve: rejected: " + e.reason }

// errIdemConflict is returned by Submit when an idempotency key is
// reused with a different spec; the HTTP layer maps it to 409.
type errIdemConflict struct {
	key string
	job string // the job holding the key
}

func (e *errIdemConflict) Error() string {
	return fmt.Sprintf("serve: idempotency key %q already used by %s with a different spec", e.key, e.job)
}

// errInternal wraps server-side failures (journal write errors) the
// HTTP layer maps to 500 — the ambiguous-outcome class idempotency keys
// exist for.
type errInternal struct{ err error }

func (e *errInternal) Error() string { return e.err.Error() }
func (e *errInternal) Unwrap() error { return e.err }

// Submit validates, admits and enqueues a job, returning its ID. A
// *errRejected error means admission control turned the job away (the
// queue or the tenant's pending quota is full, the server is draining,
// or journal replay has not finished) — with zero effect on admitted
// jobs. A spec whose IdempotencyKey matches a previously admitted equal
// spec returns the ORIGINAL job without admitting anything; the same
// key with a different spec is a *errIdemConflict.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ready {
		s.rejectedCounter(spec.Tenant, "not_ready").Inc()
		return nil, &errRejected{reason: "not_ready"}
	}
	if s.draining {
		s.rejectedCounter(spec.Tenant, "draining").Inc()
		return nil, &errRejected{reason: "draining"}
	}
	if spec.IdempotencyKey != "" {
		if prev, ok := s.idem[spec.IdempotencyKey]; ok {
			// Specs are flat comparable structs and both sides have been
			// validated, so equality is exact: a retried submission
			// matches, a repurposed key does not.
			if prev.Spec != spec {
				return nil, &errIdemConflict{key: spec.IdempotencyKey, job: prev.ID}
			}
			s.jobCounter("deduped", spec.Tenant).Inc()
			return prev, nil
		}
	}
	if len(s.queue) >= s.cfg.MaxQueue {
		s.rejectedCounter(spec.Tenant, "queue_full").Inc()
		return nil, &errRejected{reason: "queue_full"}
	}
	if s.tenantPending[spec.Tenant] >= s.cfg.TenantPending {
		s.rejectedCounter(spec.Tenant, "tenant_quota").Inc()
		return nil, &errRejected{reason: "tenant_quota"}
	}
	rec := journalRecord{Type: recAdmitted, Job: fmt.Sprintf("job-%d", s.seq+1), Seq: s.seq + 1, Spec: &spec}
	if s.jl != nil {
		// Write-ahead: the admission record (with the full spec) must be
		// durable BEFORE the job becomes visible, so an admitted job can
		// always be re-run from its journaled spec after a crash.
		if err := s.jl.append(rec); err != nil {
			return nil, &errInternal{err: err}
		}
	}
	j := s.applyLocked(rec, true)
	if j == nil { // a hand-edited journal reused this ID; replay ignores the record
		return nil, &errInternal{err: fmt.Errorf("serve: job ID %s is already taken", rec.Job)}
	}
	return j, nil
}

// dispatchLocked starts queued jobs while run capacity allows: highest
// priority first, FIFO within a priority, skipping tenants at their
// running cap. Nothing starts before Recover has finished or once Drain
// has begun. Caller holds mu.
func (s *Server) dispatchLocked() {
	for s.ready && !s.draining && s.running < s.cfg.MaxRunning {
		best := -1
		for i, j := range s.queue {
			if s.tenantRunning[j.Spec.Tenant] >= s.cfg.TenantRunning {
				continue
			}
			if best < 0 || j.Spec.Priority > s.queue[best].Spec.Priority ||
				(j.Spec.Priority == s.queue[best].Spec.Priority && j.seq < s.queue[best].seq) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		j := s.queue[best]
		j.started = time.Now()
		// The attempt is running from here; its goroutine journals the
		// record before the engine starts (DESIGN.md §7).
		rec := journalRecord{Type: recDispatched, Job: j.ID, Attempt: j.attempts + 1}
		s.applyLocked(rec, true)
		s.wg.Add(1)
		go s.runJob(j, rec)
	}
}

// runJob runs a dispatched job to its terminal record and frees its run
// slot.
func (s *Server) runJob(j *Job, dispatched journalRecord) {
	defer s.wg.Done()
	end := s.runAttempts(j, dispatched)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.terminateLocked(j, end)
}

// runAttempts executes a job on its own engine context mounted on the
// shared substrate, retrying bounded engine errors with exponential
// backoff, and returns the job's terminal record. Panics anywhere in an
// attempt (kernel bugs, bad configs) are contained: below the poison
// threshold they retry like engine errors, at it the job is quarantined —
// either way the server and sibling jobs keep running.
func (s *Server) runAttempts(j *Job, dispatched journalRecord) journalRecord {
	maxAttempts := j.Spec.MaxAttempts
	if maxAttempts == 0 {
		maxAttempts = s.cfg.MaxAttempts
	}
	backoff := s.cfg.retryBackoff
	for attempt := dispatched.Attempt; ; attempt++ {
		s.journalAppend(dispatched)
		sum, modelled, err, panicked := s.attemptOnce(j)
		if panicked {
			s.mu.Lock()
			j.panics++
			poisoned := j.panics+j.crashes >= s.cfg.PoisonThreshold
			msg := fmt.Sprintf("quarantined after %d panics and %d crash-restarts: %v", j.panics, j.crashes, err)
			s.mu.Unlock()
			if poisoned {
				return terminalRecord(j.ID, StateQuarantined, 0, 0, msg, s.DumpFlight(j.ID))
			}
		}
		// An engine error (or a below-threshold panic) retries while the
		// budget allows and the server is not shutting down. Panics are
		// budgeted by the poison threshold, engine errors by MaxAttempts.
		if err == nil || errors.Is(err, rdd.ErrJobCanceled) || s.Draining() || (!panicked && attempt >= maxAttempts) {
			state, msg := StateDone, ""
			if err != nil {
				state, msg = StateFailed, err.Error()
			}
			if errors.Is(err, rdd.ErrJobCanceled) {
				state = StateCancelled
			}
			return terminalRecord(j.ID, state, sum, modelled, msg, "")
		}
		retry := journalRecord{Type: recRetry, Job: j.ID, Attempt: attempt, Error: err.Error()}
		s.journalAppend(retry)
		time.Sleep(backoff)
		if backoff < time.Second {
			backoff *= 2
		}
		dispatched = journalRecord{Type: recDispatched, Job: j.ID, Attempt: attempt + 1}
		s.mu.Lock()
		s.applyLocked(retry, true)
		s.applyLocked(dispatched, true)
		s.mu.Unlock()
	}
}

// attemptOnce runs one attempt with panic containment.
func (s *Server) attemptOnce(j *Job) (sum uint64, modelled float64, err error, panicked bool) {
	defer func() {
		if p := recover(); p != nil {
			panicked = true
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	if s.cfg.hook != nil {
		s.cfg.hook(j)
	}
	sum, modelled, err = s.runAttempt(j)
	return
}

// runAttempt executes one engine run for j. With a journal, the run
// checkpoints durably under the job's checkpoint directory about every
// checkpointInterval, and — when an intact checkpoint already exists (a
// crashed or retried run left one) — resumes from it instead of starting
// over; resumed bits are identical to an uninterrupted run's, so callers
// cannot tell which path produced a result.
func (s *Server) runAttempt(j *Job) (uint64, float64, error) {
	spec := j.Spec
	// The chaos subcommand's mix, seeded per job: crashes (with two
	// stragglers and one staging-disk loss) and stop-the-world pauses —
	// those outliving the detection latency exercise false suspicion +
	// zombie fencing in-service.
	r := (spec.N + spec.Block - 1) / spec.Block
	plan := rdd.ChaosPlan(spec.ChaosSeed, 4*r, s.sub.Cluster().Nodes, spec.ChaosCrashes, spec.ChaosGCPauses, 0, 0)
	var heartbeat simtime.Duration
	if spec.HeartbeatMS > 0 {
		heartbeat = simtime.Duration(spec.HeartbeatMS) * simtime.Millisecond
	}

	rule := spec.rule()

	// Resolve the resume-vs-clean decision from the disk: the journal
	// does not record checkpoints, the directory is the only witness, and
	// a missing/torn directory simply falls back to a clean re-run from
	// the journaled spec. Bits are identical either way.
	var meta *core.CheckpointMeta
	var ckptBl *matrix.Blocked
	var ckptDir string
	if s.jl != nil {
		ckptDir = s.jl.ckptDir(j.ID)
		if core.CanResume(ckptDir) {
			if m, b, err := core.LoadCheckpoint(ckptDir); err == nil {
				meta, ckptBl = m, b
			}
		}
	}
	if meta != nil &&
		(meta.N != spec.N || meta.B != spec.Block ||
			meta.Rule != rule.Name() || meta.Driver != spec.driverKind().String()) {
		// A checkpoint that does not describe THIS spec (a recycled job
		// ID, a hand-edited directory) must not poison the run — fall
		// back to the clean re-run the journaled spec guarantees.
		meta, ckptBl = nil, nil
	}

	conf := rdd.Conf{
		Substrate:         s.sub,
		Priority:          spec.Priority,
		FaultPlan:         plan,
		Observer:          s.obsv,
		HeartbeatInterval: heartbeat,
		JobLabel:          j.ID,
	}
	if meta != nil {
		// Restore the interrupted run's scheduler state so stage
		// numbering continues and already-fired fault events stay fired.
		conf.Restore = &meta.Engine
	}
	ctx := rdd.NewContext(conf)
	defer ctx.Close()

	// Publish the context so Cancel reaches the engine, honouring a
	// cancel that raced the start — and only for as long as the attempt
	// runs: a finished job must not keep its engine state reachable.
	s.mu.Lock()
	j.ctx = ctx
	if cause := j.cancelCause; cause != nil {
		ctx.Cancel(cause)
	}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		j.ctx = nil
		s.mu.Unlock()
	}()

	if spec.DeadlineMS > 0 {
		// The deadline counts from admission — time spent queued behind
		// other tenants burns the budget too, so an overloaded server
		// sheds overdue queued work instead of running it late.
		d := time.Duration(spec.DeadlineMS) * time.Millisecond
		if dl := j.submitted.Add(d); time.Now().Before(dl) {
			timer := time.AfterFunc(time.Until(dl), func() { ctx.Cancel(errDeadline(d)) })
			defer timer.Stop()
		} else {
			ctx.Cancel(errDeadline(d))
		}
	}

	ccfg := core.Config{
		Rule: rule, BlockSize: spec.Block, Driver: spec.driverKind(),
	}
	if ckptDir != "" {
		ccfg.DurableDir = ckptDir
		ccfg.KeepCheckpoints = 2
		ccfg.DurableInterval = checkpointInterval
		if s.cfg.ckptInterval != nil {
			ccfg.DurableInterval = *s.cfg.ckptInterval
		}
	}
	var out *matrix.Blocked
	var st *core.Stats
	var err error
	if meta != nil {
		// Resume pins the interrupted run's scheduling shape.
		ccfg.Partitions = meta.Partitions
		ccfg.CheckpointEvery = meta.CheckpointEvery
		if s.cfg.ckptLoaded != nil {
			s.cfg.ckptLoaded(j)
		}
		out, st, err = core.Resume(ctx, meta, ckptBl, ccfg)
	} else {
		in := core.SeededInput(rule, spec.N, spec.Seed)
		bl := matrix.Block(in, spec.Block, rule.Pad(), rule.PadDiag())
		out, st, err = core.Run(ctx, bl, ccfg)
	}
	var sum uint64
	var modelled float64
	if st != nil {
		modelled = st.Time.Seconds()
	}
	if err == nil && out != nil {
		sum = out.Checksum()
	}
	return sum, modelled, err
}

// journalAppend appends a record, swallowing errors for log-only
// transitions (a failed dispatch/retry record degrades recovery
// granularity, not correctness — the admission record is the one whose
// failure must fail the operation, and Submit handles that itself).
func (s *Server) journalAppend(rec journalRecord) {
	if s.jl == nil {
		return
	}
	_ = s.jl.append(rec)
}

// DumpFlight writes the flight-recorder ring to the journal directory as
// flight-<tag>.jsonl and returns the path ("" without a journal or on
// error). A quarantine tags it with the job's ID; the serve binary calls
// it on a process-level panic or fatal exit, so the last moments before
// death are kept next to the journal.
func (s *Server) DumpFlight(tag string) string {
	if s.jl == nil {
		return ""
	}
	path := filepath.Join(s.jl.dir, "flight-"+tag+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	if err := s.obsv.Flight().WriteJSONL(f, 0); err != nil {
		return ""
	}
	return path
}

// maybeCompactLocked rewrites the journal as a compact snapshot once
// enough records have accumulated since the last one (journal.due): each
// job collapses to its admission plus its current position (terminal
// outcome, crash count, or running attempt), dropping per-dispatch and
// per-retry chatter. Caller holds mu.
func (s *Server) maybeCompactLocked() {
	if s.jl == nil || !s.jl.due() {
		return
	}
	_ = s.jl.compact(s.snapshotLocked())
}

// snapshotLocked renders the server's full job state as journal
// records, in admission order. Caller holds mu.
func (s *Server) snapshotLocked() []journalRecord {
	all := s.jobsLocked()
	recs := make([]journalRecord, 0, 2*len(all))
	for _, j := range all {
		recs = append(recs, journalRecord{Type: recAdmitted, Job: j.ID, Seq: j.seq, Spec: &j.Spec})
		if j.crashes > 0 && !j.state.terminal() {
			recs = append(recs, journalRecord{Type: recRecovered, Job: j.ID, Crashes: j.crashes})
		}
		switch {
		case j.state.terminal():
			recs = append(recs, terminalRecord(j.ID, j.state, j.checksum, j.modelled, j.errMsg, j.flightDump))
		case j.state == StateRunning:
			recs = append(recs, journalRecord{Type: recDispatched, Job: j.ID, Attempt: j.attempts})
		}
	}
	return recs
}

// jobsLocked lists every job in admission order. Caller holds mu.
func (s *Server) jobsLocked() []*Job {
	all := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		all = append(all, j)
	}
	sort.Slice(all, func(i, k int) bool { return all[i].seq < all[k].seq })
	return all
}

// Cancel cancels a job by ID: queued jobs leave the queue immediately,
// running jobs are cancelled cooperatively (their tasks finish the
// current attempt, then the driver loop stops). Finished jobs return an
// error.
func (s *Server) Cancel(id string, cause error) error {
	if cause == nil {
		cause = rdd.ErrJobCanceled
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("serve: no such job %q", id)
	}
	if j.state.terminal() {
		return fmt.Errorf("serve: job %s already %s", id, j.state)
	}
	s.cancelLocked(j, cause)
	return nil
}

// Drain gracefully shuts the service down: stop admitting, cancel the
// queue, give running jobs DrainGrace to finish, cancel what remains,
// and wait for everything to unwind. Safe to call more than once.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	// A graceful drain is a decided outcome, not an ambiguous crash: the
	// queue is journaled cancelled, so a restart does not resurrect jobs
	// whose callers were told "cancelled".
	for _, j := range s.jobsLocked() {
		if j.state == StateQueued {
			s.cancelLocked(j, errServerDraining)
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(s.cfg.DrainGrace):
		// Grace expired: cancel in-flight jobs cooperatively and wait
		// for them to unwind (cancellation aborts between task attempts
		// and at iteration boundaries, so this is prompt).
		s.mu.Lock()
		for _, j := range s.jobs {
			if j.state == StateRunning {
				s.cancelLocked(j, errServerDraining)
			}
		}
		s.mu.Unlock()
		<-done
	}
	if s.jl != nil {
		// Everything terminal is journaled by now; compact so the next
		// start replays a minimal snapshot, then release the handle.
		s.mu.Lock()
		_ = s.jl.compact(s.snapshotLocked())
		s.mu.Unlock()
		s.jl.close()
	}
}

// Draining reports whether Drain has been requested.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// JobStatus is the wire form of a job.
type JobStatus struct {
	ID              string   `json:"id"`
	Tenant          string   `json:"tenant"`
	State           JobState `json:"state"`
	Bench           string   `json:"bench"`
	Driver          string   `json:"driver"`
	N               int      `json:"n"`
	Block           int      `json:"block"`
	Seed            int64    `json:"seed"`
	Priority        int      `json:"priority"`
	Submitted       string   `json:"submitted,omitempty"`
	Started         string   `json:"started,omitempty"`
	Finished        string   `json:"finished,omitempty"`
	ModelledSeconds float64  `json:"modelled_seconds,omitempty"`
	Checksum        string   `json:"checksum,omitempty"`
	Error           string   `json:"error,omitempty"`
	Attempts        int      `json:"attempts,omitempty"`
	Crashes         int      `json:"crashes,omitempty"`
	Flight          string   `json:"flight,omitempty"`
}

// statusLocked renders a job. Caller holds mu.
func (j *Job) statusLocked() JobStatus {
	st := JobStatus{
		ID: j.ID, Tenant: j.Spec.Tenant, State: j.state,
		Bench: j.Spec.Bench, Driver: j.Spec.Driver,
		N: j.Spec.N, Block: j.Spec.Block, Seed: j.Spec.Seed,
		Priority:        j.Spec.Priority,
		ModelledSeconds: j.modelled,
		Error:           j.errMsg,
		Attempts:        j.attempts,
		Crashes:         j.crashes,
		Flight:          j.flightDump,
	}
	if !j.submitted.IsZero() {
		st.Submitted = j.submitted.UTC().Format(time.RFC3339Nano)
	}
	if !j.started.IsZero() {
		st.Started = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		st.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	}
	if j.state == StateDone {
		st.Checksum = fmt.Sprintf("%016x", j.checksum)
	}
	return st
}

// Status returns one job's status.
func (s *Server) Status(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return j.statusLocked(), true
}

// Jobs lists every known job, newest first.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	all := s.jobsLocked()
	out := make([]JobStatus, len(all))
	for i, j := range all {
		out[len(all)-1-i] = j.statusLocked()
	}
	return out
}

// JobResult is the durable result surface: the fields of a terminal job
// that are bit-stable across restarts. After a crash and Recover, a
// terminal job's JobResult is byte-identical to what the original
// server returned — the property idempotent clients rely on.
type JobResult struct {
	ID              string   `json:"id"`
	State           JobState `json:"state"`
	Checksum        string   `json:"checksum,omitempty"`
	ModelledSeconds float64  `json:"modelled_seconds,omitempty"`
	Error           string   `json:"error,omitempty"`
}

// Result returns a terminal job's persisted result. found reports
// whether the job exists; terminal whether it has finished (a false
// terminal means the result is not available yet, not never).
func (s *Server) Result(id string) (res JobResult, terminal, found bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobResult{}, false, false
	}
	if !j.state.terminal() {
		return JobResult{ID: j.ID, State: j.state}, false, true
	}
	res = JobResult{ID: j.ID, State: j.state, ModelledSeconds: j.modelled, Error: j.errMsg}
	if j.state == StateDone {
		res.Checksum = fmt.Sprintf("%016x", j.checksum)
	}
	return res, true, true
}
