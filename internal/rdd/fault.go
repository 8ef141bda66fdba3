package rdd

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"dpspark/internal/obs"
	"dpspark/internal/simtime"
)

// This file is the engine's whole-executor failure machinery: the
// FaultPlan chaos schedule, the FetchFailed error that surfaces lost map
// outputs on the reduce side, the exponential-backoff executor blacklist
// that drives task re-placement, and the recovery counters the chaos
// harness asserts on.
//
// Everything is keyed on deterministic state — global stage IDs and the
// virtual clock — never wall time, so a seeded plan injects the same
// faults at the same points on every run and the recovered results are
// bit-identical to the fault-free execution.

// ExecutorCrash schedules the loss of one executor at the start of one
// stage: every live shuffle map output staged on the node is invalidated
// (a later reduce-side fetch surfaces a FetchFailed and resubmits the map
// stage for the lost partitions), tasks of the stage placed on the node
// fail their first attempt ("executor lost"), and the node is
// blacklisted.
type ExecutorCrash struct {
	// Stage is the global stage ID at whose start the crash fires.
	Stage int
	// Node is the executor that dies.
	Node int
	// Down is how long the executor stays blacklisted; 0 uses the
	// exponential backoff (defaultBlacklistBackoff doubling per repeated
	// crash of the same node).
	Down simtime.Duration
}

// DiskLoss schedules the loss of one node's shuffle staging disk at the
// start of one stage: staged map outputs on the node are invalidated
// (recovered via stage resubmission, like an executor crash) but the
// executor itself stays schedulable.
type DiskLoss struct {
	// Stage is the global stage ID at whose start the loss fires.
	Stage int
	// Node is the node whose staging disk is wiped.
	Node int
}

// Straggler schedules one slow task: the matching task's compute time is
// dilated by Factor (the injected slowdown is recorded separately, so
// speculative execution can estimate the task's healthy duration).
type Straggler struct {
	// Stage and Partition select the task.
	Stage, Partition int
	// Factor ≥ 1 multiplies the task's charged compute time.
	Factor float64
}

// Corruption schedules the deliberate damage of one durably staged
// shuffle block at the start of one stage: among the newest materialized
// shuffle's staged blocks (sorted keys — a deterministic set, since
// whether a bucket is staged depends only on the data, never on memory
// pressure), index Block modulo the count selects the victim, which is
// forced to disk and damaged — truncated mid-payload when Torn, one
// payload bit flipped otherwise. The next fetch of the block fails its
// CRC32C and flows into the FetchFailed → partial-recompute path,
// exactly like an executor loss of that map partition. No-op without a
// durable store (Conf.DurableDir) or with nothing staged yet.
type Corruption struct {
	// Stage is the global stage ID at whose start the damage happens.
	Stage int
	// Block indexes the victim among the staged blocks (mod the count).
	Block int
	// Torn truncates the block file instead of flipping a bit.
	Torn bool
}

// RemoteOutage takes the remote replica tier down for a window of
// stages: from the start of stage From until (exclusive) the start of
// stage From+Dur, replication parks its queue and recovery skips the
// restore path — the engine degrades to recompute-only. Window
// membership is evaluated against the run's high-water stage ID, so
// resubmitted recovery stages (which reuse old IDs) can never re-open a
// closed window.
type RemoteOutage struct {
	// From is the global stage ID at whose start the outage begins.
	From int
	// Dur is the window length in stages (> 0).
	Dur int
}

// RemoteSlow dilates simulated remote-tier operations by Factor for a
// window of stages ([From, From+Dur), same semantics as RemoteOutage).
// A dilated restore read that exceeds remoteOpTimeout times out and is
// retried with exponential backoff up to remoteMaxRetries times;
// exhausting the retries falls back to recompute.
type RemoteSlow struct {
	// From is the global stage ID at whose start the slowdown begins.
	From int
	// Dur is the window length in stages (> 0).
	Dur int
	// Factor > 1 multiplies simulated remote operation time.
	Factor float64
}

// RemoteCorruption schedules the deliberate damage of one remote
// replica at the start of one stage: pending replication is flushed,
// then among the newest shuffle's replicas (sorted keys) index Block
// modulo the count selects the victim — the same selection rule as the
// local Corruption event, so pairing the two with equal indexes damages
// a block and its replica together (forcing the recompute fallback).
type RemoteCorruption struct {
	// Stage is the global stage ID at whose start the damage happens.
	Stage int
	// Block indexes the victim among the replicas (mod the count).
	Block int
	// Torn truncates the replica file instead of flipping a bit.
	Torn bool
}

// GCPause schedules a stop-the-world pause on one executor: from the
// start of stage From the node stops heartbeating for Dur modelled time
// WITHOUT dying — its staged outputs survive. With a
// heartbeat failure detector (Conf.HeartbeatInterval > 0) a pause of at
// least one interval makes the scheduler suspect the node; a pause of at
// least two intervals (heartbeatMisses) makes it falsely declare it dead,
// invalidate its map outputs and resubmit — and when the pause ends, the
// original "zombie" attempt's commit is rejected by the map-output commit
// lease (attempt-epoch fencing). Requires the detector: plans carrying GC
// pauses are rejected without Conf.HeartbeatInterval.
type GCPause struct {
	// Node is the executor that pauses.
	Node int
	// From is the global stage ID at whose start the pause begins.
	From int
	// Dur is how long the node's heartbeats stall, in modelled time.
	Dur simtime.Duration
}

// Partition schedules a network partition: from the start of stage From
// the named executors are unreachable from the driver for Dur modelled
// time — alive and computing, but silent. Detector semantics are exactly
// GCPause's, applied to every partitioned node: false suspicion, stale
// commits fenced when the partition heals. Requires the detector.
type Partition struct {
	// Nodes are the executors cut off from the driver.
	Nodes []int
	// From is the global stage ID at whose start the partition begins.
	From int
	// Dur is how long the partition lasts, in modelled time.
	Dur simtime.Duration
}

// RackFailure schedules the correlated loss of one fault domain at the
// start of one stage: every executor in the rack dies at once (shared
// ToR switch / PDU), with full per-node crash semantics — staged outputs
// lost, blacklist backoff per node, first-attempt tasks killed. Requires
// a cluster with rack topology (cluster.WithRacks).
type RackFailure struct {
	// Rack is the fault domain that fails.
	Rack int
	// Stage is the global stage ID at whose start the rack dies.
	Stage int
	// Down is how long the rack's executors stay blacklisted; 0 uses the
	// per-node exponential backoff.
	Down simtime.Duration
}

// FaultEvent is one scheduled failure: the ten event structs above are its
// implementations (the methods are unexported, so the set is closed).
type FaultEvent interface {
	// span is where the event applies. A point event (n == 0) fires once,
	// when stage `from` starts. A window event (n > 0) holds at every stage
	// boundary while the run's high-water stage ID is in [from, from+n) —
	// resubmitted recovery stages reuse old IDs, so they can never re-open
	// a closed window.
	span() (from, n int)
	// check reports what is wrong with the event on a cluster of `nodes`
	// executors in `racks` fault domains, with or without a heartbeat
	// failure detector; validate prefixes the event's type and stage.
	check(nodes, racks int, detector bool) error
}

// boundaryEvent is a FaultEvent delivered at stage boundaries — all but
// Straggler, which dilates one task (see stragglerFactor).
type boundaryEvent interface {
	FaultEvent
	// rank orders the kinds due at one boundary; ties fire in plan order.
	rank() int
	// fire applies the event under faultState.mu. first is false when a
	// window event already fired at an earlier boundary.
	fire(f *firing, first bool)
}

// FaultPlan is a deterministic schedule of injected cluster failures,
// attached via Conf.FaultPlan. A point event fires at most once per
// context, when the named stage starts. Stage IDs are the engine's global
// stage counter (see StageEvent.StageID); resubmitted recovery stages reuse
// their original stage's ID, so planned numbering is identical with and
// without faults.
type FaultPlan struct {
	// Seed records the generator seed for reports (informational).
	Seed int64
	// Events are the scheduled failures, of any mix of kinds.
	Events []FaultEvent
}

// Empty reports whether the plan schedules nothing.
func (p *FaultPlan) Empty() bool { return p == nil || len(p.Events) == 0 }

// CountEvents returns how many of the plan's events are of kind T.
func CountEvents[T FaultEvent](p *FaultPlan) (n int) {
	for _, ev := range p.Events {
		if _, ok := ev.(T); ok {
			n++
		}
	}
	return n
}

// validate checks the plan against a cluster size, rack count and whether
// the heartbeat failure detector is on.
func (p *FaultPlan) validate(nodes, racks int, detector bool) error {
	for i, ev := range p.Events {
		if ev == nil {
			return fmt.Errorf("rdd: FaultPlan event %d is nil", i)
		}
		from, _ := ev.span()
		if err := cmp.Or(ev.check(nodes, racks, detector), failIf(from < 0, "names a negative stage")); err != nil {
			return fmt.Errorf("rdd: FaultPlan %T at stage %d %v", ev, from, err)
		}
	}
	return nil
}

// failIf is one condition of an event's check.
func failIf(bad bool, format string, a ...any) error {
	if bad {
		return fmt.Errorf(format, a...)
	}
	return nil
}

func failNode(node, nodes int) error {
	return failIf(node < 0 || node >= nodes, "names node %d outside the %d-node cluster", node, nodes)
}

// failStall covers the two silent-but-alive kinds.
func failStall(dur simtime.Duration, detector bool) error {
	return cmp.Or(failIf(dur <= 0, "has non-positive duration %v", dur),
		failIf(!detector, "needs Conf.HeartbeatInterval > 0 — false suspicion only exists with a heartbeat failure detector"))
}

func (ev ExecutorCrash) check(nodes, _ int, _ bool) error {
	return cmp.Or(failNode(ev.Node, nodes), failIf(ev.Down < 0, "has negative Down %v", ev.Down))
}

func (ev DiskLoss) check(nodes, _ int, _ bool) error { return failNode(ev.Node, nodes) }

func (ev Straggler) check(_, _ int, _ bool) error {
	return cmp.Or(failIf(ev.Factor < 1, "task %d has factor %g < 1", ev.Partition, ev.Factor),
		failIf(ev.Partition < 0, "names negative partition %d", ev.Partition))
}

func (ev Corruption) check(_, _ int, _ bool) error {
	return failIf(ev.Block < 0, "names negative block %d", ev.Block)
}

func (ev RemoteOutage) check(_, _ int, _ bool) error {
	return failIf(ev.Dur <= 0, "has window length %d (Dur must be > 0)", ev.Dur)
}

func (ev RemoteSlow) check(_, _ int, _ bool) error {
	return cmp.Or(failIf(ev.Dur <= 0, "has window length %d (Dur must be > 0)", ev.Dur),
		failIf(ev.Factor <= 1, "has factor %g ≤ 1", ev.Factor))
}

func (ev RemoteCorruption) check(_, _ int, _ bool) error {
	return failIf(ev.Block < 0, "names negative block %d", ev.Block)
}

func (ev GCPause) check(nodes, _ int, detector bool) error {
	return cmp.Or(failNode(ev.Node, nodes), failStall(ev.Dur, detector))
}

func (ev Partition) check(nodes, _ int, detector bool) error {
	err := failIf(len(ev.Nodes) == 0, "isolates no nodes")
	for _, n := range ev.Nodes {
		err = cmp.Or(err, failNode(n, nodes))
	}
	return cmp.Or(err, failStall(ev.Dur, detector))
}

func (ev RackFailure) check(_, racks int, _ bool) error {
	return cmp.Or(failIf(racks <= 1, "needs a cluster with rack topology (cluster.WithRacks)"),
		failIf(ev.Rack < 0 || ev.Rack >= racks, "names rack %d outside the %d-rack cluster", ev.Rack, racks),
		failIf(ev.Down < 0, "has negative Down %v", ev.Down))
}

func (ev ExecutorCrash) span() (int, int)    { return ev.Stage, 0 }
func (ev DiskLoss) span() (int, int)         { return ev.Stage, 0 }
func (ev Straggler) span() (int, int)        { return ev.Stage, 0 }
func (ev Corruption) span() (int, int)       { return ev.Stage, 0 }
func (ev RemoteOutage) span() (int, int)     { return ev.From, ev.Dur }
func (ev RemoteSlow) span() (int, int)       { return ev.From, ev.Dur }
func (ev RemoteCorruption) span() (int, int) { return ev.Stage, 0 }
func (ev GCPause) span() (int, int)          { return ev.From, 0 }
func (ev Partition) span() (int, int)        { return ev.From, 0 }
func (ev RackFailure) span() (int, int)      { return ev.Stage, 0 }

// randStage draws a stage in [1, stages). Stage 0 is skipped so every
// fault hits a run with prior shuffle state to lose (a crash before any
// map output exists recovers trivially).
func randStage(rng *rand.Rand, stages int) int { return 1 + rng.Intn(max(stages, 2)-1) }

// randIndex draws one of n nodes or racks.
func randIndex(rng *rand.Rand, n int) int { return rng.Intn(max(n, 1)) }

// randStall draws a 2–8 modelled-second silence: against typical heartbeat
// settings some stay below the declaration threshold (suspicion only) and
// some cross it (false declaration + zombie fencing).
func randStall(rng *rand.Rand) simtime.Duration {
	return simtime.Duration(2+6*rng.Float64()) * simtime.Second
}

// draw appends n events, each the next ev() yields.
func (p *FaultPlan) draw(n int, ev func() FaultEvent) *FaultPlan {
	for i := 0; i < n; i++ {
		p.Events = append(p.Events, ev())
	}
	return p
}

// RandomFaultPlan draws a seeded schedule of crashes, stragglers and disk
// losses over the first `stages` stages of a run on a `nodes`-node
// cluster. The same seed always yields the same plan, and replaying the
// plan on the same job yields the same recovery trajectory — the chaos
// harness's determinism rests on both.
func RandomFaultPlan(seed int64, stages, nodes, crashes, stragglers, diskLosses int) *FaultPlan {
	rng := rand.New(rand.NewSource(seed))
	return (&FaultPlan{Seed: seed}).
		draw(crashes, func() FaultEvent {
			return ExecutorCrash{Stage: randStage(rng, stages), Node: randIndex(rng, nodes)}
		}).
		draw(stragglers, func() FaultEvent {
			return Straggler{Stage: randStage(rng, stages), Partition: rng.Intn(2 * max(nodes, 1)), Factor: 2 + 4*rng.Float64()}
		}).
		draw(diskLosses, func() FaultEvent {
			return DiskLoss{Stage: randStage(rng, stages), Node: randIndex(rng, nodes)}
		})
}

// ChaosPlan is the chaos harness's standard mix over the first `stages`
// stages, the one `dpspark chaos` and chaos-seeded serve jobs share:
// `crashes` executor crashes with two stragglers and one staging-disk loss
// (drawn only when crashes > 0), `gcPauses` stop-the-world pauses drawn at
// seed+1, and `rackFailures` losses among `racks` fault domains drawn at
// seed+2.
func ChaosPlan(seed int64, stages, nodes, crashes, gcPauses, racks, rackFailures int) *FaultPlan {
	p := &FaultPlan{Seed: seed}
	if crashes > 0 {
		p = RandomFaultPlan(seed, stages, nodes, crashes, 2, 1)
	}
	return p.WithRandomGCPauses(seed+1, stages, nodes, gcPauses).
		WithRandomRackFailures(seed+2, stages, racks, rackFailures)
}

// withRandom returns a copy of the plan with n more events, drawn from a
// fresh generator seeded with seed — so the WithRandom* family chains
// without one call perturbing another's draws (same seed, same events).
func (p *FaultPlan) withRandom(seed int64, n int, ev func(*rand.Rand) FaultEvent) *FaultPlan {
	rng := rand.New(rand.NewSource(seed))
	q := &FaultPlan{Seed: p.Seed, Events: slices.Clone(p.Events)}
	return q.draw(n, func() FaultEvent { return ev(rng) })
}

// WithRandomCorruptions returns a copy of the plan with n seeded
// corruption events appended, drawn over the first `stages` stages.
func (p *FaultPlan) WithRandomCorruptions(seed int64, stages, n int) *FaultPlan {
	return p.withRandom(seed, n, func(rng *rand.Rand) FaultEvent {
		return Corruption{Stage: randStage(rng, stages), Block: rng.Intn(1 << 16), Torn: rng.Intn(2) == 1}
	})
}

// WithRandomGCPauses returns a copy of the plan with n seeded GC-pause
// events appended, drawn over the first `stages` stages.
func (p *FaultPlan) WithRandomGCPauses(seed int64, stages, nodes, n int) *FaultPlan {
	return p.withRandom(seed, n, func(rng *rand.Rand) FaultEvent {
		return GCPause{From: randStage(rng, stages), Node: randIndex(rng, nodes), Dur: randStall(rng)}
	})
}

// WithRandomPartitions returns a copy of the plan with n seeded network
// partitions appended, each isolating one or two executors over the first
// `stages` stages.
func (p *FaultPlan) WithRandomPartitions(seed int64, stages, nodes, n int) *FaultPlan {
	return p.withRandom(seed, n, func(rng *rand.Rand) FaultEvent {
		cut := []int{randIndex(rng, nodes)}
		if b := randIndex(rng, nodes); b != cut[0] {
			cut = append(cut, b)
		}
		return Partition{From: randStage(rng, stages), Nodes: cut, Dur: randStall(rng)}
	})
}

// WithRandomRackFailures returns a copy of the plan with n seeded rack
// failures appended, drawn over the first `stages` stages of a
// `racks`-domain cluster.
func (p *FaultPlan) WithRandomRackFailures(seed int64, stages, racks, n int) *FaultPlan {
	return p.withRandom(seed, n, func(rng *rand.Rand) FaultEvent {
		return RackFailure{Stage: randStage(rng, stages), Rack: randIndex(rng, racks)}
	})
}

// FetchFailedError is a reduce-side fetch hitting an invalidated map
// output — Spark's FetchFailed. It indicts the parent map stage, not the
// reduce task: the scheduler resubmits the map stage for the lost
// partitions and retries the fetch without consuming a task attempt.
type FetchFailedError struct {
	// ShuffleID names the shuffle whose output is gone.
	ShuffleID int
	// MapPart is the lost map partition the fetch wanted.
	MapPart int
	// Node is the executor that staged (and lost) the output.
	Node int
	// Epoch is the shuffle's recovery epoch at failure time; recovery is
	// skipped when another task already recovered past it.
	Epoch int
	// Corrupt marks a durably staged block that failed checksum
	// verification (rather than an output lost with its executor); the
	// indicted map partition is recomputed all the same and its fresh
	// staging overwrites the damaged block.
	Corrupt bool
}

// Error implements error.
func (e *FetchFailedError) Error() string {
	if e.Corrupt {
		return fmt.Sprintf("rdd: fetch failed: shuffle %d map partition %d block corrupt in durable store", e.ShuffleID, e.MapPart)
	}
	return fmt.Sprintf("rdd: fetch failed: shuffle %d map partition %d lost with executor %d", e.ShuffleID, e.MapPart, e.Node)
}

// maxStageAttempts bounds resubmissions of one map stage (Spark's
// spark.stage.maxConsecutiveAttempts).
const maxStageAttempts = 8

// maxTaskAttempts bounds the attempts of one task (Spark's
// spark.task.maxFailures).
const maxTaskAttempts = 4

// defaultBlacklistBackoff is the base executor blacklist duration after a
// crash (spark.blacklist-style timeout, in virtual time).
const defaultBlacklistBackoff = 30 * simtime.Second

// faultState is a context's mutable failure bookkeeping: which plan
// events already fired and the per-executor blacklist. The Conf's plan is
// never mutated, so one plan can drive many contexts.
type faultState struct {
	mu   sync.Mutex
	plan FaultPlan
	// fired[i] is set once plan.Events[i] has fired.
	fired []bool
	// boundary indexes the plan's boundaryEvents in firing order: rank,
	// then plan order.
	boundary []int
	// downUntil[n] is the virtual time node n's blacklist expires;
	// strikes[n] counts its crashes (exponential backoff doubles per
	// strike).
	downUntil []simtime.Duration
	strikes   []int
	// maxStage is the high-water global stage ID seen by fireStageFaults,
	// which window events are evaluated against.
	maxStage int
	// remoteDown is the outage-window state last applied to the store
	// (transition edges count degraded windows).
	remoteDown bool
}

// newFaultState prepares the per-context bookkeeping for a plan.
func newFaultState(p *FaultPlan, nodes int) *faultState {
	if p.Empty() {
		return nil
	}
	fs := &faultState{
		plan:      *p,
		fired:     make([]bool, len(p.Events)),
		downUntil: make([]simtime.Duration, nodes),
		strikes:   make([]int, nodes),
		maxStage:  -1,
	}
	for i, ev := range p.Events {
		if _, ok := ev.(boundaryEvent); ok {
			fs.boundary = append(fs.boundary, i)
		}
	}
	slices.SortStableFunc(fs.boundary, func(a, b int) int {
		return p.Events[a].(boundaryEvent).rank() - p.Events[b].(boundaryEvent).rank()
	})
	return fs
}

// inWindow reports whether the run's high-water stage is in [from, from+n).
func (fs *faultState) inWindow(from, n int) bool {
	return fs.maxStage >= from && fs.maxStage < from+n
}

// firing is one stage boundary's delivery of the due events: the helpers
// the per-kind fire methods share, and what they leave to be applied once
// faultState.mu is released.
type firing struct {
	c     *Context
	stage int
	now   simtime.Duration
	// det is the heartbeat detector's declaration latency: a dead (or
	// silent) executor becomes scheduler-visible heartbeatMisses missed
	// leases after it stops. With the detector off det is 0 and a loss is
	// declared the instant it fires.
	det simtime.Duration
	// declared: some executor was declared dead through the detector.
	declared bool
	// remoteDown: an outage window holds at this boundary.
	remoteDown bool
	// crashed are the nodes that died at this stage.
	crashed map[int]bool
	// lose and zombies are the nodes whose staged outputs go (dead or
	// wiped, falsely declared); racks the failed fault domains; damage the
	// block corruptions.
	lose, zombies, racks []int
	damage               []func()
}

// record puts one event of this boundary in the flight recorder.
func (f *firing) record(typ string, node int, detail string) {
	f.c.recordEvent(obs.Event{
		Clock: f.now.Seconds(), Type: typ,
		Stage: f.stage, Part: -1, Node: node, Shuffle: -1,
		Detail: detail,
	})
}

func (f *firing) fault(node int, detail string) { f.record(obs.EvFault, node, detail) }

// suspect counts and records one detector suspicion.
func (f *firing) suspect(node int, detail string) {
	f.c.count(recSuspicions, 1)
	f.record(obs.EvSuspicion, node, detail)
}

// declareDead applies per-node crash semantics (strike, exponential
// blacklist backoff — overridden by an explicit down — and staged output
// loss) shared by solo crashes and rack failures. The blacklist starts at
// declaration time: detection latency delays it.
func (f *firing) declareDead(node int, down simtime.Duration, why string) {
	fs := f.c.faults
	fs.strikes[node]++
	backoff := defaultBlacklistBackoff
	for s := 1; s < fs.strikes[node] && s < 6; s++ {
		backoff *= 2
	}
	if down <= 0 {
		down = backoff
	}
	fs.downUntil[node] = max(fs.downUntil[node], f.now+f.det+down)
	if f.crashed == nil {
		f.crashed = make(map[int]bool)
	}
	f.crashed[node] = true
	f.lose = append(f.lose, node)
	if f.det > 0 {
		f.declared = true
		f.suspect(node, why)
	}
}

// stall models an alive executor going silent for dur (stop-the-world
// GC, network partition): past one missed lease the scheduler suspects
// it; past the full declaration latency it is falsely declared dead —
// outputs invalidated, node blacklisted until its heartbeats resume,
// and the still-running attempts remembered as zombies whose late
// commits the map-output lease must fence.
func (f *firing) stall(node int, dur simtime.Duration, kind string) {
	if dur < f.c.conf.HeartbeatInterval {
		return // resumes inside one lease: never even suspected
	}
	f.suspect(node, fmt.Sprintf("%s: heartbeats stalled %s", kind, dur))
	if dur < f.det {
		return // recovers before the lease count runs out: suspicion only
	}
	f.declared = true
	f.c.count(recFalseSuspicions, 1)
	fs := f.c.faults
	fs.downUntil[node] = max(fs.downUntil[node], f.now+dur)
	f.zombies = append(f.zombies, node)
}

// Firing order: the remote tier's windows, then executor deaths, then
// silent executors, then lost and damaged data (a block before its replica).
func (RemoteOutage) rank() int     { return 0 }
func (RemoteSlow) rank() int       { return 1 }
func (ExecutorCrash) rank() int    { return 2 }
func (RackFailure) rank() int      { return 3 }
func (GCPause) rank() int          { return 4 }
func (Partition) rank() int        { return 5 }
func (DiskLoss) rank() int         { return 6 }
func (Corruption) rank() int       { return 7 }
func (RemoteCorruption) rank() int { return 8 }

func (ev RemoteOutage) fire(f *firing, _ bool) { f.remoteDown = true }

func (ev RemoteSlow) fire(f *firing, first bool) {
	if first {
		f.c.count(recRemoteSlows, 1)
	}
}

func (ev ExecutorCrash) fire(f *firing, _ bool) {
	f.declareDead(ev.Node, ev.Down, "heartbeats stopped: executor dead")
	f.c.count(recExecCrashes, 1)
	f.fault(ev.Node, "executor-crash")
}

func (ev RackFailure) fire(f *firing, _ bool) {
	members := f.c.conf.Cluster.RackNodes(ev.Rack)
	for _, node := range members {
		f.declareDead(node, ev.Down, fmt.Sprintf("heartbeats stopped with rack %d", ev.Rack))
	}
	f.racks = append(f.racks, ev.Rack)
	f.c.count(recRackFailures, 1)
	f.fault(-1, fmt.Sprintf("rack-failure rack=%d nodes=%d", ev.Rack, len(members)))
}

func (ev GCPause) fire(f *firing, _ bool) {
	f.c.count(recGCPauses, 1)
	f.fault(ev.Node, fmt.Sprintf("gc-pause dur=%s", ev.Dur))
	f.stall(ev.Node, ev.Dur, "gc-pause")
}

func (ev Partition) fire(f *firing, _ bool) {
	f.c.count(recPartitions, 1)
	f.fault(-1, fmt.Sprintf("network-partition nodes=%d dur=%s", len(ev.Nodes), ev.Dur))
	for _, node := range ev.Nodes {
		f.stall(node, ev.Dur, "network-partition")
	}
}

func (ev DiskLoss) fire(f *firing, _ bool) {
	f.lose = append(f.lose, ev.Node)
	f.c.count(recDiskLosses, 1)
	f.fault(ev.Node, "disk-loss")
}

func (ev Corruption) fire(f *firing, _ bool) {
	f.damage = append(f.damage, func() {
		if st := f.c.store; st != nil {
			f.c.damageNewest(ev.Block, st.Keys, func(key string) bool { return st.Corrupt(key, ev.Torn) }, recCorruptions)
		}
	})
}

// Pending replication is flushed first: the victim set must be the full
// deterministic replica set.
func (ev RemoteCorruption) fire(f *firing, _ bool) {
	f.damage = append(f.damage, func() {
		if st := f.c.store; st != nil && st.RemoteAttached() {
			st.FlushReplication()
			f.c.damageNewest(ev.Block, st.RemoteKeys, func(key string) bool { return st.CorruptRemote(key, ev.Torn) }, recRemoteCorrupts)
		}
	})
}

// damageNewest picks a corruption event's victim: among the blocks (or
// replicas) keys lists for the newest shuffle that has any — sorted, and a
// deterministic set, since staging depends only on the data — index block
// modulo the count, which corrupt forces to disk and damages. rec counts a
// victim actually damaged; with nothing staged the event is a no-op.
func (c *Context) damageNewest(block int, keys func(prefix string) []string, corrupt func(key string) bool, rec recKind) {
	c.mu.Lock()
	live := slices.Clone(c.live)
	c.mu.Unlock()
	for i := len(live) - 1; i >= 0; i-- {
		if ks := keys(shufflePrefix(live[i].dep.id)); len(ks) > 0 {
			if corrupt(ks[block%len(ks)]) {
				c.count(rec, 1)
			}
			return
		}
	}
}

// fireStageFaults delivers the plan's events due at this stage boundary:
// point events scheduled for the stage (once each) and the window events
// the run's high-water stage is inside. Dead nodes are blacklisted with
// exponential backoff and lose their staged map outputs, as do wiped disks
// and falsely declared executors. It returns the set of nodes that crashed
// at this stage — their first-attempt tasks die with the executor.
func (c *Context) fireStageFaults(stageID int) map[int]bool {
	fs := c.faults
	if fs == nil {
		return nil
	}
	f := &firing{c: c, stage: stageID, now: c.Clock(), det: heartbeatMisses * c.conf.HeartbeatInterval}
	fs.mu.Lock()
	fs.maxStage = max(fs.maxStage, stageID)
	for _, i := range fs.boundary {
		ev := fs.plan.Events[i].(boundaryEvent)
		from, n := ev.span()
		due := from == stageID && !fs.fired[i]
		if n > 0 {
			due = fs.inWindow(from, n)
		}
		if !due {
			continue
		}
		first := !fs.fired[i]
		fs.fired[i] = true
		ev.fire(f, first)
	}
	remoteWasDown := fs.remoteDown
	fs.remoteDown = f.remoteDown
	fs.mu.Unlock()
	if f.declared && f.det > 0 {
		// Detection latency: the scheduler learns of the losses only after
		// the missed-heartbeat lease runs out, and that wait is modelled
		// time on the critical path — charged once per stage boundary no
		// matter how many executors were declared together (their leases
		// expire in parallel). The charge lands before the stage reads the
		// clock, so placements already see the post-declaration blacklist.
		c.advanceDriver(f.det, simtime.Overhead, obs.PhaseDetection)
	}
	if c.store != nil && c.store.RemoteAttached() {
		if f.remoteDown && !remoteWasDown {
			// Entering an outage window: one degraded-mode episode begins —
			// the replication queue parks and recovery falls back to
			// recompute until the window closes.
			c.count(recDegradedWindows, 1)
			c.count(recRemoteOutages, 1)
			f.fault(-1, "remote-outage-enter")
		}
		c.store.SetRemoteAvailable(!f.remoteDown)
		if !f.remoteDown {
			// While the tier is up, every block staged before this stage
			// boundary is replicated before any of the stage's faults can
			// lose it — this is what makes restore-vs-recompute decisions
			// (and therefore the recovery stats) deterministic. A reopened
			// tier drains the backlog parked during the outage here too.
			c.store.FlushReplication()
		}
		for _, rack := range f.racks {
			// A rack failure burns the rack's share of the remote tier too:
			// replicas placed in the failed domain are gone, so restores of
			// those keys fail over to recompute — domain-aware placement
			// guarantees the surviving copy lives elsewhere.
			if n := c.store.DropRemoteDomain(rack); n > 0 {
				f.fault(-1, fmt.Sprintf("rack-failure rack=%d dropped %d remote replicas", rack, n))
			}
		}
	}
	for _, node := range f.lose {
		c.loseNodeOutputs(node, false)
	}
	for _, node := range f.zombies {
		c.loseNodeOutputs(node, true)
	}
	for _, damage := range f.damage {
		damage()
	}
	return f.crashed
}

// heartbeatMisses is how many consecutive missed heartbeats turn a suspect
// node into a declared-dead one.
const heartbeatMisses = 2

// remoteSlowFactor returns the active remote-slowdown dilation (≥ 1) at
// the run's current high-water stage.
func (c *Context) remoteSlowFactor() float64 {
	fs := c.faults
	if fs == nil {
		return 1
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f := 1.0
	for _, ev := range fs.plan.Events {
		if slow, ok := ev.(RemoteSlow); ok && fs.inWindow(slow.From, slow.Dur) {
			f = max(f, slow.Factor)
		}
	}
	return f
}

// nodeDown reports whether a node is blacklisted at the given time.
func (c *Context) nodeDown(node int, asOf simtime.Duration) bool {
	fs := c.faults
	if fs == nil {
		return false
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return asOf < fs.downUntil[node]
}

// nextAlive returns the first node after from, in ring order, that is not
// blacklisted at asOf nor in rack avoidRack (< 0: any rack); -1 if none.
func (c *Context) nextAlive(from int, asOf simtime.Duration, avoidRack int) int {
	cl := c.conf.Cluster
	for i := 1; i < cl.Nodes; i++ {
		if n := (from + i) % cl.Nodes; !c.nodeDown(n, asOf) && (avoidRack < 0 || cl.RackOf(n) != avoidRack) {
			return n
		}
	}
	return -1
}

// placeNode assigns a task its executor: the partition's home node unless
// that node is blacklisted, in which case the next alive node in ring
// order takes it (deterministic re-placement off a flapping executor).
func (c *Context) placeNode(split int, asOf simtime.Duration) int {
	home := c.nodeOf(split)
	if !c.nodeDown(home, asOf) {
		return home
	}
	n := c.nextAlive(home, asOf, -1)
	if n < 0 {
		return home // every node down: schedule home and let it run
	}
	c.count(recBlacklisted, 1)
	c.recordEvent(obs.Event{
		Clock: asOf.Seconds(), Type: obs.EvBlacklist,
		Stage: -1, Part: split, Node: n, Shuffle: -1,
		Detail: fmt.Sprintf("home node %d blacklisted", home),
	})
	return n
}

// stragglerFactor returns the injected slowdown for a task, or 1, and
// marks the matched events fired. Firing at most once per context matters
// because recovery stages reuse their original stage ID: a recomputed
// lost map partition must not be re-dilated (and re-counted) on every
// resubmission.
func (c *Context) stragglerFactor(stageID, split int) float64 {
	fs := c.faults
	if fs == nil {
		return 1
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	factor := 1.0
	for i, ev := range fs.plan.Events {
		if slow, ok := ev.(Straggler); ok && slow.Stage == stageID && slow.Partition == split && !fs.fired[i] {
			fs.fired[i] = true
			factor = max(factor, slow.Factor)
		}
	}
	return factor
}

// loseNodeOutputs invalidates every live shuffle map output staged on a
// node: matching bucket refs are flagged lost (a later fetch panics with
// FetchFailedError) and their staged bytes are released from the node's
// simulated disk — the data died with the executor/disk. With zombie set
// the node is NOT actually dead (false suspicion): each invalidated part
// additionally remembers the commit lease it was registered under, so
// the recovery merge can detect — and fence — the stale attempt's late
// commit when the resubmission takes a fresh lease.
func (c *Context) loseNodeOutputs(node int, zombie bool) {
	c.mu.Lock()
	live := slices.Clone(c.live)
	c.mu.Unlock()
	for _, st := range live {
		c.loseOutputsOf(st, node, zombie)
	}
}

// loseOutputsOf is loseNodeOutputs for one shuffle.
func (c *Context) loseOutputsOf(st *shuffleState, node int, zombie bool) {
	var lostBytes int64
	st.mu.Lock()
	if st.done && !st.retired {
		for p, n := range st.mapNode {
			if n != node || st.refsByMap[p] == 0 || st.lost[p] {
				continue
			}
			if st.lost == nil {
				st.lost = make(map[int]bool)
			}
			st.lost[p] = true
			lostBytes += st.spillByMap[p]
			if zombie {
				if st.zombieParts == nil {
					st.zombieParts = make(map[int]int)
				}
				st.zombieParts[p] = st.commitLease
			}
		}
		st.spillByNode[node] -= lostBytes
	}
	st.mu.Unlock()
	if lostBytes > 0 {
		c.simul.ReleaseShuffle(node, lostBytes)
	}
}

// recKind indexes the recovery ledger: one row per thing the failure path
// counts. A site counts with c.count(kind, n) and nothing else.
type recKind int

const (
	recTaskRetries recKind = iota
	recFetchFailures
	recStageResubmits
	recRecomputedParts
	recSpecLaunched
	recSpecWins
	recBlacklisted
	recExecCrashes
	recDiskLosses
	recStragglers
	recCorruptions
	recRestoredBlocks
	recRecomputedBlocks
	recRemoteRetries
	recDegradedWindows
	recRemoteCorrupts
	recSuspicions
	recFalseSuspicions
	recFencedCommits
	recRackFailures
	// Fired plan events that only the injection family reports.
	recRemoteOutages
	recRemoteSlows
	recGCPauses
	recPartitions
	numRecKinds
)

// ledgerRows says where each kind shows: its metric family (inject names
// the kind label of dpspark_fault_injections_total instead) and its
// RecoveryStats field (nil for the injection-only kinds).
var ledgerRows = [numRecKinds]struct {
	metric, inject string
	field          func(*RecoveryStats) *int64
}{
	recTaskRetries:     {metric: "dpspark_task_retries_total", field: func(s *RecoveryStats) *int64 { return &s.TaskRetries }},
	recFetchFailures:   {metric: "dpspark_fetch_failures_total", field: func(s *RecoveryStats) *int64 { return &s.FetchFailures }},
	recStageResubmits:  {metric: "dpspark_stage_resubmits_total", field: func(s *RecoveryStats) *int64 { return &s.StageResubmits }},
	recRecomputedParts: {metric: "dpspark_recomputed_map_partitions_total", field: func(s *RecoveryStats) *int64 { return &s.RecomputedMapPartitions }},
	recSpecLaunched:    {metric: "dpspark_speculative_tasks_total", field: func(s *RecoveryStats) *int64 { return &s.SpeculativeTasks }},
	recSpecWins:        {metric: "dpspark_speculation_wins_total", field: func(s *RecoveryStats) *int64 { return &s.SpeculationWins }},
	recBlacklisted:     {metric: "dpspark_blacklist_placements_total", field: func(s *RecoveryStats) *int64 { return &s.BlacklistPlacements }},
	recExecCrashes:     {inject: "executor-crash", field: func(s *RecoveryStats) *int64 { return &s.ExecutorCrashes }},
	recDiskLosses:      {inject: "disk-loss", field: func(s *RecoveryStats) *int64 { return &s.DiskLosses }},
	recStragglers:      {inject: "straggler", field: func(s *RecoveryStats) *int64 { return &s.Stragglers }},
	recCorruptions:     {inject: "corruption", field: func(s *RecoveryStats) *int64 { return &s.Corruptions }},
	// dpspark_remote_restored_blocks_total belongs to the store's
	// RestoreFromRemote, which counts it; a series here would double it.
	recRestoredBlocks:   {field: func(s *RecoveryStats) *int64 { return &s.RestoredBlocks }},
	recRecomputedBlocks: {metric: "dpspark_remote_recomputed_blocks_total", field: func(s *RecoveryStats) *int64 { return &s.RecomputedBlocks }},
	recRemoteRetries:    {metric: "dpspark_remote_retries_total", field: func(s *RecoveryStats) *int64 { return &s.RemoteRetries }},
	recDegradedWindows:  {metric: "dpspark_remote_degraded_windows_total", field: func(s *RecoveryStats) *int64 { return &s.DegradedWindows }},
	recRemoteCorrupts:   {inject: "remote-corruption", field: func(s *RecoveryStats) *int64 { return &s.RemoteCorruptions }},
	recSuspicions:       {metric: "dpspark_detector_suspicions_total", field: func(s *RecoveryStats) *int64 { return &s.Suspicions }},
	recFalseSuspicions:  {metric: "dpspark_detector_false_suspicions_total", field: func(s *RecoveryStats) *int64 { return &s.FalseSuspicions }},
	recFencedCommits:    {metric: "dpspark_detector_fenced_commits_total", field: func(s *RecoveryStats) *int64 { return &s.FencedCommits }},
	recRackFailures:     {inject: "rack-failure", field: func(s *RecoveryStats) *int64 { return &s.RackFailures }},
	recRemoteOutages:    {inject: "remote-outage"},
	recRemoteSlows:      {inject: "remote-slow"},
	recGCPauses:         {inject: "gc-pause"},
	recPartitions:       {inject: "network-partition"},
}

// ledger is a context's recovery accounting: per kind, the count that
// RecoveryStats reads and the registry series that mirrors it (resolved
// once, in NewContext; nil where the kind has none).
type ledger struct {
	n      [numRecKinds]atomic.Int64
	series [numRecKinds]*obs.Counter
}

// resolve binds the ledger's series to a registry.
func (l *ledger) resolve(reg *obs.Registry) {
	for k, row := range ledgerRows {
		switch {
		case row.inject != "":
			l.series[k] = reg.Counter("dpspark_fault_injections_total", obs.Labels{"kind": row.inject})
		case row.metric != "":
			l.series[k] = reg.Counter(row.metric, nil)
		}
	}
}

// count adds n to one ledger row — the only way the engine counts a
// recovery event (tasks call it concurrently).
func (c *Context) count(k recKind, n int64) {
	c.ledger.n[k].Add(n)
	if s := c.ledger.series[k]; s != nil {
		s.Add(n)
	}
}

// RecoveryStats is a snapshot of the context's failure/recovery counters.
type RecoveryStats struct {
	// TaskRetries counts task attempts beyond the first (panics and
	// executor-loss kills).
	TaskRetries int64
	// FetchFailures counts recovery rounds: lost or corrupt map outputs a
	// reduce-side fetch hit, once however many concurrent tasks saw them.
	FetchFailures int64
	// StageResubmits counts map-stage resubmissions triggered by fetch
	// failures.
	StageResubmits int64
	// RecomputedMapPartitions counts map partitions recomputed by
	// resubmitted stages (only the lost ones — never the full stage).
	RecomputedMapPartitions int64
	// SpeculativeTasks and SpeculationWins count speculative copies
	// launched and copies that beat the original.
	SpeculativeTasks, SpeculationWins int64
	// BlacklistPlacements counts task attempts (and restored map outputs)
	// placed off their home node because it was blacklisted.
	BlacklistPlacements int64
	// ExecutorCrashes, DiskLosses and Stragglers count fired plan events.
	ExecutorCrashes, DiskLosses, Stragglers int64
	// Corruptions counts fired plan corruption events that actually
	// damaged a staged block (a corruption with nothing staged is a no-op
	// and not counted).
	Corruptions int64
	// RestoredBlocks counts staged shuffle blocks recovery repaired from
	// intact remote replicas instead of recomputing their map partition.
	RestoredBlocks int64
	// RecomputedBlocks counts staged blocks recovery had to rebuild via
	// the partial map-recompute fallback (replica missing, corrupt, the
	// tier down, or the restore retries exhausted).
	RecomputedBlocks int64
	// RemoteRetries counts remote restore reads retried after a simulated
	// timeout (exponential backoff; see remoteOpTimeout).
	RemoteRetries int64
	// DegradedWindows counts entries into degraded (recompute-only) mode
	// — one per remote-outage window the run passed through.
	DegradedWindows int64
	// RemoteCorruptions counts fired plan remote-corruption events that
	// actually damaged a replica.
	RemoteCorruptions int64
	// Suspicions counts executors the heartbeat detector suspected after a
	// missed lease (0 with the detector off: at latency 0 a loss is
	// declared the instant it fires, nothing is ever merely suspected).
	Suspicions int64
	// FalseSuspicions counts alive-but-silent executors (GC pause, network
	// partition) the detector falsely declared dead.
	FalseSuspicions int64
	// FencedCommits counts stale (zombie) map-output commits rejected by
	// the attempt-epoch commit lease after a false declaration.
	FencedCommits int64
	// RackFailures counts fired rack-failure events (each kills a whole
	// fault domain; the per-node losses are not double-counted as
	// ExecutorCrashes).
	RackFailures int64
}

// RecoveryStats returns the context's failure/recovery counters so far.
func (c *Context) RecoveryStats() RecoveryStats {
	var s RecoveryStats
	for k, row := range ledgerRows {
		if row.field != nil {
			*row.field(&s) = c.ledger.n[k].Load()
		}
	}
	return s
}
