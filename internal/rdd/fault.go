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

// FaultEvent is one scheduled failure: the five event structs above are its
// implementations (the methods are unexported, so the set is closed).
type FaultEvent interface {
	// stage is the global stage ID at whose start the event fires, once.
	stage() int
	// check reports what is wrong with the event on a cluster of `nodes`
	// executors, with or without a heartbeat failure detector; validate
	// prefixes the event's type and stage.
	check(nodes int, detector bool) error
}

// boundaryEvent is a FaultEvent delivered at stage boundaries — all but
// Straggler, which dilates one task (see stragglerFactor).
type boundaryEvent interface {
	FaultEvent
	// rank orders the kinds due at one boundary; ties fire in plan order.
	rank() int
	// fire applies the event under faultState.mu.
	fire(f *firing)
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

// validate checks the plan against a cluster size and whether the
// heartbeat failure detector is on.
func (p *FaultPlan) validate(nodes int, detector bool) error {
	for i, ev := range p.Events {
		if ev == nil {
			return fmt.Errorf("rdd: FaultPlan event %d is nil", i)
		}
		if err := cmp.Or(ev.check(nodes, detector), failIf(ev.stage() < 0, "names a negative stage")); err != nil {
			return fmt.Errorf("rdd: FaultPlan %T at stage %d %v", ev, ev.stage(), err)
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

func (ev ExecutorCrash) check(nodes int, _ bool) error {
	return cmp.Or(failNode(ev.Node, nodes), failIf(ev.Down < 0, "has negative Down %v", ev.Down))
}

func (ev DiskLoss) check(nodes int, _ bool) error { return failNode(ev.Node, nodes) }

func (ev Straggler) check(_ int, _ bool) error {
	return cmp.Or(failIf(ev.Factor < 1, "task %d has factor %g < 1", ev.Partition, ev.Factor),
		failIf(ev.Partition < 0, "names negative partition %d", ev.Partition))
}

func (ev Corruption) check(_ int, _ bool) error {
	return failIf(ev.Block < 0, "names negative block %d", ev.Block)
}

func (ev GCPause) check(nodes int, detector bool) error {
	return cmp.Or(failNode(ev.Node, nodes), failIf(ev.Dur <= 0, "has non-positive duration %v", ev.Dur),
		failIf(!detector, "needs Conf.HeartbeatInterval > 0 — false suspicion only exists with a heartbeat failure detector"))
}

func (ev ExecutorCrash) stage() int { return ev.Stage }
func (ev DiskLoss) stage() int      { return ev.Stage }
func (ev Straggler) stage() int     { return ev.Stage }
func (ev Corruption) stage() int    { return ev.Stage }
func (ev GCPause) stage() int       { return ev.From }

// randStage draws a stage in [1, stages). Stage 0 is skipped so every
// fault hits a run with prior shuffle state to lose (a crash before any
// map output exists recovers trivially).
func randStage(rng *rand.Rand, stages int) int { return 1 + rng.Intn(max(stages, 2)-1) }

// randIndex draws one of n nodes.
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
// (drawn only when crashes > 0) and `gcPauses` stop-the-world pauses drawn
// at seed+1.
func ChaosPlan(seed int64, stages, nodes, crashes, gcPauses int) *FaultPlan {
	p := &FaultPlan{Seed: seed}
	if crashes > 0 {
		p = RandomFaultPlan(seed, stages, nodes, crashes, 2, 1)
	}
	return p.WithRandomGCPauses(seed+1, stages, nodes, gcPauses)
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
	// crashed are the nodes that died at this stage.
	crashed map[int]bool
	// lose and zombies are the nodes whose staged outputs go (dead or
	// wiped, falsely declared); damage the block corruptions.
	lose, zombies []int
	damage        []func()
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

// Firing order: executor deaths, then silent executors, then lost and
// damaged data.
func (ExecutorCrash) rank() int { return 0 }
func (GCPause) rank() int       { return 1 }
func (DiskLoss) rank() int      { return 2 }
func (Corruption) rank() int    { return 3 }

// A crash strikes the node (exponential blacklist backoff, overridden by
// an explicit Down) and loses its staged outputs. The blacklist starts at
// declaration time: detection latency delays it.
func (ev ExecutorCrash) fire(f *firing) {
	fs := f.c.faults
	fs.strikes[ev.Node]++
	down := defaultBlacklistBackoff
	for s := 1; s < fs.strikes[ev.Node] && s < 6; s++ {
		down *= 2
	}
	if ev.Down > 0 {
		down = ev.Down
	}
	fs.downUntil[ev.Node] = max(fs.downUntil[ev.Node], f.now+f.det+down)
	if f.crashed == nil {
		f.crashed = make(map[int]bool)
	}
	f.crashed[ev.Node] = true
	f.lose = append(f.lose, ev.Node)
	if f.det > 0 {
		f.declared = true
		f.suspect(ev.Node, "heartbeats stopped: executor dead")
	}
	f.c.count(recExecCrashes, 1)
	f.fault(ev.Node, "executor-crash")
}

// A paused executor is alive but silent: past one missed lease the
// scheduler suspects it; past the full declaration latency it is falsely
// declared dead — outputs invalidated, node blacklisted until its
// heartbeats resume, and the still-running attempts remembered as zombies
// whose late commits the map-output lease must fence.
func (ev GCPause) fire(f *firing) {
	f.c.count(recGCPauses, 1)
	f.fault(ev.Node, fmt.Sprintf("gc-pause dur=%s", ev.Dur))
	if ev.Dur < f.c.conf.HeartbeatInterval {
		return // resumes inside one lease: never even suspected
	}
	f.suspect(ev.Node, fmt.Sprintf("gc-pause: heartbeats stalled %s", ev.Dur))
	if ev.Dur < f.det {
		return // recovers before the lease count runs out: suspicion only
	}
	f.declared = true
	f.c.count(recFalseSuspicions, 1)
	fs := f.c.faults
	fs.downUntil[ev.Node] = max(fs.downUntil[ev.Node], f.now+ev.Dur)
	f.zombies = append(f.zombies, ev.Node)
}

func (ev DiskLoss) fire(f *firing) {
	f.lose = append(f.lose, ev.Node)
	f.c.count(recDiskLosses, 1)
	f.fault(ev.Node, "disk-loss")
}

// The victim: among the staged blocks of the newest shuffle that has any —
// sorted, and a deterministic set, since staging depends only on the data
// — index Block modulo the count, which Store.Corrupt forces to disk and
// damages. Only a victim actually damaged is counted; with nothing staged
// the event is a no-op.
func (ev Corruption) fire(f *firing) {
	f.damage = append(f.damage, func() {
		c, st := f.c, f.c.store
		if st == nil {
			return
		}
		c.mu.Lock()
		live := slices.Clone(c.live)
		c.mu.Unlock()
		for i := len(live) - 1; i >= 0; i-- {
			if ks := st.Keys(shufflePrefix(live[i].dep.id)); len(ks) > 0 {
				if st.Corrupt(ks[ev.Block%len(ks)], ev.Torn) {
					c.count(recCorruptions, 1)
				}
				return
			}
		}
	})
}

// fireStageFaults delivers the plan's events scheduled for this stage
// boundary, once each, in rank order. Dead nodes are blacklisted with
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
	for _, i := range fs.boundary {
		ev := fs.plan.Events[i].(boundaryEvent)
		if ev.stage() != stageID || fs.fired[i] {
			continue
		}
		fs.fired[i] = true
		ev.fire(f)
	}
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
// blacklisted at asOf; -1 if none.
func (c *Context) nextAlive(from int, asOf simtime.Duration) int {
	nodes := c.conf.Cluster.Nodes
	for i := 1; i < nodes; i++ {
		if n := (from + i) % nodes; !c.nodeDown(n, asOf) {
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
	n := c.nextAlive(home, asOf)
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
	recSuspicions
	recFalseSuspicions
	recFencedCommits
	// Fired plan events that only the injection family reports.
	recGCPauses
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
	recSuspicions:      {metric: "dpspark_detector_suspicions_total", field: func(s *RecoveryStats) *int64 { return &s.Suspicions }},
	recFalseSuspicions: {metric: "dpspark_detector_false_suspicions_total", field: func(s *RecoveryStats) *int64 { return &s.FalseSuspicions }},
	recFencedCommits:   {metric: "dpspark_detector_fenced_commits_total", field: func(s *RecoveryStats) *int64 { return &s.FencedCommits }},
	recGCPauses:        {inject: "gc-pause"},
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
	// BlacklistPlacements counts task attempts placed off their home node
	// because it was blacklisted.
	BlacklistPlacements int64
	// ExecutorCrashes, DiskLosses and Stragglers count fired plan events.
	ExecutorCrashes, DiskLosses, Stragglers int64
	// Corruptions counts fired plan corruption events that actually
	// damaged a staged block (a corruption with nothing staged is a no-op
	// and not counted).
	Corruptions int64
	// Suspicions counts executors the heartbeat detector suspected after a
	// missed lease (0 with the detector off: at latency 0 a loss is
	// declared the instant it fires, nothing is ever merely suspected).
	Suspicions int64
	// FalseSuspicions counts paused executors (GCPause: alive but silent)
	// the detector falsely declared dead.
	FalseSuspicions int64
	// FencedCommits counts stale (zombie) map-output commits rejected by
	// the attempt-epoch commit lease after a false declaration.
	FencedCommits int64
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
