package rdd

import (
	"fmt"
	"math/rand"
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
	// context's exponential backoff (Conf.BlacklistBackoff doubling per
	// repeated crash of the same node).
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
// WITHOUT dying — its staged outputs and cached data survive. With a
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

// FaultPlan is a deterministic schedule of injected cluster failures,
// attached via Conf.FaultPlan. Each event fires at most once per context,
// when the named stage starts. Stage IDs are the engine's global stage
// counter (see StageEvent.StageID); resubmitted recovery stages reuse
// their original stage's ID, so planned numbering is identical with and
// without faults.
type FaultPlan struct {
	// Seed records the generator seed for reports (informational).
	Seed int64
	// Crashes are the scheduled executor losses.
	Crashes []ExecutorCrash
	// DiskLosses are the scheduled staging-disk wipes.
	DiskLosses []DiskLoss
	// Stragglers are the scheduled slow tasks.
	Stragglers []Straggler
	// Corruptions are the scheduled durable-block damages.
	Corruptions []Corruption
	// RemoteOutages are the scheduled remote-tier unavailability windows.
	RemoteOutages []RemoteOutage
	// RemoteSlows are the scheduled remote-tier slowdown windows.
	RemoteSlows []RemoteSlow
	// RemoteCorruptions are the scheduled remote-replica damages.
	RemoteCorruptions []RemoteCorruption
	// GCPauses are the scheduled stop-the-world executor pauses
	// (heartbeat stalls without death — false-suspicion fodder).
	GCPauses []GCPause
	// Partitions are the scheduled network partitions.
	Partitions []Partition
	// RackFailures are the scheduled correlated fault-domain losses.
	RackFailures []RackFailure
}

// Empty reports whether the plan schedules nothing.
func (p *FaultPlan) Empty() bool {
	return p == nil || len(p.Crashes)+len(p.DiskLosses)+len(p.Stragglers)+len(p.Corruptions)+
		len(p.RemoteOutages)+len(p.RemoteSlows)+len(p.RemoteCorruptions)+
		len(p.GCPauses)+len(p.Partitions)+len(p.RackFailures) == 0
}

// validate checks the plan against a cluster size and rack count.
func (p *FaultPlan) validate(nodes, racks int) error {
	for _, ev := range p.Crashes {
		if ev.Node < 0 || ev.Node >= nodes {
			return fmt.Errorf("rdd: FaultPlan crash at stage %d names node %d outside the %d-node cluster", ev.Stage, ev.Node, nodes)
		}
		if ev.Stage < 0 {
			return fmt.Errorf("rdd: FaultPlan crash names negative stage %d", ev.Stage)
		}
		if ev.Down < 0 {
			return fmt.Errorf("rdd: FaultPlan crash at stage %d has negative Down %v", ev.Stage, ev.Down)
		}
	}
	for _, ev := range p.DiskLosses {
		if ev.Node < 0 || ev.Node >= nodes {
			return fmt.Errorf("rdd: FaultPlan disk loss at stage %d names node %d outside the %d-node cluster", ev.Stage, ev.Node, nodes)
		}
		if ev.Stage < 0 {
			return fmt.Errorf("rdd: FaultPlan disk loss names negative stage %d", ev.Stage)
		}
	}
	for _, ev := range p.Stragglers {
		if ev.Factor < 1 {
			return fmt.Errorf("rdd: FaultPlan straggler at stage %d task %d has factor %g < 1", ev.Stage, ev.Partition, ev.Factor)
		}
		if ev.Stage < 0 || ev.Partition < 0 {
			return fmt.Errorf("rdd: FaultPlan straggler names negative stage %d / partition %d", ev.Stage, ev.Partition)
		}
	}
	for _, ev := range p.Corruptions {
		if ev.Stage < 0 || ev.Block < 0 {
			return fmt.Errorf("rdd: FaultPlan corruption names negative stage %d / block %d", ev.Stage, ev.Block)
		}
	}
	for _, ev := range p.RemoteOutages {
		if ev.From < 0 || ev.Dur <= 0 {
			return fmt.Errorf("rdd: FaultPlan remote outage window [%d, %d+%d) is invalid (From ≥ 0, Dur > 0)", ev.From, ev.From, ev.Dur)
		}
	}
	for _, ev := range p.RemoteSlows {
		if ev.From < 0 || ev.Dur <= 0 {
			return fmt.Errorf("rdd: FaultPlan remote slowdown window [%d, %d+%d) is invalid (From ≥ 0, Dur > 0)", ev.From, ev.From, ev.Dur)
		}
		if ev.Factor <= 1 {
			return fmt.Errorf("rdd: FaultPlan remote slowdown at stage %d has factor %g ≤ 1", ev.From, ev.Factor)
		}
	}
	for _, ev := range p.RemoteCorruptions {
		if ev.Stage < 0 || ev.Block < 0 {
			return fmt.Errorf("rdd: FaultPlan remote corruption names negative stage %d / block %d", ev.Stage, ev.Block)
		}
	}
	for _, ev := range p.GCPauses {
		if ev.Node < 0 || ev.Node >= nodes {
			return fmt.Errorf("rdd: FaultPlan GC pause at stage %d names node %d outside the %d-node cluster", ev.From, ev.Node, nodes)
		}
		if ev.From < 0 {
			return fmt.Errorf("rdd: FaultPlan GC pause names negative stage %d", ev.From)
		}
		if ev.Dur <= 0 {
			return fmt.Errorf("rdd: FaultPlan GC pause at stage %d has non-positive duration %v", ev.From, ev.Dur)
		}
	}
	for _, ev := range p.Partitions {
		if len(ev.Nodes) == 0 {
			return fmt.Errorf("rdd: FaultPlan network partition at stage %d isolates no nodes", ev.From)
		}
		for _, n := range ev.Nodes {
			if n < 0 || n >= nodes {
				return fmt.Errorf("rdd: FaultPlan network partition at stage %d names node %d outside the %d-node cluster", ev.From, n, nodes)
			}
		}
		if ev.From < 0 {
			return fmt.Errorf("rdd: FaultPlan network partition names negative stage %d", ev.From)
		}
		if ev.Dur <= 0 {
			return fmt.Errorf("rdd: FaultPlan network partition at stage %d has non-positive duration %v", ev.From, ev.Dur)
		}
	}
	for _, ev := range p.RackFailures {
		if racks <= 1 {
			return fmt.Errorf("rdd: FaultPlan rack failure at stage %d needs a cluster with rack topology (cluster.WithRacks)", ev.Stage)
		}
		if ev.Rack < 0 || ev.Rack >= racks {
			return fmt.Errorf("rdd: FaultPlan rack failure at stage %d names rack %d outside the %d-rack cluster", ev.Stage, ev.Rack, racks)
		}
		if ev.Stage < 0 {
			return fmt.Errorf("rdd: FaultPlan rack failure names negative stage %d", ev.Stage)
		}
		if ev.Down < 0 {
			return fmt.Errorf("rdd: FaultPlan rack failure at stage %d has negative Down %v", ev.Stage, ev.Down)
		}
	}
	return nil
}

// RandomFaultPlan draws a seeded schedule of crashes, stragglers and disk
// losses over the first `stages` stages of a run on a `nodes`-node
// cluster. The same seed always yields the same plan, and replaying the
// plan on the same job yields the same recovery trajectory — the chaos
// harness's determinism rests on both.
func RandomFaultPlan(seed int64, stages, nodes, crashes, stragglers, diskLosses int) *FaultPlan {
	if stages < 2 {
		stages = 2
	}
	if nodes < 1 {
		nodes = 1
	}
	rng := rand.New(rand.NewSource(seed))
	p := &FaultPlan{Seed: seed}
	// Skip stage 0 so every fault hits a run with prior shuffle state to
	// lose (a crash before any map output exists recovers trivially).
	for i := 0; i < crashes; i++ {
		p.Crashes = append(p.Crashes, ExecutorCrash{
			Stage: 1 + rng.Intn(stages-1),
			Node:  rng.Intn(nodes),
		})
	}
	for i := 0; i < stragglers; i++ {
		p.Stragglers = append(p.Stragglers, Straggler{
			Stage:     1 + rng.Intn(stages-1),
			Partition: rng.Intn(nodes * 2),
			Factor:    2 + 4*rng.Float64(),
		})
	}
	for i := 0; i < diskLosses; i++ {
		p.DiskLosses = append(p.DiskLosses, DiskLoss{
			Stage: 1 + rng.Intn(stages-1),
			Node:  rng.Intn(nodes),
		})
	}
	return p
}

// WithRandomCorruptions returns a copy of the plan with n seeded
// corruption events appended, drawn over the first `stages` stages —
// the corruption analogue of RandomFaultPlan (same seed, same events).
func (p *FaultPlan) WithRandomCorruptions(seed int64, stages, n int) *FaultPlan {
	if stages < 2 {
		stages = 2
	}
	rng := rand.New(rand.NewSource(seed))
	q := *p
	q.Corruptions = append([]Corruption(nil), p.Corruptions...)
	for i := 0; i < n; i++ {
		q.Corruptions = append(q.Corruptions, Corruption{
			Stage: 1 + rng.Intn(stages-1),
			Block: rng.Intn(1 << 16),
			Torn:  rng.Intn(2) == 1,
		})
	}
	return &q
}

// WithRandomGCPauses returns a copy of the plan with n seeded GC-pause
// events appended, drawn over the first `stages` stages. Pause durations
// span 2–8 modelled seconds, so against typical heartbeat settings some
// pauses stay below the declaration threshold (suspicion only) and some
// cross it (false declaration + zombie fencing). Fresh generator, same
// chaining contract as WithRandomCorruptions.
func (p *FaultPlan) WithRandomGCPauses(seed int64, stages, nodes, n int) *FaultPlan {
	if stages < 2 {
		stages = 2
	}
	if nodes < 1 {
		nodes = 1
	}
	rng := rand.New(rand.NewSource(seed))
	q := *p
	q.GCPauses = append([]GCPause(nil), p.GCPauses...)
	for i := 0; i < n; i++ {
		q.GCPauses = append(q.GCPauses, GCPause{
			From: 1 + rng.Intn(stages-1),
			Node: rng.Intn(nodes),
			Dur:  simtime.Duration(2+6*rng.Float64()) * simtime.Second,
		})
	}
	return &q
}

// WithRandomPartitions returns a copy of the plan with n seeded network
// partitions appended, each isolating one or two executors for 2–8
// modelled seconds over the first `stages` stages.
func (p *FaultPlan) WithRandomPartitions(seed int64, stages, nodes, n int) *FaultPlan {
	if stages < 2 {
		stages = 2
	}
	if nodes < 1 {
		nodes = 1
	}
	rng := rand.New(rand.NewSource(seed))
	q := *p
	q.Partitions = append([]Partition(nil), p.Partitions...)
	for i := 0; i < n; i++ {
		a, b := rng.Intn(nodes), rng.Intn(nodes)
		cut := []int{a}
		if b != a {
			cut = append(cut, b)
		}
		q.Partitions = append(q.Partitions, Partition{
			From:  1 + rng.Intn(stages-1),
			Nodes: cut,
			Dur:   simtime.Duration(2+6*rng.Float64()) * simtime.Second,
		})
	}
	return &q
}

// WithRandomRackFailures returns a copy of the plan with n seeded rack
// failures appended, drawn over the first `stages` stages of a
// `racks`-domain cluster.
func (p *FaultPlan) WithRandomRackFailures(seed int64, stages, racks, n int) *FaultPlan {
	if stages < 2 {
		stages = 2
	}
	if racks < 1 {
		racks = 1
	}
	rng := rand.New(rand.NewSource(seed))
	q := *p
	q.RackFailures = append([]RackFailure(nil), p.RackFailures...)
	for i := 0; i < n; i++ {
		q.RackFailures = append(q.RackFailures, RackFailure{
			Stage: 1 + rng.Intn(stages-1),
			Rack:  rng.Intn(racks),
		})
	}
	return &q
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

// defaultBlacklistBackoff is the base executor blacklist duration after a
// crash (spark.blacklist-style timeout, in virtual time).
const defaultBlacklistBackoff = 30 * simtime.Second

// faultState is a context's mutable failure bookkeeping: which plan
// events already fired and the per-executor blacklist. The Conf's plan is
// never mutated, so one plan can drive many contexts.
type faultState struct {
	mu                 sync.Mutex
	plan               FaultPlan
	crashFired         []bool
	diskFired          []bool
	stragFired         []bool
	corruptFired       []bool
	slowFired          []bool
	remoteCorruptFired []bool
	gcFired            []bool
	partFired          []bool
	rackFired          []bool
	// downUntil[n] is the virtual time node n's blacklist expires;
	// strikes[n] counts its crashes (exponential backoff doubles per
	// strike).
	downUntil []simtime.Duration
	strikes   []int
	// maxStage is the high-water global stage ID seen by fireStageFaults;
	// remote windows are evaluated against it, so resubmitted recovery
	// stages (which reuse old IDs) can never re-open a closed window.
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
	return &faultState{
		plan:               *p,
		crashFired:         make([]bool, len(p.Crashes)),
		diskFired:          make([]bool, len(p.DiskLosses)),
		stragFired:         make([]bool, len(p.Stragglers)),
		corruptFired:       make([]bool, len(p.Corruptions)),
		slowFired:          make([]bool, len(p.RemoteSlows)),
		remoteCorruptFired: make([]bool, len(p.RemoteCorruptions)),
		gcFired:            make([]bool, len(p.GCPauses)),
		partFired:          make([]bool, len(p.Partitions)),
		rackFired:          make([]bool, len(p.RackFailures)),
		downUntil:          make([]simtime.Duration, nodes),
		strikes:            make([]int, nodes),
		maxStage:           -1,
	}
}

// fireStageFaults fires the plan's crash and disk-loss events scheduled
// for this stage (once each): crashed nodes are blacklisted with
// exponential backoff and both event kinds invalidate the node's staged
// map outputs. It returns the set of nodes that crashed at this stage —
// their first-attempt tasks die with the executor.
func (c *Context) fireStageFaults(stageID int) map[int]bool {
	fs := c.faults
	if fs == nil {
		return nil
	}
	now := c.Clock()
	fs.mu.Lock()
	// Remote-tier windows are driven by the high-water stage ID: update
	// it, re-evaluate the outage state, and note (once) any slowdown
	// window this stage enters.
	if stageID > fs.maxStage {
		fs.maxStage = stageID
	}
	remoteWasDown := fs.remoteDown
	remoteDown := false
	for _, ev := range fs.plan.RemoteOutages {
		if fs.maxStage >= ev.From && fs.maxStage < ev.From+ev.Dur {
			remoteDown = true
			break
		}
	}
	fs.remoteDown = remoteDown
	for i := range fs.plan.RemoteSlows {
		ev := &fs.plan.RemoteSlows[i]
		if !fs.slowFired[i] && fs.maxStage >= ev.From && fs.maxStage < ev.From+ev.Dur {
			fs.slowFired[i] = true
			c.count(recRemoteSlows, 1)
		}
	}
	var toCorruptRemote []RemoteCorruption
	for i := range fs.plan.RemoteCorruptions {
		ev := &fs.plan.RemoteCorruptions[i]
		if ev.Stage != stageID || fs.remoteCorruptFired[i] {
			continue
		}
		fs.remoteCorruptFired[i] = true
		toCorruptRemote = append(toCorruptRemote, *ev)
	}
	// det is the heartbeat detector's declaration latency: a dead (or
	// silent) executor becomes scheduler-visible heartbeatMisses missed
	// leases after it stops. With the detector off det is 0 and the same
	// delivery below declares a loss the instant it fires.
	det := heartbeatMisses * c.conf.HeartbeatInterval
	declared := false
	suspect := func(node int, detail string) {
		c.count(recSuspicions, 1)
		c.recordEvent(obs.Event{
			Clock: now.Seconds(), Type: obs.EvSuspicion,
			Stage: stageID, Part: -1, Node: node, Shuffle: -1,
			Detail: detail,
		})
	}
	var crashed map[int]bool
	var toLose, toZombie, failedRacks []int
	// declareDead applies per-node crash semantics (strike, exponential
	// blacklist backoff — overridden by an explicit down — and staged
	// output loss) shared by solo crashes and rack failures. The blacklist
	// starts at declaration time: detection latency delays it.
	declareDead := func(node int, down simtime.Duration) {
		fs.strikes[node]++
		backoff := c.conf.BlacklistBackoff
		for s := 1; s < fs.strikes[node] && s < 6; s++ {
			backoff *= 2
		}
		if down <= 0 {
			down = backoff
		}
		if until := now + det + down; until > fs.downUntil[node] {
			fs.downUntil[node] = until
		}
		if crashed == nil {
			crashed = make(map[int]bool)
		}
		crashed[node] = true
		toLose = append(toLose, node)
	}
	for i := range fs.plan.Crashes {
		ev := &fs.plan.Crashes[i]
		if ev.Stage != stageID || fs.crashFired[i] {
			continue
		}
		fs.crashFired[i] = true
		declareDead(ev.Node, ev.Down)
		c.count(recExecCrashes, 1)
		if det > 0 {
			declared = true
			suspect(ev.Node, "heartbeats stopped: executor dead")
		}
		c.recordEvent(obs.Event{
			Clock: now.Seconds(), Type: obs.EvFault,
			Stage: stageID, Part: -1, Node: ev.Node, Shuffle: -1,
			Detail: "executor-crash",
		})
	}
	for i := range fs.plan.RackFailures {
		ev := &fs.plan.RackFailures[i]
		if ev.Stage != stageID || fs.rackFired[i] {
			continue
		}
		fs.rackFired[i] = true
		failedRacks = append(failedRacks, ev.Rack)
		members := c.conf.Cluster.RackNodes(ev.Rack)
		for _, node := range members {
			declareDead(node, ev.Down)
			if det > 0 {
				declared = true
				suspect(node, fmt.Sprintf("heartbeats stopped with rack %d", ev.Rack))
			}
		}
		c.count(recRackFailures, 1)
		c.recordEvent(obs.Event{
			Clock: now.Seconds(), Type: obs.EvFault,
			Stage: stageID, Part: -1, Node: -1, Shuffle: -1,
			Detail: fmt.Sprintf("rack-failure rack=%d nodes=%d", ev.Rack, len(members)),
		})
	}
	// stall models an alive executor going silent for dur (stop-the-world
	// GC, network partition): past one missed lease the scheduler suspects
	// it; past the full declaration latency it is falsely declared dead —
	// outputs invalidated, node blacklisted until its heartbeats resume,
	// and the still-running attempts remembered as zombies whose late
	// commits the map-output lease must fence.
	stall := func(node int, dur simtime.Duration, kind string) {
		if dur < c.conf.HeartbeatInterval {
			return // resumes inside one lease: never even suspected
		}
		suspect(node, fmt.Sprintf("%s: heartbeats stalled %s", kind, dur))
		if dur < det {
			return // recovers before the lease count runs out: suspicion only
		}
		declared = true
		c.count(recFalseSuspicions, 1)
		if until := now + dur; until > fs.downUntil[node] {
			fs.downUntil[node] = until
		}
		toZombie = append(toZombie, node)
	}
	for i := range fs.plan.GCPauses {
		ev := &fs.plan.GCPauses[i]
		if ev.From != stageID || fs.gcFired[i] {
			continue
		}
		fs.gcFired[i] = true
		c.count(recGCPauses, 1)
		c.recordEvent(obs.Event{
			Clock: now.Seconds(), Type: obs.EvFault,
			Stage: stageID, Part: -1, Node: ev.Node, Shuffle: -1,
			Detail: fmt.Sprintf("gc-pause dur=%s", ev.Dur),
		})
		stall(ev.Node, ev.Dur, "gc-pause")
	}
	for i := range fs.plan.Partitions {
		ev := &fs.plan.Partitions[i]
		if ev.From != stageID || fs.partFired[i] {
			continue
		}
		fs.partFired[i] = true
		c.count(recPartitions, 1)
		c.recordEvent(obs.Event{
			Clock: now.Seconds(), Type: obs.EvFault,
			Stage: stageID, Part: -1, Node: -1, Shuffle: -1,
			Detail: fmt.Sprintf("network-partition nodes=%d dur=%s", len(ev.Nodes), ev.Dur),
		})
		for _, node := range ev.Nodes {
			stall(node, ev.Dur, "network-partition")
		}
	}
	for i := range fs.plan.DiskLosses {
		ev := &fs.plan.DiskLosses[i]
		if ev.Stage != stageID || fs.diskFired[i] {
			continue
		}
		fs.diskFired[i] = true
		toLose = append(toLose, ev.Node)
		c.count(recDiskLosses, 1)
		c.recordEvent(obs.Event{
			Clock: now.Seconds(), Type: obs.EvFault,
			Stage: stageID, Part: -1, Node: ev.Node, Shuffle: -1,
			Detail: "disk-loss",
		})
	}
	var toCorrupt []Corruption
	for i := range fs.plan.Corruptions {
		ev := &fs.plan.Corruptions[i]
		if ev.Stage != stageID || fs.corruptFired[i] {
			continue
		}
		fs.corruptFired[i] = true
		toCorrupt = append(toCorrupt, *ev)
	}
	fs.mu.Unlock()
	if declared && det > 0 {
		// Detection latency: the scheduler learns of the losses only after
		// the missed-heartbeat lease runs out, and that wait is modelled
		// time on the critical path — charged once per stage boundary no
		// matter how many executors were declared together (their leases
		// expire in parallel). The charge lands before the stage reads the
		// clock, so placements already see the post-declaration blacklist.
		c.advanceDriver(det, simtime.Overhead, obs.PhaseDetection)
	}
	if c.store != nil && c.store.RemoteAttached() {
		if remoteDown && !remoteWasDown {
			// Entering an outage window: one degraded-mode episode begins —
			// the replication queue parks and recovery falls back to
			// recompute until the window closes.
			c.count(recDegradedWindows, 1)
			c.count(recRemoteOutages, 1)
			c.recordEvent(obs.Event{
				Clock: now.Seconds(), Type: obs.EvFault,
				Stage: stageID, Part: -1, Node: -1, Shuffle: -1,
				Detail: "remote-outage-enter",
			})
		}
		c.store.SetRemoteAvailable(!remoteDown)
		if !remoteDown {
			// While the tier is up, every block staged before this stage
			// boundary is replicated before any of the stage's faults can
			// lose it — this is what makes restore-vs-recompute decisions
			// (and therefore the recovery stats) deterministic. A reopened
			// tier drains the backlog parked during the outage here too.
			c.store.FlushReplication()
		}
		for _, rack := range failedRacks {
			// A rack failure burns the rack's share of the remote tier too:
			// replicas placed in the failed domain are gone, so restores of
			// those keys fail over to recompute — domain-aware placement
			// guarantees the surviving copy lives elsewhere.
			if n := c.store.DropRemoteDomain(rack); n > 0 {
				c.recordEvent(obs.Event{
					Clock: now.Seconds(), Type: obs.EvFault,
					Stage: stageID, Part: -1, Node: -1, Shuffle: -1,
					Detail: fmt.Sprintf("rack-failure rack=%d dropped %d remote replicas", rack, n),
				})
			}
		}
	}
	for _, node := range toLose {
		c.loseNodeOutputs(node, false)
	}
	for _, node := range toZombie {
		c.loseNodeOutputs(node, true)
	}
	for _, ev := range toCorrupt {
		c.corruptStagedBlock(ev)
	}
	for _, ev := range toCorruptRemote {
		c.corruptRemoteReplica(ev)
	}
	return crashed
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
	for _, ev := range fs.plan.RemoteSlows {
		if fs.maxStage >= ev.From && fs.maxStage < ev.From+ev.Dur && ev.Factor > f {
			f = ev.Factor
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
	for i := range fs.plan.Stragglers {
		ev := &fs.plan.Stragglers[i]
		if ev.Stage != stageID || ev.Partition != split || fs.stragFired[i] {
			continue
		}
		fs.stragFired[i] = true
		if ev.Factor > factor {
			factor = ev.Factor
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
	states := make([]*shuffleState, 0, len(c.shuffles))
	for _, st := range c.shuffles {
		states = append(states, st)
	}
	c.mu.Unlock()
	for _, st := range states {
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
	recSpillStragglers
	recSuspicions
	recFalseSuspicions
	recFencedCommits
	recStormThrottled
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
	recSpillStragglers:  {metric: "dpspark_spill_stragglers_total", field: func(s *RecoveryStats) *int64 { return &s.SpillStragglers }},
	recSuspicions:       {metric: "dpspark_detector_suspicions_total", field: func(s *RecoveryStats) *int64 { return &s.Suspicions }},
	recFalseSuspicions:  {metric: "dpspark_detector_false_suspicions_total", field: func(s *RecoveryStats) *int64 { return &s.FalseSuspicions }},
	recFencedCommits:    {metric: "dpspark_detector_fenced_commits_total", field: func(s *RecoveryStats) *int64 { return &s.FencedCommits }},
	recStormThrottled:   {metric: "dpspark_detector_storm_throttled_resubmits_total", field: func(s *RecoveryStats) *int64 { return &s.StormThrottledResubmits }},
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
	// SpillStragglers counts tasks dilated by spill-aware scheduling
	// (Conf.SpillDilation) because their node carried a staged backlog.
	// The one observational counter: its trigger reads real spill timing.
	SpillStragglers int64
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
	// StormThrottledResubmits counts stage resubmissions that had to wait
	// for a recovery-storm token (Conf.RecoveryTokens) before running.
	StormThrottledResubmits int64
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
