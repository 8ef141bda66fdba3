package core

import (
	"time"

	"dpspark/internal/obs"
	"dpspark/internal/rdd"
	"dpspark/internal/sim"
	"dpspark/internal/simtime"
	"dpspark/internal/store"
)

// Stats reports a run's virtual cost and outcome.
type Stats struct {
	// Time is the modelled job time on the configured cluster.
	Time simtime.Duration
	// Wall is the real elapsed time of this process (interesting for
	// real-mode runs; incidental for symbolic runs).
	Wall time.Duration
	// Iterations is the grid dimension r the run used.
	Iterations int
	// TimedOut reports whether Time exceeded the paper's 8-hour bound.
	TimedOut bool

	// ComputeTime, ShuffleTime, BroadcastTime and OverheadTime decompose
	// Time along the critical path: kernel/task compute, shuffle I/O
	// (local-disk staging + fetches), collect/broadcast data movement
	// (shared-fs + driver network) and scheduling overhead. They sum to
	// Time (see rdd.Breakdown).
	ComputeTime, ShuffleTime, BroadcastTime, OverheadTime simtime.Duration
	// RecoveryTime is the clock time spent in resubmitted stages
	// recomputing lost shuffle map outputs. It overlaps the four
	// components above (recovery stages attribute their time there too)
	// and is excluded from their sum; 0 on fault-free runs.
	RecoveryTime simtime.Duration
	// ShuffleBytes is the shuffle data the run staged (write side: equal
	// to the sum of SpillBytes over the run's stage events).
	ShuffleBytes int64
	// BroadcastBytes is the collect/broadcast data the run moved through
	// the shared filesystem (driver-staged payloads + executor fetches).
	BroadcastBytes int64
	// MaxTaskSkew is the worst per-stage straggler ratio MaxTask/MeanTask
	// observed during the run (1 = perfectly balanced, 0 = no stages).
	MaxTaskSkew float64

	// KernelSpawned, KernelInlined and KernelHandoffs attribute the run's
	// real kernel-thread occupancy: branches the shared per-node kernel
	// pools ran on their own goroutine, branches inlined on the caller
	// because every spare token was busy, and barrier token hand-offs.
	// All zero when Conf.KernelThreads ≤ 1 (serial kernels) and for
	// symbolic runs (no real kernel executions).
	KernelSpawned, KernelInlined, KernelHandoffs int64

	// SpilledBlocks, EvictedBlocks and CorruptBlocks count the durable
	// block store's activity during the run: blocks written to the
	// checksummed disk tier (forced spills + evictions), blocks evicted
	// under Conf.MemoryBudget pressure, and blocks whose verification
	// failed on read (repaired through the recompute path). All zero
	// without Conf.DurableDir.
	SpilledBlocks, EvictedBlocks, CorruptBlocks int64
	// SpillWall is the real time spent writing spill files — wall, not
	// modelled: durable staging is host I/O the cluster model does not
	// price (the modelled charges are identical with and without it).
	SpillWall time.Duration

	// DetectionTime is the modelled clock spent waiting for the
	// heartbeat failure detector to declare executors dead (latency =
	// two missed leases, 2 × rdd.Conf.HeartbeatInterval, per declaring
	// stage boundary). Like RecoveryTime it overlaps the component sum
	// (the wait is also attributed to OverheadTime); 0 with the detector
	// off or no declarations.
	DetectionTime simtime.Duration
	// Suspicions and FalseSuspicions count failure-detector verdicts:
	// executors suspected after a missed heartbeat lease, and alive
	// executors (GC pause, network partition) wrongly declared dead
	// after the full lease count. FencedCommits counts zombie-attempt
	// map outputs rejected by the commit lease. All zero with the
	// detector off.
	Suspicions, FalseSuspicions, FencedCommits int64

	// CritPath is the run's critical-path report (nil unless the
	// observer's critical-path recorder was enabled for the run). Its Len
	// equals Time up to virtual-clock float resolution.
	CritPath *obs.CritPathReport
}

// RunMark snapshots an engine context before a run so StatsSince can
// report the run's delta. It is the single place Stats (including Wall)
// is derived, shared by core.Run and the baseline solver.
type RunMark struct {
	wall   time.Time
	clock  simtime.Duration
	bd     rdd.Breakdown
	events int
	st     store.Stats
	rs     rdd.RecoveryStats

	poolSpawned, poolInlined, poolHandoffs int64
}

// MarkRun captures the context state at the start of a run.
func MarkRun(ctx *rdd.Context) RunMark {
	m := RunMark{
		wall:   time.Now(),
		clock:  ctx.Clock(),
		bd:     ctx.Breakdown(),
		events: len(ctx.Events()),
		st:     ctx.StoreStats(),
		rs:     ctx.RecoveryStats(),
	}
	m.poolSpawned, m.poolInlined, m.poolHandoffs = ctx.KernelPoolStats()
	return m
}

// StatsSince builds the run's Stats from everything the context did since
// the mark.
func (m RunMark) StatsSince(ctx *rdd.Context, iterations int) *Stats {
	now := ctx.Clock()
	elapsed := now - m.clock
	bd := ctx.Breakdown().Sub(m.bd)
	st := ctx.StoreStats()
	rs := ctx.RecoveryStats()
	skew := 0.0
	if events := ctx.Events(); m.events < len(events) {
		for _, ev := range events[m.events:] {
			if ev.MeanTask > 0 {
				if s := ev.MaxTask.Seconds() / ev.MeanTask.Seconds(); s > skew {
					skew = s
				}
			}
		}
	}
	s := &Stats{
		Time:           elapsed,
		Wall:           time.Since(m.wall),
		Iterations:     iterations,
		TimedOut:       elapsed > sim.Timeout,
		ComputeTime:    bd.Compute,
		ShuffleTime:    bd.Shuffle,
		BroadcastTime:  bd.Broadcast,
		OverheadTime:   bd.Overhead,
		RecoveryTime:   bd.Recovery,
		ShuffleBytes:   bd.ShuffleWriteBytes,
		BroadcastBytes: bd.BroadcastBytes,
		MaxTaskSkew:    skew,
		SpilledBlocks:  st.Spilled - m.st.Spilled,
		EvictedBlocks:  st.Evicted - m.st.Evicted,
		CorruptBlocks:  st.CorruptDetected - m.st.CorruptDetected,
		SpillWall:      st.SpillWall - m.st.SpillWall,

		DetectionTime:   bd.Detection,
		Suspicions:      rs.Suspicions - m.rs.Suspicions,
		FalseSuspicions: rs.FalseSuspicions - m.rs.FalseSuspicions,
		FencedCommits:   rs.FencedCommits - m.rs.FencedCommits,
	}
	ps, pi, ph := ctx.KernelPoolStats()
	s.KernelSpawned = ps - m.poolSpawned
	s.KernelInlined = pi - m.poolInlined
	s.KernelHandoffs = ph - m.poolHandoffs
	if cp := ctx.Observer().CritPath(); cp.Enabled() {
		rep := cp.Compute(ctx.TracePid(), m.clock, now)
		s.CritPath = &rep
		reg := ctx.Observer().Metrics()
		for _, p := range obs.CritPhases {
			reg.Gauge("dpspark_critical_path_seconds", obs.Labels{"phase": p}).Set(rep.Phase(p).Seconds())
		}
		reg.Gauge("dpspark_critical_path_seconds", obs.Labels{"phase": "total"}).Set(rep.Len.Seconds())
	}
	return s
}
