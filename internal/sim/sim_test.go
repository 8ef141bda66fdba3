package sim

import (
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dpspark/internal/cluster"
	"dpspark/internal/costmodel"
	"dpspark/internal/simtime"
)

func newSim(execCores int) *Sim {
	return New(costmodel.New(cluster.Skylake16()), execCores)
}

func TestRunStageMakespanIsSlowestNode(t *testing.T) {
	s := newSim(32)
	tasks := []Task{
		{Node: 0, Compute: 1 * simtime.Second, Threads: 1},
		{Node: 1, Compute: 5 * simtime.Second, Threads: 1},
	}
	d := s.RunStage(tasks)
	// Node 1 dominates: 5s + task overhead; plus stage overhead.
	min := 5 * simtime.Second
	max := 6 * simtime.Second
	if d < min || d > max {
		t.Fatalf("stage time = %v", d)
	}
	if s.Clock != d {
		t.Fatal("clock must advance by stage time")
	}
}

func TestWavesSerializeBeyondExecCores(t *testing.T) {
	s := newSim(2) // two slots per node
	var tasks []Task
	for i := 0; i < 6; i++ {
		tasks = append(tasks, Task{Node: 0, Compute: simtime.Second, Threads: 1})
	}
	d := s.RunStage(tasks)
	if d < 3*simtime.Second || d > 4*simtime.Second {
		t.Fatalf("6 tasks in waves of 2 should take ~3s, got %v", d)
	}
}

func TestOversubscriptionDilates(t *testing.T) {
	// 32 concurrent tasks × 8 threads = 256 demanded on 32 cores: ≥8×.
	sub := newSim(32)
	var tasks []Task
	for i := 0; i < 32; i++ {
		tasks = append(tasks, Task{Node: 0, Compute: simtime.Second, Threads: 8})
	}
	dOver := sub.RunStage(tasks)

	fit := newSim(4) // 4 tasks × 8 threads = 32 = cores: no dilation, 8 waves
	fitTasks := make([]Task, 32)
	copy(fitTasks, tasks)
	dFit := fit.RunStage(fitTasks)

	if dOver <= dFit {
		t.Fatalf("oversubscribed wave must be slower than fitting waves: %v vs %v", dOver, dFit)
	}
}

func TestSharedAndShuffleCharges(t *testing.T) {
	s := newSim(32)
	gb := int64(1) << 30
	s.RunStage([]Task{{
		Node: 0, Compute: 0, Threads: 1,
		FetchLocal: gb, FetchRemote: gb, Spill: gb,
		SharedRead: gb,
	}})
	// Each category is charged the price of its own bytes: the remote GiB
	// over the link, both fetched GiB read and the spilled GiB written on
	// the local disk, the shared GiB read from shared storage.
	m, snap := s.Model, s.Ledger.Snapshot()
	if got, want := snap[simtime.Network], m.NetTime(gb); got != want {
		t.Fatalf("network time = %v, want %v", got, want)
	}
	if got, want := snap[simtime.LocalDisk], m.DiskReadTime(2*gb)+m.DiskWriteTime(gb); got != want {
		t.Fatalf("disk time = %v, want %v", got, want)
	}
	if got, want := snap[simtime.SharedFS], m.SharedReadTime(gb); got != want {
		t.Fatalf("shared time = %v, want %v", got, want)
	}
	if s.DiskUsed(0) != gb {
		t.Fatalf("disk used = %d", s.DiskUsed(0))
	}
	// 1 GiB over GbE alone is ~8.6 s; clock must reflect I/O.
	if s.Clock < 8*simtime.Second {
		t.Fatalf("clock = %v", s.Clock)
	}
}

func TestDiskFullFailure(t *testing.T) {
	s := newSim(32)
	huge := 2 * cluster.Skylake16().Node.Disk.Capacity
	s.RunStage([]Task{{Node: 3, Spill: huge, Threads: 1}})
	err := s.Err()
	if err == nil {
		t.Fatal("expected disk-full failure")
	}
	if !strings.Contains(err.Error(), "node 3") {
		t.Fatalf("error = %v", err)
	}
}

func TestReleaseShuffleFreesDisk(t *testing.T) {
	s := newSim(32)
	s.RunStage([]Task{{Node: 0, Spill: 1000, Threads: 1}})
	if s.DiskUsed(0) != 1000 {
		t.Fatalf("disk used = %d", s.DiskUsed(0))
	}
	s.ReleaseShuffle(0, 400)
	if s.DiskUsed(0) != 600 {
		t.Fatalf("disk used = %d", s.DiskUsed(0))
	}
	s.ReleaseShuffle(0, 10000)
	if s.DiskUsed(0) != 0 {
		t.Fatal("disk used must clamp at 0")
	}
	if s.DiskUsed(99) != 0 {
		t.Fatal("out-of-range node reads 0")
	}
}

func TestAdvanceDriverAndTimeout(t *testing.T) {
	s := newSim(32)
	s.Advance(2*simtime.Hour, simtime.Overhead)
	if s.Now() > Timeout {
		t.Fatal("2h is within the 8h budget")
	}
	s.Advance(7*simtime.Hour, simtime.Overhead)
	if s.Now() <= Timeout {
		t.Fatal("9h must time out")
	}
}

func TestEmptyStage(t *testing.T) {
	s := newSim(32)
	d := s.RunStage(nil)
	if d != s.Model.StageOverhead() {
		t.Fatalf("empty stage should cost exactly the stage overhead, got %v", d)
	}
}

func TestTaskCountLedger(t *testing.T) {
	s := newSim(32)
	rep := s.RunStageReport(make([]Task, 7), nil, nil)
	if len(rep.Tasks) != 7 || s.Clock != rep.Total || s.Ledger.Snapshot()[simtime.Overhead] != rep.Overhead {
		t.Fatalf("one stage of 7 tasks: %d spans, clock %v, overhead %v of report %+v",
			len(rep.Tasks), s.Clock, s.Ledger.Snapshot()[simtime.Overhead], rep)
	}
}

// randomTasks draws a stage: mostly empty tasks (the symbolic runs' shape),
// some with compute, threads and traffic, on nodes in and out of range.
func randomTasks(rng *rand.Rand, n int) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		t := Task{Node: rng.Intn(40) - 4}
		if rng.Intn(3) == 0 {
			t.Compute = simtime.Duration(rng.Float64()) * simtime.Second
			t.Threads = rng.Intn(5)
			t.IdleThreads = rng.Intn(3)
			t.FetchLocal, t.FetchRemote = rng.Int63n(1<<20), rng.Int63n(1<<20)
			t.Spill = rng.Int63n(1 << 20)
			t.SharedRead = rng.Int63n(1 << 16)
		}
		tasks[i] = t
	}
	return tasks
}

// sameReport compares two reports field by field (an empty slice equals a
// nil one).
func sameReport(a, b StageReport) bool {
	slicesEqual := slices.Equal(a.NodeIO, b.NodeIO) && slices.Equal(a.Tasks, b.Tasks)
	a.NodeIO, a.Tasks = nil, nil
	b.NodeIO, b.Tasks = nil, nil
	return slicesEqual && reflect.DeepEqual(a, b)
}

// TestScratchReportEqualsFreshReport: a report built on a Scratch — new,
// dirty from a larger stage, too small, or far too large — equals the one
// RunStageReport(tasks, nil, nil) allocates, field by field, and leaves the
// simulator in the same state; Tasks lists the spans node by node, in
// index order within a node; and the critical split sums to Total
// exactly in the documented order.
func TestScratchReportEqualsFreshReport(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	oversized := &Scratch{
		ends: make([]int, 100), order: make([]int, 5000), raw: make([]simtime.Duration, 5000),
		laneEnd: make([]simtime.Duration, 100), perNode: make([]simtime.Duration, 500), spans: make([]TaskSpan, 5000),
	}
	for i := range oversized.order {
		oversized.order[i], oversized.raw[i], oversized.spans[i] = -1, -1, TaskSpan{Index: -1, Node: -1}
	}
	reused := new(Scratch)
	fresh, scratched := newSim(4), newSim(4)
	for round, n := range []int{700, 3, 0, 1, 64, 2000, 17, 700} {
		tasks := randomTasks(rng, n)
		sc := reused // dirty from the previous round; too small whenever n grew
		if round%3 == 2 {
			sc = oversized
		}
		want := fresh.RunStageReport(tasks, nil, nil)
		got := scratched.RunStageReport(tasks, nil, sc)
		if !sameReport(got, want) {
			t.Fatalf("round %d (%d tasks): report on scratch\n%+v\nwant\n%+v", round, n, got, want)
		}
		if scratched.Clock != fresh.Clock || !maps.Equal(scratched.Ledger.Snapshot(), fresh.Ledger.Snapshot()) || scratched.DiskUsed(3) != fresh.DiskUsed(3) {
			t.Fatalf("round %d: simulator state diverged", round)
		}
		if split := ((got.ShuffleIO + got.SharedIO) + got.Compute) + got.Overhead; split != got.Total {
			t.Fatalf("round %d: critical split sums to %v, Total is %v", round, split, got.Total)
		}
		if len(got.Tasks) != n {
			t.Fatalf("round %d: %d spans for %d tasks", round, len(got.Tasks), n)
		}
		for i := 1; i < n; i++ {
			a, b := got.Tasks[i-1], got.Tasks[i]
			if a.Node > b.Node || (a.Node == b.Node && a.Index >= b.Index) {
				t.Fatalf("round %d: span %d (node %d, task %d) before span %d (node %d, task %d)",
					round, i-1, a.Node, a.Index, i, b.Node, b.Index)
			}
		}
	}
}

// roundSim is a 4-node simulator of 32-core nodes with round prices:
// disks read at 1 GB/s and write at 0.5 GB/s, the link carries 1 GB/s
// after 1 ms, shared storage reads at 2 GB/s, (de)serialization runs at
// 1 GB/s and a task launch costs 10 ms.
func roundSim(execCores int) *Sim {
	c := cluster.Skylake16()
	c.Nodes = 4
	c.Node.Disk.ReadBW, c.Node.Disk.WriteBW = 1e9, 0.5e9
	c.Net = cluster.NetworkSpec{BandwidthBps: 1e9, LatencySec: 1e-3}
	c.Shared.ReadBW = 2e9
	m := costmodel.New(c)
	m.P.SerializeBWBps, m.P.TaskOverheadMs = 1e9, 10
	return New(m, execCores)
}

// near reports whether a hand-computed duration matches to rounding.
func near(got, want simtime.Duration) bool {
	return math.Abs(float64(got-want)) <= 1e-12*math.Max(1, math.Abs(float64(want)))
}

// TestGroupByNode: task indices are listed node by node, ascending within
// a node, with out-of-range nodes wrapped; ends marks where each node's
// run stops.
func TestGroupByNode(t *testing.T) {
	var sc Scratch
	tasks := []Task{{Node: 2}, {Node: 0}, {Node: 2}, {Node: -1}, {Node: 5}, {Node: 0}}
	sc.groupByNode(tasks, 4)
	if want := []int{1, 5, 4, 0, 2, 3}; !slices.Equal(sc.order, want) {
		t.Errorf("order = %v, want %v", sc.order, want)
	}
	if want := []int{2, 3, 5, 6}; !slices.Equal(sc.ends, want) {
		t.Errorf("ends = %v, want %v", sc.ends, want)
	}
	if len(sc.raw) != len(tasks) {
		t.Errorf("len(raw) = %d, want %d", len(sc.raw), len(tasks))
	}
}

// TestNodeTraffic: 3 GB read off the disk (3 s), 2 GB over the link
// (2.001 s), 1 GB staged (2 s) and 2 GB of shared reads (1 s); the task
// outside q is not counted.
func TestNodeTraffic(t *testing.T) {
	s := roundSim(8)
	tasks := []Task{
		{FetchLocal: 1e9, FetchRemote: 1e9, Spill: 1e9, SharedRead: 2e9},
		{FetchRemote: 5e9, Spill: 5e9},
		{FetchRemote: 1e9},
	}
	tr := s.nodeTraffic(tasks, []int{0, 2})
	if tr.spill != 1e9 {
		t.Errorf("spill = %d bytes", tr.spill)
	}
	for _, c := range []struct {
		name      string
		got, want simtime.Duration
	}{
		{"diskRead", tr.diskRead, 3}, {"net", tr.net, 2.001}, {"diskWrite", tr.diskWrite, 2},
		{"shuffleIO", tr.shuffleIO, 7.001}, {"sharedIO", tr.sharedIO, 1},
	} {
		if !near(c.got, c.want) {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

// TestNodeLoad: a 4-wide task with 4 idle threads and 0.5 GB to
// serialize, a serial task and an empty one, after 1 s of raw durations
// on earlier nodes.
func TestNodeLoad(t *testing.T) {
	s := roundSim(8)
	tasks := []Task{
		{Compute: 2, Threads: 4, IdleThreads: 4, Spill: 5e8},
		{Compute: 1},
		{},
	}
	raw := make([]simtime.Duration, 3)
	l, rawSum := s.nodeLoad(tasks, []int{0, 1, 2}, raw, 1)
	if want := []simtime.Duration{2.5, 1, 0}; !slices.Equal(raw, want) {
		t.Errorf("raw = %v, want %v", raw, want)
	}
	if l != (load{work: 2*4 + 0.5 + 1, idle: 2 * 4, sum: 3.5, busy: 2, longest: 2.5}) || rawSum != 4.5 {
		t.Errorf("load = %+v, running raw sum %v (want 4.5s)", l, rawSum)
	}
}

// TestFluidTime pins the compute bound on hand-computed loads (32 cores,
// OversubPenalty 0.015, SpinQuad 0.00128).
func TestFluidTime(t *testing.T) {
	s := roundSim(8)
	if got := s.fluidTime(load{}); got != 0 {
		t.Errorf("no work: %v, want 0", got)
	}
	// Two 1 s serial tasks take 1 s side by side, unless one of them is
	// longer: the straggler bound.
	if got := s.fluidTime(load{work: 2, sum: 2, busy: 2, longest: 1}); !near(got, 1) {
		t.Errorf("two serial tasks: %v, want 1s", got)
	}
	if got := s.fluidTime(load{work: 2, sum: 2, busy: 2, longest: 1.5}); got != 1.5 {
		t.Errorf("straggler: %v, want 1.5s", got)
	}
	// Tables I vs II at omp = 32: eight 1 s tasks whose kernels keep 4
	// threads busy and leave 28 spinning (idle/busy = 7) thrash at
	// 1 + 0.00128·(256/32)·7² = 1.50176; 16-wide kernels with the same 32
	// threads (idle/busy = 1) pay 0.015·(128/32 − 1) for oversubscription
	// plus 0.00128·8·1², 1.05524 in all.
	narrow := s.fluidTime(load{work: 8 * 4, idle: 8 * 28, sum: 8, busy: 8})
	wide := s.fluidTime(load{work: 8 * 16, idle: 8 * 16, sum: 8, busy: 8})
	if !near(narrow, 1.50176) || !near(wide, 4*1.05524) {
		t.Errorf("omp=32: 4-wide %v (want 1.50176s), 16-wide %v (want 4.22096s)", narrow, wide)
	}
}

// TestLaunchTime: launches amortize across min(ExecCores, tasks) slots.
func TestLaunchTime(t *testing.T) {
	s := roundSim(4)
	for n, want := range map[int]simtime.Duration{0: 0, 2: 0.01, 4: 0.01, 10: 0.025} {
		if got := s.launchTime(n); !near(got, want) {
			t.Errorf("launchTime(%d) = %v, want %v", n, got, want)
		}
	}
}

// TestLaneSchedule: three tasks of raw 2, 1 and 1 s on two lanes fill
// a 3 s fluid window after 0.5 s of I/O (scale 3·2/4 = 1.5), each going to
// the lane that frees first, the lower lane on ties; spans are appended.
func TestLaneSchedule(t *testing.T) {
	sc := Scratch{spans: []TaskSpan{{Index: 9}}}
	sc.laneSchedule(1, 2, []int{7, 3, 5}, []simtime.Duration{2, 1, 1}, load{sum: 4, busy: 3}, 3, 0.5)
	want := []TaskSpan{
		{Index: 9},
		{Index: 7, Node: 1, Lane: 0, Start: 0.5, Dur: 3, Raw: 2},
		{Index: 3, Node: 1, Lane: 1, Start: 0.5, Dur: 1.5, Raw: 1},
		{Index: 5, Node: 1, Lane: 1, Start: 2, Dur: 1.5, Raw: 1},
	}
	if !slices.Equal(sc.spans, want) {
		t.Errorf("spans = %+v\nwant %+v", sc.spans, want)
	}
	// One busy task on an 8-slot executor gets one lane, the whole window.
	sc.spans = nil
	sc.laneSchedule(0, 8, []int{0, 1}, []simtime.Duration{2, 0}, load{sum: 2, busy: 1}, 2, 0)
	if got := sc.spans; len(got) != 2 || got[0].Dur != 2 || got[1].Lane != 0 || got[1].Start != 2 {
		t.Errorf("one busy task: spans = %+v", got)
	}
}

// TestEmptyCountsEqualEmptyTasks: a stage given its empty tasks as
// per-node counts reports, bit for bit, what it reports given them as
// tasks — every StageReport field, the busy tasks' spans and raw
// durations (the listed empties' are zero), and the simulator's clock,
// ledger and disks — including when a node holding only empty tasks sets
// the makespan with their launches.
func TestEmptyCountsEqualEmptyTasks(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	listed, counted := roundSim(2), roundSim(2)
	nodes := listed.Model.C.Nodes
	for round, n := range []int{0, 1, 9, 64, 700, 2000} {
		tasks := randomTasks(rng, n)
		if round == 1 {
			// Node 3 holds only empty tasks (7 wraps to 3): 1,000 launches
			// on 2 slots take 5 s, against a 1 s task on node 0.
			tasks = []Task{{Node: 0, Compute: 1, Threads: 1}}
			for i := range 1000 {
				tasks = append(tasks, Task{Node: 3 + 4*(i%2)})
			}
		}
		var busy []Task
		var at []int // at[j] is busy[j]'s index in tasks
		empty := make([]int, nodes)
		for i, tk := range tasks {
			if tk.Compute == 0 && tk.FetchLocal|tk.FetchRemote|tk.Spill|tk.SharedRead == 0 {
				empty[(tk.Node%nodes+nodes)%nodes]++
				continue
			}
			busy, at = append(busy, tk), append(at, i)
		}
		var lsc, csc Scratch
		want := listed.RunStageReport(tasks, nil, &lsc)
		got := counted.RunStageReport(busy, empty, &csc)

		// Keep the listed run's spans and raw durations of busy tasks,
		// renumbered as the counted run numbers them.
		renumber := make(map[int]int, len(at))
		for j, i := range at {
			renumber[i] = j
		}
		var spans []TaskSpan
		var raw []simtime.Duration
		for k, sp := range want.Tasks {
			j, ok := renumber[sp.Index]
			if !ok {
				if lsc.Raw()[k] != 0 || sp.Dur != 0 {
					t.Fatalf("round %d: empty task %d has raw %v, span %v", round, sp.Index, lsc.Raw()[k], sp.Dur)
				}
				continue
			}
			sp.Index = j
			spans, raw = append(spans, sp), append(raw, lsc.Raw()[k])
		}
		if !slices.Equal(got.Tasks, spans) || !slices.Equal(csc.Raw(), raw) {
			t.Fatalf("round %d: counted spans %+v raw %v\nlisted busy spans %+v raw %v", round, got.Tasks, csc.Raw(), spans, raw)
		}
		want.Tasks = got.Tasks
		if !sameReport(got, want) {
			t.Fatalf("round %d (%d tasks, %d busy): counted report\n%+v\nlisted\n%+v", round, n, len(busy), got, want)
		}
		if counted.Clock != listed.Clock || !maps.Equal(counted.Ledger.Snapshot(), listed.Ledger.Snapshot()) {
			t.Fatalf("round %d: clock or ledger diverged", round)
		}
		for node := range nodes {
			if counted.DiskUsed(node) != listed.DiskUsed(node) {
				t.Fatalf("round %d: node %d staged %d bytes, listed %d", round, node, counted.DiskUsed(node), listed.DiskUsed(node))
			}
		}
		if round == 1 && (got.Compute != counted.launchTime(1000) || got.ShuffleIO != 0 || got.MeanTask != simtime.Duration(1.0/1001)) {
			t.Fatalf("only-empty node: compute %v shuffle %v mean %v; want the 5 s of launches to set the makespan", got.Compute, got.ShuffleIO, got.MeanTask)
		}
	}
}
