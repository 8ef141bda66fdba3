package sim

import (
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
	if s.Ledger.Bytes(simtime.Network) != gb {
		t.Fatalf("network bytes = %d", s.Ledger.Bytes(simtime.Network))
	}
	if s.Ledger.Bytes(simtime.LocalDisk) != gb {
		t.Fatalf("disk bytes = %d", s.Ledger.Bytes(simtime.LocalDisk))
	}
	if s.Ledger.Bytes(simtime.SharedFS) != gb {
		t.Fatalf("shared bytes = %d", s.Ledger.Bytes(simtime.SharedFS))
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
	s.RunStage(make([]Task, 7))
	if s.Ledger.Tasks() != 7 || s.Ledger.Stages() != 1 {
		t.Fatalf("ledger tasks/stages = %d/%d", s.Ledger.Tasks(), s.Ledger.Stages())
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
	slicesEqual := slices.Equal(a.NodeIO, b.NodeIO) && slices.Equal(a.NodeCompute, b.NodeCompute) &&
		slices.Equal(a.NodeShuffleIO, b.NodeShuffleIO) && slices.Equal(a.NodeSharedIO, b.NodeSharedIO) &&
		slices.Equal(a.Tasks, b.Tasks)
	a.NodeIO, a.NodeCompute, a.NodeShuffleIO, a.NodeSharedIO, a.Tasks = nil, nil, nil, nil, nil
	b.NodeIO, b.NodeCompute, b.NodeShuffleIO, b.NodeSharedIO, b.Tasks = nil, nil, nil, nil, nil
	return slicesEqual && reflect.DeepEqual(a, b)
}

// TestScratchReportEqualsFreshReport: a report built on a Scratch — new,
// dirty from a larger stage, too small, or far too large — equals the one
// RunStageReport(tasks, nil) allocates, field by field, and leaves the
// simulator in the same state; Tasks lists the spans node by node, in
// index order within a node.
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
		want := fresh.RunStageReport(tasks, nil)
		got := scratched.RunStageReport(tasks, sc)
		if !sameReport(got, want) {
			t.Fatalf("round %d (%d tasks): report on scratch\n%+v\nwant\n%+v", round, n, got, want)
		}
		if scratched.Clock != fresh.Clock || scratched.Ledger.String() != fresh.Ledger.String() || scratched.DiskUsed(3) != fresh.DiskUsed(3) {
			t.Fatalf("round %d: simulator state diverged", round)
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
