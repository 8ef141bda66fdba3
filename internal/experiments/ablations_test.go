package experiments

import (
	"strings"
	"testing"
)

func TestAblationsBundle(t *testing.T) {
	s := Ablations(8192)
	if len(s.Tables) != 4 {
		t.Fatalf("tables = %d", len(s.Tables))
	}
	if len(s.Results) == 0 {
		t.Fatal("no results")
	}
	for _, r := range s.Results {
		if r.Err != nil {
			t.Fatalf("ablation cell %v failed: %v", r.Cell, r.Err)
		}
	}
	var sb strings.Builder
	for _, tbl := range s.Tables {
		if err := tbl.Render(&sb); err != nil {
			t.Fatal(err)
		}
	}
	out := sb.String()
	for _, want := range []string{"partitioner", "RDD partitions", "r_shared", "Baseline", "MPI-style"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablations missing %q", want)
		}
	}
}

func TestAblationPartitionsSweetSpot(t *testing.T) {
	// The 1×/2×/4× multipliers must stay within a narrow band — the
	// paper's guideline is a mild tuning knob, not a cliff.
	_, results := AblationPartitions(8192)
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	lo, hi := results[0].Time, results[0].Time
	for _, r := range results[1:] {
		if r.Time < lo {
			lo = r.Time
		}
		if r.Time > hi {
			hi = r.Time
		}
	}
	if hi.Seconds() > 1.5*lo.Seconds() {
		t.Fatalf("partition multiplier swing too wide: %v .. %v", lo, hi)
	}
}

func TestAblationBaselineOrdering(t *testing.T) {
	_, results := AblationBaseline(8192)
	if len(results) != 5 {
		t.Fatalf("results = %d", len(results))
	}
	szDirected, szUndirected := results[0].Time, results[1].Time
	thisIter, thisRec, mpi := results[2].Time, results[3].Time, results[4].Time
	if !(szUndirected < szDirected) {
		t.Fatal("undirected optimization must help the baseline")
	}
	if !(thisRec < thisIter) {
		t.Fatal("recursive kernels must beat iterative")
	}
	if !(mpi < thisRec) {
		t.Fatal("the MPI-style comparator must be the fastest")
	}
}
