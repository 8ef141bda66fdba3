package report

import (
	"fmt"

	"dpspark/internal/obs"
)

// CriticalPathRow is one run's critical-path report.
type CriticalPathRow struct {
	// Name labels the run (configuration string).
	Name string
	// Path is the profiler's attribution of the run's clock advance.
	Path obs.CritPathReport
}

// NewCriticalPathTable renders critical-path attributions as a table:
// one row per run, a column per phase, the attributed path length, the
// uncovered gap (≈ 0 on a healthy run) and the stage/segment counts
// (recovery resubmissions and speculative copies broken out).
func NewCriticalPathTable(title string, rows []CriticalPathRow) *Table {
	names := make([]string, len(rows))
	for i, r := range rows {
		names[i] = r.Name
	}
	t := NewTable(title, "run", names,
		[]string{"compute", "shuffle", "broadcast", "recovery", "overhead", "path", "gap", "stages", "resub", "spec"})
	for i, r := range rows {
		p := r.Path
		t.Set(i, 0, Seconds(p.Phase(obs.PhaseCompute), false))
		t.Set(i, 1, Seconds(p.Phase(obs.PhaseShuffle), false))
		t.Set(i, 2, Seconds(p.Phase(obs.PhaseBroadcast), false))
		t.Set(i, 3, Seconds(p.Phase(obs.PhaseRecovery), false))
		t.Set(i, 4, Seconds(p.Phase(obs.PhaseOverhead), false))
		t.Set(i, 5, Seconds(p.Len, false))
		t.Set(i, 6, fmt.Sprintf("%.3g", p.Unattributed.Seconds()))
		t.Set(i, 7, fmt.Sprintf("%d", p.Stages))
		t.Set(i, 8, fmt.Sprintf("%d", p.RecoveryStages))
		t.Set(i, 9, fmt.Sprintf("%d", p.Speculative))
	}
	return t
}
