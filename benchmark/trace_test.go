package main

import (
	"testing"
	"time"
)

func TestSelfTimesSumToTheRoot(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr := &tracer{}
	for id := 0; id < 2; id++ {
		root := tr.add("solve", "harness", id, -1, at(0), at(100))
		tr.add("block", "core", id, root, at(5), at(15))
		run := tr.add("core.run", "core", id, root, at(15), at(90))
		tr.add("kernel", "kernels", id, run, at(20), at(50))
	}
	var self, rootTotal time.Duration
	rows := map[string]splitRow{}
	for _, r := range tr.split() {
		rows[r.Name] = r
		self += r.Self
		if r.Name == "solve" {
			rootTotal = r.Total
		}
	}
	if self != rootTotal || rootTotal != 200*time.Millisecond {
		t.Errorf("self times sum to %v, roots to %v, want both 200ms", self, rootTotal)
	}
	if got := rows["core.run"].Self; got != 2*45*time.Millisecond {
		t.Errorf("core.run self %v, want 90ms (75 minus the 30 of its child, twice)", got)
	}
	if got := rows["solve"].Self; got != 2*15*time.Millisecond {
		t.Errorf("solve self %v, want 30ms", got)
	}
	if got := tr.durations("block"); len(got) != 2 || got[0] != 0.01 {
		t.Errorf("durations(block) = %v", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	sp := tr.begin("solve", "harness", 0, -1)
	tr.end(sp)
	tr.add("x", "y", 0, sp, time.Now(), time.Now())
	if sp != -1 || tr.split() != nil || tr.durations("solve") != nil {
		t.Error("a nil tracer must be inert")
	}
}

func TestParseProm(t *testing.T) {
	text := `# TYPE dpspark_kernel_calls_total counter
dpspark_kernel_calls_total{exec="recursive(r=4,base=64,threads=2)",kind="A"} 16
dpspark_kernel_calls_total{exec="iterative",kind="A"} 4
dpspark_kernel_wall_seconds_bucket{exec="iterative",kind="D",le="0.0001"} 3
dpspark_kernel_wall_seconds_sum{exec="iterative",kind="D"} 0.25
dpspark_kernel_wall_seconds_count{exec="iterative",kind="D"} 36
dpspark_jobs_queued 2
`
	ks := kernelSeriesFrom(parseProm(text))
	if ks.calls["A"] != 20 || ks.wall["D"] != 0.25 || ks.execs["D"] != 36 {
		t.Errorf("kernel series %+v", ks)
	}
	samples := parseProm(text)
	if last := samples[len(samples)-1]; last.name != "dpspark_jobs_queued" || last.value != 2 || len(last.labels) != 0 {
		t.Errorf("unlabelled sample %+v", last)
	}
	if got := samples[0].labels["exec"]; got != "recursive(r=4,base=64,threads=2)" {
		t.Errorf("label with commas parsed as %q", got)
	}
}
