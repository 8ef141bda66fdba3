package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestVerdicts(t *testing.T) {
	lower := e2eSpec{Name: "time_to_result_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := e2eSpec{Name: "results_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := func(mid float64) []float64 { return []float64{mid * 0.99, mid, mid * 1.01, mid, mid * 1.005} }
	for _, c := range []struct {
		name string
		spec e2eSpec
		a, b []float64
		want string
	}{
		{"same", lower, steady(100), steady(100), "ok"},
		{"slower within the bound", lower, steady(100), steady(109), "ok"},
		{"slower beyond the bound", lower, steady(100), steady(112), "regressed"},
		{"faster is never a regression", lower, steady(100), steady(50), "ok"},
		{"throughput down beyond the bound", higher, steady(100), steady(88), "regressed"},
		{"throughput up", higher, steady(100), steady(130), "ok"},
		{"parent too noisy", lower, []float64{80, 100, 120, 90, 115}, steady(100), "unresolved"},
		{"change too noisy hides a regression", lower, steady(100), []float64{90, 150, 120, 100, 160}, "unresolved"},
		{"single runs have no spread", lower, []float64{100}, []float64{120}, "regressed"},
	} {
		if got, _ := verdict(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareResultsReportsRowsAndCounts(t *testing.T) {
	mk := func(ms float64, stages float64) *resultsFile {
		r := &resultsFile{Workloads: map[string]*workloadResults{}}
		for _, wl := range workloads {
			wr := &workloadResults{EndToEnd: map[string][]float64{}, PerLayer: map[string]float64{"rdd.stages": stages}, Attempted: 10}
			for _, s := range endToEnd {
				wr.EndToEnd[s.Name] = []float64{ms, ms * 1.01, ms * 0.99}
			}
			r.Workloads[wl.Name] = wr
		}
		return r
	}
	var out bytes.Buffer
	if code := compareResults(&out, mk(100, 17), mk(100, 17)); code != 0 {
		t.Errorf("identical results: exit %d\n%s", code, out.String())
	}
	out.Reset()
	// Every metric 30 % higher: the lower-is-better ones regress, and the
	// stage count differs on the workloads that report it.
	if code := compareResults(&out, mk(100, 17), mk(130, 18)); code != 1 {
		t.Errorf("regression: exit %d", code)
	}
	text := out.String()
	if !strings.Contains(text, "regressed") || !strings.Contains(text, "rdd.stages") {
		t.Errorf("report lacks the regressed rows or the differing count:\n%s", text)
	}
	wantRows := len(workloads) * len(endToEnd)
	if got := strings.Count(text, " ok\n") + strings.Count(text, " regressed\n") + strings.Count(text, " unresolved\n"); got != wantRows {
		t.Errorf("%d verdict rows, want %d (one per metric and workload)", got, wantRows)
	}
}
