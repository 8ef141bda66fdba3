package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict compares one end-to-end metric of one workload between a
// parent's runs (a) and a change's runs (b):
//
//	unresolved  the quartile spread of either side is wider than the
//	            bound, so the runs cannot tell the two apart
//	regressed   b's median is worse than a's by more than the bound
//	ok          otherwise
//
// worse is b's median's distance from a's in the bad direction, as a
// share of a's median. setup_s is judged on its medians alone, as the
// driver judges it: a run sets up one to three times, so its spread says
// little.
func verdict(s e2eSpec, a, b []float64) (v string, worse float64) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if s.Better == "higher" {
			worse = -worse
		}
	}
	for _, side := range [][]float64{a, b} {
		if sp, ok := spread(side); ok && sp > s.Bound && s.Name != "setup_s" {
			return "unresolved", worse
		}
	}
	if worse > s.Bound {
		return "regressed", worse
	}
	return "ok", worse
}

func loadResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultsFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// runCompare prints one row per end-to-end metric and workload, then the
// per-layer counts that must repeat exactly and do not. The exit code is
// 1 if any row regressed or is unresolved.
func runCompare(w io.Writer, pathA, pathB string) int {
	a, err := loadResults(pathA)
	if err == nil {
		var b *resultsFile
		if b, err = loadResults(pathB); err == nil {
			return compareResults(w, a, b)
		}
	}
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	return 2
}

func compareResults(w io.Writer, a, b *resultsFile) int {
	bad := 0
	fmt.Fprintf(w, "%-14s %-24s %14s %14s %8s %6s %8s %8s  %s\n", "workload", "metric", "median A", "median B", "worse", "bound", "spread A", "spread B", "verdict")
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			continue
		}
		for _, s := range endToEnd {
			va, vb := wa.EndToEnd[s.Name], wb.EndToEnd[s.Name]
			v, worse := verdict(s, va, vb)
			if v != "ok" {
				bad++
			}
			sa, _ := spread(va)
			sb, _ := spread(vb)
			fmt.Fprintf(w, "%-14s %-24s %14.6g %14.6g %+7.1f%% %5.0f%% %7.1f%% %7.1f%%  %s\n",
				wl.Name, s.Name, median(va), median(vb), 100*worse, 100*s.Bound, 100*sa, 100*sb, v)
		}
		if wb.Failed > 0 || wa.Failed > 0 {
			bad++
			fmt.Fprintf(w, "%-14s failed operations: A %d of %d, B %d of %d\n", wl.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		}
	}
	differ := 0
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			continue
		}
		for _, s := range perLayer {
			if s.exactOn(wl.Name) && wa.PerLayer[s.Name] != wb.PerLayer[s.Name] {
				differ++
				fmt.Fprintf(w, "%-14s %-44s differs: A %v, B %v %s\n", wl.Name, s.Name, wa.PerLayer[s.Name], wb.PerLayer[s.Name], s.Unit)
			}
		}
	}
	fmt.Fprintf(w, "%d end-to-end rows regressed or unresolved; %d per-layer counts differ\n", bad, differ)
	if bad > 0 {
		return 1
	}
	return 0
}
