package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// workloadResults is one workload's part of results.json: every
// end-to-end metric once per untraced run, the per-layer metrics of the
// traced run.
type workloadResults struct {
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string]float64   `json:"per_layer"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
}

// resultsFile is out/results.json, the input of --compare.
type resultsFile struct {
	Machine   map[string]any              `json:"machine"`
	Seed      int64                       `json:"seed"`
	Seconds   float64                     `json:"seconds"`
	Runs      int                         `json:"runs"`
	Workloads map[string]*workloadResults `json:"workloads"`
}

// runAll runs every workload, each run in a child process of its own:
// `runs` untraced runs with seeds seed, seed+1, ... and one traced run.
// It prints every metric and writes out/results.json. The exit code is 1
// if any check failed.
func runAll(seed int64, seconds float64, runs int, dir, out string) int {
	res := &resultsFile{
		Machine: machineFacts(dir, pinnedProcs()), Seed: seed, Seconds: seconds, Runs: runs,
		Workloads: map[string]*workloadResults{},
	}
	ok := true
	for _, w := range workloads {
		wr := &workloadResults{EndToEnd: map[string][]float64{}, PerLayer: map[string]float64{}}
		res.Workloads[w.Name] = wr
		for r := 0; r <= runs; r++ {
			traced := r == runs
			s := seed + int64(r)
			if traced {
				s = seed
			}
			rr, err := runChild(w.Name, s, seconds, traced, out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
				ok = false
				continue
			}
			wr.Attempted += rr.Attempted
			wr.Failed += rr.Failed
			ok = ok && rr.Correct
			for name, v := range rr.Metrics {
				if traced {
					wr.PerLayer[name] = v.Value
				} else {
					wr.EndToEnd[name] = append(wr.EndToEnd[name], v.Value)
				}
			}
		}
	}
	printSummary(os.Stdout, res)
	printPredictions(os.Stdout, res)
	data, err := json.MarshalIndent(res, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(out, "results.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	fmt.Printf("\nresults written to %s\n", filepath.Join(out, "results.json"))
	if !ok {
		return 1
	}
	return 0
}

// runChild runs one pass of one workload in a child process, passing its
// report through, and parses the result line. The child's standard error
// is kept in out/ when it fails.
func runChild(name string, seed int64, seconds float64, traced bool, out string) (*runResult, error) {
	args := append([]string(nil), os.Args[1:]...)
	trace := "0"
	if traced {
		trace = "1"
	}
	args = append(args, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", trace)
	cmd := exec.Command(os.Args[0], args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = io.MultiWriter(&stdout, lastLineDropper{os.Stdout})
	cmd.Stderr = io.MultiWriter(&stderr, os.Stderr)
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rr runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rr); err != nil {
		path := filepath.Join(out, fmt.Sprintf("failed-%s-seed%d-stderr.log", name, seed))
		_ = os.WriteFile(path, stderr.Bytes(), 0o644) // best effort: the error below is what matters
		return nil, fmt.Errorf("no result line (%v); stderr kept in %s", runErr, path)
	}
	return &rr, nil
}

// lastLineDropper passes through everything except lines that start a
// JSON object: the child's result line is for the parent, not the reader.
type lastLineDropper struct{ w io.Writer }

func (d lastLineDropper) Write(p []byte) (int, error) {
	for _, line := range bytes.SplitAfter(p, []byte("\n")) {
		if len(line) > 0 && line[0] != '{' {
			if _, err := d.w.Write(line); err != nil {
				return 0, err
			}
		}
	}
	return len(p), nil
}

// printSummary lists the end-to-end metrics of every workload: median
// over the runs and, from two runs on, their quartile spread.
func printSummary(w io.Writer, res *resultsFile) {
	fmt.Fprintf(w, "\n== end to end (seed %d, %g s per run, %d run(s) per workload) ==\n", res.Seed, res.Seconds, res.Runs)
	fmt.Fprintf(w, "%-14s %-24s %14s %-5s %8s %6s\n", "workload", "metric", "median", "unit", "spread", "bound")
	for _, wl := range workloads {
		wr := res.Workloads[wl.Name]
		for _, s := range endToEnd {
			vals := wr.EndToEnd[s.Name]
			sp := "-"
			if v, ok := spread(vals); ok {
				sp = fmt.Sprintf("%.1f%%", 100*v)
			}
			fmt.Fprintf(w, "%-14s %-24s %14.6g %-5s %8s %5.0f%%\n", wl.Name, s.Name, median(vals), s.Unit, sp, 100*s.Bound)
		}
		fmt.Fprintf(w, "%-14s %-24s %14d of %d\n", wl.Name, "failed", wr.Failed, wr.Attempted)
	}
}

// printPredictions checks what the workloads were chosen to show.
func printPredictions(w io.Writer, res *resultsFile) {
	layer := func(wl, metric string) float64 { return res.Workloads[wl].PerLayer[metric] }
	e2e := func(wl, metric string) float64 { return median(res.Workloads[wl].EndToEnd[metric]) }
	verdict := func(ok bool) string {
		if ok {
			return "holds"
		}
		return "FAILS"
	}
	fmt.Fprintf(w, "\n== predicted layer split ==\n")
	c, f := layer("fw_im_coarse", "kernels.est_share"), layer("fw_im_fine", "kernels.est_share")
	fmt.Fprintf(w, "kernels.est_share >= 0.6 on fw_im_coarse (%.3f) and <= 0.25 on fw_im_fine (%.3f): %s\n", c, f, verdict(c >= 0.6 && f <= 0.25))
	nj, j := layer("serve_mix", "serve.jobs_per_s_nojournal"), e2e("serve_mix", "results_per_s")
	fmt.Fprintf(w, "serve.jobs_per_s_nojournal (%.1f) >= 1.5 x results_per_s on serve_mix (%.1f): %s\n", nj, j, verdict(nj >= 1.5*j))
}
