// Command benchmark is the repository's end-to-end benchmark: eight
// workloads that together cover the path batch -> serve -> restart, five
// end-to-end metrics every workload reports, and a traced pass that
// splits each workload's time by layer. See README.md.
//
//	bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	    one run of one workload; the last line of standard output is the
//	    result as JSON (the contract BENCHMARK.json describes)
//	bash benchmark/run.sh --seed N [--runs K]
//	    every workload, untraced and traced, each run in a child process;
//	    prints every metric and writes out/results.json
//	bash benchmark/run.sh --compare A.json B.json
//	    compares two results files, metric by metric and workload by workload
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

// env is what one run of one workload is given.
type env struct {
	spec    workloadSpec
	seed    int64
	seconds float64
	// procs is the pinned GOMAXPROCS and the Local(P) cluster size:
	// min(nproc, 4).
	procs int
	// bin is the dpspark binary the serve workloads start.
	bin string
	// out keeps trace files, results and the logs of failed runs.
	out string
	// tmp is this run's scratch directory under -dir, removed on exit.
	tmp string
	// log takes the human-readable report.
	log io.Writer

	cleanups []func()
}

// onExit registers fn to run when the run ends, also after a failure or
// a signal; registered functions run last-in first-out.
func (e *env) onExit(fn func()) { e.cleanups = append(e.cleanups, fn) }

func (e *env) cleanup() {
	for i := len(e.cleanups) - 1; i >= 0; i-- {
		e.cleanups[i]()
	}
	e.cleanups = nil
}

// keep copies a file into out/ so it survives the scratch directory: the
// server log and child stderr of a run whose check failed.
func (e *env) keep(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		return
	}
	dst := filepath.Join(e.out, fmt.Sprintf("failed-%s-seed%d-%s", e.spec.Name, e.seed, filepath.Base(path)))
	if os.WriteFile(dst, data, 0o644) == nil {
		fmt.Fprintf(os.Stderr, "benchmark: kept %s\n", dst)
	}
}

// metricValue and runResult are the result line's JSON.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measured is what an untraced pass produces; the end-to-end metrics are
// derived from it in one place.
type measured struct {
	// opSeconds holds one duration per completed operation.
	opSeconds []float64
	// elapsed is the wall time of the measured phase.
	elapsed float64
	// cpuS is the CPU the measured process used over the phase (for the
	// serve workloads, all server children over their lifetime) and ops
	// the operations that CPU is spread over.
	cpuS   float64
	cpuOps int
	// peakRSSMB is the measured process's maximum resident set.
	peakRSSMB float64
	setupS    []float64
	failed    int
}

func (m *measured) endToEnd() map[string]float64 {
	ms := make([]float64, len(m.opSeconds))
	for i, s := range m.opSeconds {
		ms[i] = s * 1e3
	}
	ops := m.cpuOps
	if ops < 1 {
		ops = 1
	}
	out := map[string]float64{
		"time_to_result_ms_p50": median(ms),
		"cpu_s_per_op":          m.cpuS / float64(ops),
		"peak_rss_mb":           m.peakRSSMB,
		"setup_s":               median(m.setupS),
	}
	if m.elapsed > 0 {
		out["results_per_s"] = float64(len(m.opSeconds)) / m.elapsed
	}
	return out
}

// workload is one benchmark workload.
type workload interface {
	// measure runs the untraced pass: set-up, then operations for
	// e.seconds seconds, each output checked.
	measure(e *env) (*measured, error)
	// traced runs the traced pass and returns the per-layer metrics this
	// workload measures, with the operations it attempted and failed.
	traced(e *env) (layer map[string]float64, attempted, failed int, err error)
}

func newWorkload(name string) workload {
	switch name {
	case "fw_im_coarse":
		return newFW(1024, 256)
	case "fw_im_fine":
		return newFW(512, 8)
	case "ge_cb_rec":
		return newGE()
	case "fw_durable":
		return newDurable(false)
	case "fw_resume":
		return newDurable(true)
	case "serve_mix":
		return &serveMix{}
	case "serve_restart":
		return &serveRestart{}
	case "model_tables":
		return newModel()
	}
	return nil
}

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload and print its result line; empty runs every workload")
		seed    = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds = flag.Float64("seconds", 0, "seconds one run measures (default: run_seconds of BENCHMARK.json, 10)")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
		runs    = flag.Int("runs", 1, "all-workloads mode: untraced runs per workload, seeds seed, seed+1, ...")
		dir     = flag.String("dir", "", "scratch directory for journals, stores and checkpoints (default: out/tmp)")
		bin     = flag.String("bin", "", "dpspark binary for the serve workloads (run.sh builds it)")
		out     = flag.String("out", "", "directory for traces, results.json and kept logs (run.sh passes benchmark/out)")
		compare = flag.Bool("compare", false, "compare two results files given as arguments")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: --compare A.json B.json")
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if *out == "" || *bin == "" {
		fatalf("run through benchmark/run.sh, which builds the binaries and passes -bin and -out")
	}
	if *seconds <= 0 {
		*seconds = 10
	}
	if *dir == "" {
		*dir = filepath.Join(*out, "tmp")
	}
	for _, d := range []string{*out, *dir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			fatalf("%v", err)
		}
	}
	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *runs, *dir, *out))
	}

	spec, ok := findWorkload(*name)
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	procs := pinnedProcs()
	runtime.GOMAXPROCS(procs)
	tmp, err := os.MkdirTemp(*dir, spec.Name+"-")
	if err != nil {
		fatalf("%v", err)
	}
	e := &env{spec: spec, seed: *seed, seconds: *seconds, procs: procs, bin: *bin, out: *out, tmp: tmp, log: os.Stdout}
	e.onExit(func() { os.RemoveAll(tmp) })
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.cleanup()
		os.Exit(130)
	}()

	res, err := runOne(e, *trace == 1)
	e.cleanup()
	if err != nil {
		fatalf("%s: %v", spec.Name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runOne runs one pass of one workload and renders its result.
func runOne(e *env, trace bool) (*runResult, error) {
	w := newWorkload(e.spec.Name)
	fmt.Fprintf(e.log, "# %s seed=%d seconds=%g trace=%v gomaxprocs=%d\n# %s\n", e.spec.Name, e.seed, e.seconds, trace, e.procs, e.spec.Params)
	res := &runResult{Metrics: map[string]metricValue{}}
	if !trace {
		m, err := w.measure(e)
		if err != nil {
			return nil, err
		}
		vals := m.endToEnd()
		for _, s := range endToEnd {
			res.Metrics[s.Name] = metricValue{vals[s.Name], s.Unit}
		}
		res.Attempted = len(m.opSeconds) + m.failed
		res.Failed = m.failed
		fmt.Fprintf(e.log, "operations: %d (%s)\n", len(m.opSeconds), e.spec.Op)
		if p, ok := highestPercentile(len(m.opSeconds)); ok {
			fmt.Fprintf(e.log, "time_to_result_ms p%g = %.4f ms (highest percentile with 10 samples beyond it)\n", p, 1e3*percentile(m.opSeconds, p))
		}
	} else {
		layer, attempted, failed, err := w.traced(e)
		if err != nil {
			return nil, err
		}
		for _, s := range perLayer {
			v := layer[s.Name]
			if !s.measuredOn(e.spec.Name) {
				v = 0
			}
			res.Metrics[s.Name] = metricValue{v, s.Unit}
		}
		res.Attempted, res.Failed = attempted, failed
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation completed")
	}
	res.Correct = res.Failed == 0
	printMetrics(e.log, e.spec.Name, res, trace)
	return res, nil
}

// printMetrics lists every metric by name with its unit.
func printMetrics(w io.Writer, workload string, res *runResult, trace bool) {
	names := make([]string, 0, len(res.Metrics))
	if trace {
		for _, s := range perLayer {
			if s.measuredOn(workload) {
				names = append(names, s.Name)
			}
		}
	} else {
		for _, s := range endToEnd {
			names = append(names, s.Name)
		}
	}
	for _, n := range names {
		fmt.Fprintf(w, "%-14s %-44s %16.6g %s\n", workload, n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "%-14s %-44s %16d of %d\n", workload, "failed", res.Failed, res.Attempted)
}

// pinnedProcs is P = min(nproc, 4): the GOMAXPROCS every run is pinned
// to and the size of its Local(P) cluster.
func pinnedProcs() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}
