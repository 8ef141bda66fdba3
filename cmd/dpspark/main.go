// Command dpspark regenerates the paper's evaluation on the cluster model,
// drives the engine, its failure and durability paths and the job service,
// and solves shortest-path and linear-system inputs on the local machine.
// `dpspark` lists the commands and `dpspark <command> -h` a command's flags.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"dpspark/internal/autotune"
	"dpspark/internal/cluster"
	"dpspark/internal/core"
	"dpspark/internal/experiments"
	"dpspark/internal/matrix"
	"dpspark/internal/obs"
	"dpspark/internal/rdd"
	"dpspark/internal/report"
	"dpspark/internal/semiring"
	"dpspark/internal/serve"
	"dpspark/internal/simtime"
)

// command is one dpspark subcommand.
type command struct {
	name, summary string
	flags         []flagGroup // the groups of flags the command reads
	// onSignal, when set, is printed on the first SIGINT/SIGTERM, which
	// then cancels the run's context instead of ending the process.
	onSignal string
	run      func(v *inv, ctx context.Context, w io.Writer) error
}

// flagGroup defines a group of flags on fs, bound to the invocation's
// fields; each flag of the binary is defined in exactly one group.
type flagGroup func(v *inv, fs *flag.FlagSet)

// tableFlags are the flags of the commands that print tables, figFlags
// those of the commands that print only charts (no -csv).
var (
	tableFlags = []flagGroup{sizeFlag, csvFlag, verboseFlag, htmlFlag, obsFlags}
	figFlags   = []flagGroup{sizeFlag, verboseFlag, htmlFlag, obsFlags}
)

const stopNotice = "checkpointing and stopping at the next iteration boundary (repeat to force quit)"

var commands = []command{
	{"table1", "Table I — GE, CB, 4-way recursive: executor-cores × OMP grid", tableFlags, "", (*inv).table1},
	{"table2", "Table II — FW-APSP, IM, 16-way recursive: same grid", tableFlags, "", (*inv).table2},
	{"fig6", "Fig. 6 — implementation × kernel × block-size sweeps", figFlags, "", (*inv).fig6},
	{"fig8", "Fig. 8 — FW-APSP portability across both clusters", figFlags, "", (*inv).fig8},
	{"fig9", "Fig. 9 — weak scaling at fixed work per node", []flagGroup{verboseFlag, htmlFlag, obsFlags}, "", (*inv).fig9},
	{"headline", "best iterative vs best recursive per benchmark", []flagGroup{sizeFlag, obsFlags}, "", (*inv).headline},
	{"ablations", "partitioner / partitions / r_shared / baseline comparisons", figFlags, "", (*inv).ablations},
	{"explain", "per-iteration plan: kernel counts, copies, moved bytes", []flagGroup{sizeFlag}, "", (*inv).explain},
	{"apsp", "one observable FW-APSP run with its phase breakdown", []flagGroup{sizeFlag, htmlFlag, obsFlags}, "", (*inv).apsp},
	{"chaos", "FW-APSP under a seeded fault plan: recovery overhead per driver", []flagGroup{sizeFlag, htmlFlag, obsFlags, faultFlags, seedFlag, threadsFlag}, "", (*inv).chaos},
	{"durable", "real run through the checksummed block store with driver checkpoints", []flagGroup{obsFlags, seedFlag, threadsFlag, runFlags, storeFlags, stopFlag}, stopNotice, (*inv).durable},
	{"resume", "restart from the newest intact checkpoint under -dir, bit-identically", []flagGroup{obsFlags, threadsFlag, storeFlags}, stopNotice, (*inv).resume},
	{"solve", "APSP of a graph (-bench fw) or A·x = b (-bench ge), solved on the local machine", []flagGroup{seedFlag, runFlags, solveFlags}, "", (*inv).solve},
	{"kernels", "measured single-tile kernel scaling, crossover and cores×threads split", []flagGroup{threadsFlag}, "", (*inv).kernels},
	{"sweep", "autotune search over the full tuning space", []flagGroup{sizeFlag}, "", (*inv).sweep},
	{"serve", "multi-tenant HTTP job service; -journal DIR makes it crash-safe", []flagGroup{obsFlags, threadsFlag, serveFlags},
		"draining (no new admissions; in-flight jobs get -drain-grace, then are cancelled)", (*inv).serve},
	{"all", "tables, figures and ablations", tableFlags, "", (*inv).all},
}

func main() {
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	os.Exit(execute(sigs, os.Args[1:], os.Stdout, os.Stderr))
}

// execute runs one invocation (args[0] names the command) and returns its
// exit status. For a command with an onSignal notice the first signal on
// sigs cancels the run's context — durable and resume checkpoint and
// stop, serve drains — and the second ends the invocation; for any other
// command the first one does. Ending on a signal dumps the -flight ring.
func execute(sigs <-chan os.Signal, args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	i := slices.IndexFunc(commands, func(c command) bool { return c.name == args[0] })
	if i < 0 {
		fmt.Fprintf(stderr, "dpspark: unknown command %q\n\n", args[0])
		usage(stderr)
		return 2
	}
	c := commands[i]
	v := &inv{stderr: stderr, set: map[string]bool{}}
	fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: dpspark %s [flags]\n\n%s\n\nflags:\n", c.name, c.summary)
		fs.PrintDefaults()
	}
	for _, define := range c.flags {
		define(v, fs)
	}
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "dpspark %s: unexpected argument %q\n", c.name, fs.Arg(0))
		return 2
	}
	fs.Visit(func(f *flag.Flag) { v.set[f.Name] = true })

	v.obs = obs.New()
	v.obs.EnableTrace(v.trace != "")
	v.obs.EnableCritPath(v.critpath)
	experiments.SetObserver(v.obs)
	if v.htmlOut != "" {
		title := "dpspark evaluation"
		if v.n > 0 {
			title += fmt.Sprintf(" (n=%d)", v.n)
		}
		v.html = report.NewHTMLReport(title)
	}
	if v.listen != "" && c.name != "serve" { // serve binds its job API there
		srv, err := obs.ListenAndServe(v.listen, v.obs)
		if err != nil {
			fmt.Fprintln(stderr, "dpspark:", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "observability endpoints on http://%s (/metrics /events /debug/critpath /healthz)\n", srv.Addr())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- c.run(v, ctx, stdout) }()
	for {
		select {
		case err := <-done:
			return v.finish(err, stdout)
		case sig := <-sigs:
			if c.onSignal != "" && ctx.Err() == nil {
				fmt.Fprintf(stderr, "\ndpspark: %v — %s\n", sig, c.onSignal)
				cancel()
				continue
			}
			fmt.Fprintf(stderr, "\ndpspark: %v — exiting\n", sig)
			v.dumpFlight()
			return 130
		}
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: dpspark <command> [flags]\n\ncommands:")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-10s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(w, `
Run 'dpspark <command> -h' for the flags a command reads.

signals: SIGINT/SIGTERM stop batch commands gracefully — durable and
resume checkpoint at the next iteration boundary first; a second signal
(or the first, for commands with no driver loop) dumps the -flight ring
and exits. serve drains: stops admitting, then cancels after -drain-grace.`)
}

// inv is one invocation's state: the values of the flags its command
// registered, its observer and the report -html collects.
type inv struct {
	stderr io.Writer
	set    map[string]bool // flags given on the command line
	obs    *obs.Observer
	html   *report.HTMLReport

	n                                     int
	csvDir, htmlOut                       string
	verbose, critpath                     bool
	trace, metrics, listen, flight        string
	seed                                  int64
	crashes, gcpauses                     int
	bench, driver                         string
	size, block, stop, kernelThreads      int
	dir                                   string
	budget                                int64
	serveConf                             serve.Config
	graph, dimacs, grid, matrix, rhs, out string
	query, kernel                         string
	p                                     float64
	rshared, threads, cores               int
}

func sizeFlag(v *inv, fs *flag.FlagSet) {
	fs.IntVar(&v.n, "n", experiments.PaperN, "problem size (DP table is n×n)")
}

func csvFlag(v *inv, fs *flag.FlagSet) {
	fs.StringVar(&v.csvDir, "csv", "", "directory to also write CSV tables into")
}

func verboseFlag(v *inv, fs *flag.FlagSet) {
	fs.BoolVar(&v.verbose, "v", false, "print per-cell cost breakdowns")
}

func htmlFlag(v *inv, fs *flag.FlagSet) {
	fs.StringVar(&v.htmlOut, "html", "", "also write a self-contained HTML report to this file")
}

func obsFlags(v *inv, fs *flag.FlagSet) {
	fs.StringVar(&v.trace, "trace", "", "write a Chrome trace-event JSON (Perfetto-loadable) of all runs to this file")
	fs.StringVar(&v.metrics, "metrics", "", "write a Prometheus-style metrics dump of all runs to this file")
	fs.BoolVar(&v.critpath, "critpath", false, "record and report the critical path of every run")
	fs.StringVar(&v.listen, "listen", "", "serve live observability endpoints (/metrics /events /debug/critpath /healthz) on this address; the serve command's job API binds here too")
	fs.StringVar(&v.flight, "flight", "", "write the flight-recorder event tail as JSON lines to this file")
}

func faultFlags(v *inv, fs *flag.FlagSet) {
	fs.IntVar(&v.crashes, "crashes", 2, "executor crashes to schedule")
	fs.IntVar(&v.gcpauses, "gcpause", 0, "stop-the-world GC pauses to schedule; turns on the heartbeat failure detector, so pauses outliving the lease count are falsely declared dead")
}

func seedFlag(v *inv, fs *flag.FlagSet) {
	fs.Int64Var(&v.seed, "seed", 20260805, "seed of the fault plan (chaos) or of the generated input (durable, solve)")
}

func threadsFlag(v *inv, fs *flag.FlagSet) {
	fs.IntVar(&v.kernelThreads, "kernel-threads", 1, "intra-tile kernel pool width for real-mode runs, the OMP_NUM_THREADS analogue (1 = serial; >1 row-band parallel kernels, bit-identical); the target width of the kernels report")
}

func runFlags(v *inv, fs *flag.FlagSet) {
	fs.StringVar(&v.bench, "bench", "fw", "benchmark: fw (Floyd-Warshall APSP) or ge (Gaussian elimination)")
	fs.StringVar(&v.driver, "driver", "im", "driver: im or cb")
	fs.IntVar(&v.size, "size", 512, "problem size of the real run; for solve, the vertices or unknowns of a generated input")
	fs.IntVar(&v.block, "block", 128, "tile size of the real run")
}

func storeFlags(v *inv, fs *flag.FlagSet) {
	fs.StringVar(&v.dir, "dir", "", "durable block-store + checkpoint directory")
	fs.Int64Var(&v.budget, "budget", 0, "store memory budget in bytes, 0 = unbounded")
}

func stopFlag(v *inv, fs *flag.FlagSet) {
	fs.IntVar(&v.stop, "stop", 0, "kill the driver after this many iterations, 0 = run to completion")
}

func serveFlags(v *inv, fs *flag.FlagSet) {
	c := &v.serveConf
	fs.IntVar(&c.MaxQueue, "max-queue", 16, "max queued jobs before submissions get 429")
	fs.IntVar(&c.MaxRunning, "max-jobs", 2, "max concurrently running jobs on the shared cluster")
	fs.IntVar(&c.TenantRunning, "tenant-running", 0, "per-tenant running-job cap, 0 = auto")
	fs.IntVar(&c.TenantPending, "tenant-pending", 0, "per-tenant queued-job cap, 0 = auto")
	fs.DurationVar(&c.DrainGrace, "drain-grace", 30*time.Second, "graceful-drain window on SIGTERM before in-flight jobs are cancelled")
	fs.StringVar(&c.JournalDir, "journal", "", "crash-safe serving: write-ahead job journal + running jobs' durable checkpoints (about one per 100 ms of run time) under this directory; on start the journal is replayed — terminal jobs keep their results, queued jobs re-enter the queue, mid-run jobs resume from their latest checkpoint, when one exists")
	fs.IntVar(&c.MaxAttempts, "max-attempts", 1, "run attempts per job on engine errors, with exponential backoff")
	fs.IntVar(&c.PoisonThreshold, "poison-threshold", 3, "panics/crash-restarts before a job is quarantined instead of retried")
}

func solveFlags(v *inv, fs *flag.FlagSet) {
	fs.StringVar(&v.graph, "graph", "", "fw: edge-list file to solve (first line the vertex count, then \"from to weight\" lines, '#' comments)")
	fs.StringVar(&v.dimacs, "dimacs", "", "fw: 9th-DIMACS-challenge shortest-path file to solve")
	fs.StringVar(&v.grid, "grid", "", "fw: generate a ROWSxCOLS grid road network, e.g. -grid 30x30")
	fs.Float64Var(&v.p, "p", 0.05, "fw: edge probability of the random graph -size generates")
	fs.StringVar(&v.query, "query", "", "fw: print one shortest path, e.g. -query 0,899")
	fs.StringVar(&v.matrix, "matrix", "", "ge: binary matrix file (matrix.WriteDense format)")
	fs.StringVar(&v.rhs, "rhs", "", "ge: right-hand-side file (whitespace-separated numbers)")
	fs.StringVar(&v.out, "out", "", "write the distance matrix (fw, binary) or the solution vector (ge, text) to this file")
	fs.StringVar(&v.kernel, "kernel", "iter", "kernel: iter or rec")
	fs.IntVar(&v.rshared, "rshared", 4, "recursive fan-out r_shared")
	fs.IntVar(&v.threads, "threads", 4, "worker threads per recursive kernel")
	fs.IntVar(&v.cores, "cores", 4, "simulated local cores")
}

// finish reports a failed run, or writes the invocation's output files,
// and returns the exit status.
func (v *inv) finish(err error, w io.Writer) int {
	if err != nil {
		fmt.Fprintln(v.stderr, "dpspark:", err)
		// A failed run still dumps its flight tail: the last-N events are
		// the post-mortem the recorder exists for.
		v.dumpFlight()
		return 1
	}
	for _, o := range []struct {
		path  string
		write func(io.Writer) error
		what  func() string
	}{
		{v.flight, v.writeFlight, func() string {
			return fmt.Sprintf("flight-recorder events (%d held, %d dropped)", v.obs.Flight().Len(), v.obs.Flight().Dropped())
		}},
		{v.trace, v.obs.WriteChromeTrace, func() string { return fmt.Sprintf("Chrome trace (%d spans)", v.obs.SpanCount()) }},
		{v.metrics, v.obs.Metrics().WritePrometheus, func() string { return "metrics" }},
		{v.htmlOut, v.html.Write, func() string { return "HTML report" }},
	} {
		if o.path == "" {
			continue
		}
		if err := writeFile(o.path, o.write); err != nil {
			fmt.Fprintln(v.stderr, "dpspark:", err)
			return 1
		}
		fmt.Fprintf(w, "%s written to %s\n", o.what(), o.path)
	}
	return 0
}

func (v *inv) writeFlight(w io.Writer) error { return v.obs.Flight().WriteJSONL(w, 0) }

// dumpFlight writes the -flight ring on the way out of a failed or
// interrupted run.
func (v *inv) dumpFlight() {
	if v.flight != "" && writeFile(v.flight, v.writeFlight) == nil {
		fmt.Fprintf(v.stderr, "dpspark: flight-recorder events written to %s\n", v.flight)
	}
}

// writeFile creates path, fills it with write and closes it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (v *inv) table1(_ context.Context, w io.Writer) error {
	t, results := experiments.TableI(v.n)
	return v.emitTable(w, t, results, "table1.csv")
}

func (v *inv) table2(_ context.Context, w io.Writer) error {
	t, results := experiments.TableII(v.n)
	return v.emitTable(w, t, results, "table2.csv")
}

func (v *inv) fig6(_ context.Context, w io.Writer) error {
	for _, bench := range []experiments.Benchmark{experiments.FW, experiments.GE} {
		chart, results := experiments.Fig6(bench, v.n)
		if err := chart.Render(w); err != nil {
			return err
		}
		if v.html != nil {
			v.html.AddBarChart(chart)
		}
		h := experiments.ComputeHeadline(bench, results)
		headline := fmt.Sprintf("%s: best iterative %.0fs (%s b=%d), best recursive %.0fs (%s rec%d omp%d b=%d) → %.1f× speedup",
			bench, h.BestIterS, h.BestIter.Driver, h.BestIter.Block,
			h.BestRecS, h.BestRec.Driver, h.BestRec.RShared, h.BestRec.Threads, h.BestRec.Block,
			h.Speedup)
		fmt.Fprintf(w, "\n%s\n\n", headline)
		if v.html != nil {
			v.html.AddText(headline)
		}
		v.verboseDump(w, results)
	}
	return nil
}

func (v *inv) fig8(_ context.Context, w io.Writer) error {
	chart, results := experiments.Fig8(v.n)
	if err := chart.Render(w); err != nil {
		return err
	}
	if v.html != nil {
		v.html.AddBarChart(chart)
	}
	v.verboseDump(w, results)
	return nil
}

func (v *inv) fig9(_ context.Context, w io.Writer) error {
	chart, results := experiments.Fig9()
	if err := chart.Render(w); err != nil {
		return err
	}
	if v.html != nil {
		v.html.AddLineChart(chart)
	}
	v.verboseDump(w, results)
	return nil
}

func (v *inv) headline(_ context.Context, w io.Writer) error {
	for _, bench := range []experiments.Benchmark{experiments.FW, experiments.GE} {
		_, results := experiments.Fig6(bench, v.n)
		h := experiments.ComputeHeadline(bench, results)
		fmt.Fprintf(w, "%s: iterative %.0fs → recursive %.0fs = %.1f× (paper: 2.1× FW, 5× GE)\n",
			bench, h.BestIterS, h.BestRecS, h.Speedup)
	}
	return nil
}

func (v *inv) ablations(_ context.Context, w io.Writer) error {
	s := experiments.Ablations(v.n)
	for _, t := range s.Tables {
		if err := t.Render(w); err != nil {
			return err
		}
		if v.html != nil {
			v.html.AddTable(t)
		}
		fmt.Fprintln(w)
	}
	v.verboseDump(w, s.Results)
	return nil
}

func (v *inv) explain(_ context.Context, w io.Writer) error {
	for _, bench := range []experiments.Benchmark{experiments.FW, experiments.GE} {
		for _, driver := range []core.DriverKind{core.IM, core.CB} {
			plan, err := core.Explain(v.n, core.Config{
				Rule: bench.Rule(), BlockSize: 1024, Driver: driver,
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "-- %s / %v --\n", bench, driver)
			if err := plan.Render(w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// apsp is one observable FW-APSP run: the -trace/-metrics smoke test.
func (v *inv) apsp(_ context.Context, w io.Writer) error {
	var rows []report.BreakdownRow
	var cpRows []report.CriticalPathRow
	for _, driver := range []core.DriverKind{core.IM, core.CB} {
		name := fmt.Sprintf("%v rec16 omp16 b=1024", driver)
		r := experiments.Run(experiments.Cell{Bench: experiments.FW, N: v.n, Driver: driver,
			Block: 1024, Recursive: true, RShared: 16, Threads: 16})
		if r.Err != nil {
			return r.Err
		}
		st := r.Stats
		fmt.Fprintf(w, "%s: %.0fs (skew %.2f)\n", name, st.Time.Seconds(), st.MaxTaskSkew)
		rows, cpRows = addRows(rows, cpRows, name, st)
	}
	t := report.NewBreakdownTable(
		fmt.Sprintf("FW-APSP phase breakdown (n=%d, critical path)", v.n), rows)
	fmt.Fprintln(w)
	if err := t.Render(w); err != nil {
		return err
	}
	return v.renderCritPath(w, fmt.Sprintf("FW-APSP critical path (n=%d)", v.n), cpRows)
}

// chaos runs FW-APSP under a seeded fault plan, per driver: modelled
// recovery overhead vs the fault-free run, the fired fault / recovery
// counters, and the phase breakdown with its recovery column.
func (v *inv) chaos(_ context.Context, w io.Writer) error {
	cl := cluster.Skylake16()
	detector := v.gcpauses > 0
	const blk = 1024
	r := (v.n + blk - 1) / blk
	plan := rdd.ChaosPlan(v.seed, 4*r, cl.Nodes, v.crashes, v.gcpauses)
	fmt.Fprintf(w, "chaos plan (seed %d): %d executor crashes, %d stragglers, %d disk losses, %d gc pauses over %d planned stages\n",
		v.seed, rdd.CountEvents[rdd.ExecutorCrash](plan), rdd.CountEvents[rdd.Straggler](plan), rdd.CountEvents[rdd.DiskLoss](plan),
		rdd.CountEvents[rdd.GCPause](plan), 4*r)
	if detector {
		fmt.Fprintf(w, "heartbeat failure detector: 2s lease, dead after 2 missed leases (4s detection latency)\n")
	}
	fmt.Fprintln(w)
	var rows []report.BreakdownRow
	var cpRows []report.CriticalPathRow
	for _, driver := range []core.DriverKind{core.IM, core.CB} {
		var cleanS float64
		for _, faulted := range []bool{false, true} {
			conf := rdd.Conf{Cluster: cl, Speculation: true, Observer: v.obs, KernelThreads: v.kernelThreads}
			if detector {
				conf.HeartbeatInterval = 2 * simtime.Second
			}
			name := fmt.Sprintf("%v clean", driver)
			if faulted {
				conf.FaultPlan = plan
				name = fmt.Sprintf("%v chaos", driver)
			}
			ctx := rdd.NewContext(conf)
			_, st, err := core.Run(ctx, matrix.NewSymbolicBlocked(v.n, blk), core.Config{
				Rule: semiring.NewFloydWarshall(), BlockSize: blk, Driver: driver,
			})
			if err != nil {
				return err
			}
			if faulted {
				rs := ctx.RecoveryStats()
				fmt.Fprintf(w, "%s: %.0fs (clean %.0fs, overhead %.1f%%, recovery time %.0fs)\n",
					name, st.Time.Seconds(), cleanS, (st.Time.Seconds()/cleanS-1)*100, st.RecoveryTime.Seconds())
				fmt.Fprintf(w, "  %d fetch failures → %d stage resubmits recomputing %d map partitions; "+
					"%d task retries, %d blacklist placements, %d speculative copies (%d wins)\n",
					rs.FetchFailures, rs.StageResubmits, rs.RecomputedMapPartitions,
					rs.TaskRetries, rs.BlacklistPlacements, rs.SpeculativeTasks, rs.SpeculationWins)
				if detector {
					fmt.Fprintf(w, "  detector: %d suspicions (%d false), %d fenced zombie commits, %.0fs detection wait\n",
						rs.Suspicions, rs.FalseSuspicions, rs.FencedCommits, st.DetectionTime.Seconds())
				}
			} else {
				cleanS = st.Time.Seconds()
			}
			rows, cpRows = addRows(rows, cpRows, name, st)
		}
	}
	fmt.Fprintln(w)
	t := report.NewBreakdownTable(
		fmt.Sprintf("FW-APSP recovery overhead (n=%d, seed %d)", v.n, v.seed), rows)
	if v.html != nil {
		v.html.AddTable(t)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	return v.renderCritPath(w, fmt.Sprintf("FW-APSP critical path (n=%d, seed %d)", v.n, v.seed), cpRows)
}

// addRows appends a run's phase-breakdown row, and its critical-path row
// when -critpath recorded one.
func addRows(rows []report.BreakdownRow, cpRows []report.CriticalPathRow, name string, st *core.Stats) ([]report.BreakdownRow, []report.CriticalPathRow) {
	rows = append(rows, report.BreakdownRow{
		Name:    name,
		Compute: st.ComputeTime, Shuffle: st.ShuffleTime,
		Broadcast: st.BroadcastTime, Overhead: st.OverheadTime,
		Recovery:     st.RecoveryTime,
		ShuffleBytes: st.ShuffleBytes, BroadcastBytes: st.BroadcastBytes,
		Skew: st.MaxTaskSkew,
	})
	if st.CritPath != nil {
		cpRows = append(cpRows, report.CriticalPathRow{Name: name, Path: *st.CritPath})
	}
	return rows, cpRows
}

// durable is an end-to-end durable run on the local cluster model: the
// engine stages shuffle buckets and broadcast payloads through the
// checksummed block store (spilling under -budget pressure) and the driver
// persists a restartable checkpoint at every boundary. -stop K kills the
// driver loop after K iterations; `dpspark resume -dir` then completes the
// run bit-identically.
func (v *inv) durable(ctx context.Context, w io.Writer) error {
	if v.dir == "" {
		return fmt.Errorf("durable: -dir is required")
	}
	rule, drv, err := ruleDriver(v.bench, v.driver)
	if err != nil {
		return err
	}
	rctx := rdd.NewContext(v.localConf(v.dir))
	defer rctx.Close()
	in := core.SeededInput(rule, v.size, v.seed)
	bl := matrix.Block(in, v.block, rule.Pad(), rule.PadDiag())
	out, st, err := core.Run(rctx, bl, core.Config{
		Rule: rule, BlockSize: v.block, Driver: drv,
		DurableDir: v.dir, StopAfter: v.stop,
		StopRequested: func() bool { return ctx.Err() != nil },
	})
	if err != nil {
		return err
	}
	printDurableStats(w, rctx, st)
	if ctx.Err() != nil {
		fmt.Fprintf(w, "stop requested — checkpoint written at the stop boundary; complete the run with:\n  dpspark resume -dir %s\n", v.dir)
		return nil
	}
	if v.stop > 0 && v.stop < bl.R {
		fmt.Fprintf(w, "driver killed after %d of %d iterations — complete the run with:\n  dpspark resume -dir %s\n",
			v.stop, bl.R, v.dir)
		return nil
	}
	fmt.Fprintf(w, "result checksum: %016x (n=%d b=%d %s %v)\n",
		out.Checksum(), v.size, v.block, v.bench, drv)
	return nil
}

// resume restarts from the newest intact checkpoint under -dir: the grid,
// iteration cursor and engine scheduler state are restored, and the
// remaining iterations produce bits identical to the uninterrupted run.
func (v *inv) resume(ctx context.Context, w io.Writer) error {
	if v.dir == "" {
		return fmt.Errorf("resume: -dir is required")
	}
	meta, bl, err := core.LoadCheckpoint(v.dir)
	if err != nil {
		return err
	}
	rule, drv, err := ruleDriver(ruleFlagName(meta.Rule), meta.Driver)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "resuming %s %s from checkpoint %d/%d (n=%d b=%d)\n",
		meta.Rule, meta.Driver, meta.Iteration, meta.R, meta.N, meta.B)
	conf := v.localConf(v.dir)
	conf.Restore = &meta.Engine
	rctx := rdd.NewContext(conf)
	defer rctx.Close()
	out, st, err := core.Resume(rctx, meta, bl, core.Config{
		Rule: rule, BlockSize: meta.B, Driver: drv,
		Partitions: meta.Partitions, CheckpointEvery: meta.CheckpointEvery,
		DurableDir:    v.dir,
		StopRequested: func() bool { return ctx.Err() != nil },
	})
	if err != nil {
		return err
	}
	printDurableStats(w, rctx, st)
	if ctx.Err() != nil {
		fmt.Fprintf(w, "stop requested — checkpoint written at the stop boundary; run `dpspark resume -dir %s` again to finish\n", v.dir)
		return nil
	}
	fmt.Fprintf(w, "result checksum: %016x (n=%d b=%d %s %v)\n",
		out.Checksum(), meta.N, meta.B, ruleFlagName(meta.Rule), drv)
	return nil
}

// kernels measures single-tile scaling of the iterative kernels on this
// machine (real time, not the cluster model): the scaling curve and the
// serial cost per update of each kernel kind per tile size, the
// serial↔parallel crossover and the suggested cores×threads split for
// -kernel-threads tuning.
func (v *inv) kernels(_ context.Context, w io.Writer) error {
	cores := runtime.NumCPU()
	target := v.kernelThreads
	if target <= 1 {
		target = 4
	}
	widths := []int{1, 2, 4, 8}
	if !slices.Contains(widths, target) {
		widths = append(widths, target)
		sort.Ints(widths)
	}
	sizes := []int{64, 128, 256, 512}
	const reps = 3
	fmt.Fprintf(w, "single-tile kernel scaling on this machine (%d cores, best of %d reps)\n\n", cores, reps)
	for _, bench := range []string{"fw", "ge"} {
		rule, _, err := ruleDriver(bench, "im")
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "-- %s (%s) --\n", bench, rule.Name())
		var atSize autotune.KernelProfile
		for _, b := range sizes {
			prof := autotune.MeasureKernelScaling(rule, b, widths, reps)
			fmt.Fprintf(w, "  %-40s best t%d (speedup %.2f× at t%d)\n",
				prof.String(), prof.BestThreads(), prof.Speedup(target), target)
			fmt.Fprintf(w, "    per kind, serial: %s\n", autotune.MeasureKernelKinds(rule, b, reps))
			atSize = prof
		}
		cross := autotune.Crossover(rule, target, sizes, reps)
		if cross == 0 {
			fmt.Fprintf(w, "  crossover at t%d: none — parallel kernels never beat serial here, keep -kernel-threads 1\n", target)
		} else {
			fmt.Fprintf(w, "  crossover at t%d: b=%d — tiles this size and up gain from -kernel-threads %d\n", target, cross, target)
		}
		ec, kt := autotune.SplitCoresThreads(cores, atSize)
		fmt.Fprintf(w, "  suggested split of %d cores at b=%d: executor-cores=%d × kernel-threads=%d\n\n",
			cores, atSize.B, ec, kt)
	}
	return nil
}

func (v *inv) sweep(_ context.Context, w io.Writer) error {
	cl := cluster.Skylake16()
	outs, best, err := autotune.Search(cl, experiments.FW, v.n, autotune.DefaultSpace(cl))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "autotune sweep over %d candidates (FW-APSP, n=%d, %s)\n", len(outs), v.n, cl)
	for i, o := range outs[:min(len(outs), 10)] {
		note := ""
		if o.Err != nil {
			note = " [" + o.Err.Error() + "]"
		} else if o.TimedOut {
			note = " [timeout]"
		}
		fmt.Fprintf(w, "%2d. %-40s %8.0fs%s\n", i+1, o.Cell, o.Time.Seconds(), note)
	}
	fmt.Fprintf(w, "best: %s (%.0fs)\n", best.Cell, best.Time.Seconds())
	return nil
}

func (v *inv) all(ctx context.Context, w io.Writer) error {
	for _, sub := range []struct {
		name string
		run  func(*inv, context.Context, io.Writer) error
	}{
		{"table1", (*inv).table1}, {"table2", (*inv).table2}, {"fig6", (*inv).fig6},
		{"fig8", (*inv).fig8}, {"fig9", (*inv).fig9}, {"ablations", (*inv).ablations},
	} {
		fmt.Fprintf(w, "==== %s ====\n", sub.name)
		if err := sub.run(v, ctx, w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// serve is the long-lived multi-tenant job service: many HTTP clients
// submit DP jobs onto one shared simulated cluster. Admission control
// bounds the queue (429 + Retry-After past it), per-tenant quotas stop any
// one tenant from starving the rest, and cancelling ctx drains: stop
// admitting, give in-flight jobs -drain-grace to finish, then cancel them.
func (v *inv) serve(ctx context.Context, w io.Writer) error {
	if v.listen == "" {
		return fmt.Errorf("serve: -listen is required (e.g. -listen :8080)")
	}
	conf := v.serveConf
	conf.KernelThreads, conf.Observer = v.kernelThreads, v.obs
	srv, err := serve.New(conf)
	if err != nil {
		return err
	}
	// A serve-level panic or fatal exit dumps the flight-recorder ring next
	// to the journal — the post-mortem for crashes the journal alone
	// cannot explain. (Per-job quarantine dumps are stamped with their job
	// ID by the server itself.)
	defer func() {
		if p := recover(); p != nil {
			if path := srv.DumpFlight("panic"); path != "" {
				fmt.Fprintf(v.stderr, "dpspark: panic — flight ring dumped to %s\n", path)
			}
			panic(p)
		}
	}()
	fatal := func(err error) error {
		if conf.JournalDir != "" {
			if path := srv.DumpFlight("fatal"); path != "" {
				fmt.Fprintf(v.stderr, "dpspark: fatal — flight ring dumped to %s\n", path)
			}
		}
		return err
	}
	// Bind before replaying: /healthz answers (liveness) while /readyz
	// stays 503 until Recover finishes.
	h, err := srv.ListenAndServe(v.listen)
	if err != nil {
		return fatal(err)
	}
	rs, err := srv.Recover()
	if err != nil {
		_ = h.Close()
		return fatal(fmt.Errorf("serve: journal replay: %w", err))
	}
	if conf.JournalDir != "" {
		fmt.Fprintf(w, "journal %s replayed: %d terminal, %d requeued, %d resumed, %d quarantined (%d torn bytes dropped)\n",
			conf.JournalDir, rs.Terminal, rs.Requeued, rs.Resumed, rs.Quarantined, rs.DroppedBytes)
	}
	fmt.Fprintf(w, "dpspark job service on http://%s (POST /jobs, GET /jobs, GET /jobs/{id}/result, POST /jobs/{id}/cancel, /metrics, /events, /healthz, /readyz)\n", h.Addr())
	fmt.Fprintf(w, "limits: %d running, %d queued, drain grace %s — SIGTERM drains gracefully\n",
		conf.MaxRunning, conf.MaxQueue, conf.DrainGrace)
	<-ctx.Done()
	srv.Drain()
	_ = h.Close()
	count := map[serve.JobState]int{}
	for _, j := range srv.Jobs() {
		count[j.State]++
	}
	fmt.Fprintf(w, "drained: %d done, %d failed, %d cancelled, %d quarantined\n",
		count[serve.StateDone], count[serve.StateFailed], count[serve.StateCancelled], count[serve.StateQuarantined])
	return nil
}

// renderCritPath renders the critical-path table when -critpath collected
// rows (no-op otherwise).
func (v *inv) renderCritPath(w io.Writer, title string, rows []report.CriticalPathRow) error {
	if len(rows) == 0 {
		return nil
	}
	t := report.NewCriticalPathTable(title, rows)
	if v.html != nil {
		v.html.AddTable(t)
	}
	fmt.Fprintln(w)
	return t.Render(w)
}

func (v *inv) emitTable(w io.Writer, t *report.Table, results []experiments.Result, csvName string) error {
	if err := t.Render(w); err != nil {
		return err
	}
	if v.html != nil {
		v.html.AddTable(t)
	}
	v.verboseDump(w, results)
	if v.csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(v.csvDir, 0o755); err != nil {
		return err
	}
	return writeFile(filepath.Join(v.csvDir, csvName), t.CSV)
}

func (v *inv) verboseDump(w io.Writer, results []experiments.Result) {
	if !v.verbose {
		return
	}
	for _, r := range results {
		kernel := "iter"
		if r.Recursive {
			kernel = fmt.Sprintf("rec%d/omp%d", r.RShared, r.Threads)
		}
		fmt.Fprintf(w, "  %-8s %-3v b=%-5d %-12s %8.0fs  %s\n",
			r.Bench, r.Driver, r.Block, kernel, r.Time.Seconds(), r.BreakdownString())
	}
}

// ruleDriver resolves the -bench and -driver selectors (a checkpoint's
// meta.Rule / meta.Driver names are accepted too).
func ruleDriver(bench, driver string) (semiring.Rule, core.DriverKind, error) {
	var rule semiring.Rule
	switch strings.ToLower(bench) {
	case "fw", "gep-min-plus":
		rule = semiring.NewFloydWarshall()
	case "ge", "gaussian-elim":
		rule = semiring.NewGaussian()
	default:
		return nil, core.IM, fmt.Errorf("unknown -bench %q (want fw or ge)", bench)
	}
	switch strings.ToLower(driver) {
	case "im":
		return rule, core.IM, nil
	case "cb":
		return rule, core.CB, nil
	default:
		return nil, core.IM, fmt.Errorf("unknown -driver %q (want im or cb)", driver)
	}
}

// ruleFlagName maps a rule name back to the -bench flag.
func ruleFlagName(ruleName string) string {
	if ruleName == semiring.NewGaussian().Name() {
		return "ge"
	}
	return "fw"
}

// localConf is the engine configuration of the real runs (durable,
// resume): the local 4-node model with a block store under dir.
func (v *inv) localConf(dir string) rdd.Conf {
	return rdd.Conf{
		Cluster: cluster.LocalN(4, 2), DurableDir: dir, MemoryBudget: v.budget,
		SpillCodec: core.TileCodec{}, KernelThreads: v.kernelThreads, Observer: v.obs,
	}
}

// printDurableStats reports the run's modelled time and store activity.
func printDurableStats(w io.Writer, ctx *rdd.Context, st *core.Stats) {
	ss := ctx.StoreStats()
	fmt.Fprintf(w, "modelled %.0fs over %d iterations; store: %d mem / %d disk blocks, %d spilled (%d evicted), %d corrupt detected, spill wall %v\n",
		st.Time.Seconds(), st.Iterations, ss.MemBlocks, ss.DiskBlocks, ss.Spilled, ss.Evicted, ss.CorruptDetected,
		st.SpillWall.Round(time.Millisecond))
}
