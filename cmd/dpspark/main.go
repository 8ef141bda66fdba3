// Command dpspark regenerates the paper's evaluation on the cluster model
// and drives the engine, its failure and durability paths and the job
// service from the command line; usage() lists every command and flag.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
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

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	n := fs.Int("n", experiments.PaperN, "problem size (DP table is n×n)")
	csvDir := fs.String("csv", "", "directory to also write CSV tables into")
	htmlOut := fs.String("html", "", "also write a self-contained HTML report to this file")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON (Perfetto-loadable) of all runs to this file")
	metricsOut := fs.String("metrics", "", "write a Prometheus-style metrics dump of all runs to this file")
	verbose := fs.Bool("v", false, "print per-cell cost breakdowns")
	seed := fs.Int64("seed", 20260805, "fault-plan seed (chaos command) / input seed (durable command)")
	crashes := fs.Int("crashes", 2, "executor crashes to schedule (chaos command)")
	gcpauses := fs.Int("gcpause", 0, "stop-the-world GC pauses to schedule; turns on the heartbeat failure detector, so pauses outliving the lease count are falsely declared dead (chaos command)")
	rackfails := fs.Int("rackfail", 0, "correlated rack failures to schedule on a 4-rack topology (chaos command)")
	dir := fs.String("dir", "", "durable block-store + checkpoint directory (durable/resume commands)")
	bench := fs.String("bench", "fw", "benchmark: fw or ge (durable command)")
	driverName := fs.String("driver", "im", "driver: im or cb (durable command)")
	budget := fs.Int64("budget", 0, "store memory budget in bytes, 0 = unbounded (durable/resume commands)")
	stop := fs.Int("stop", 0, "kill the driver after this many iterations, 0 = run to completion (durable command)")
	size := fs.Int("size", 512, "problem size of the durable demo run (durable command)")
	block := fs.Int("block", 128, "tile size of the durable demo run (durable command)")
	kernelThreads := fs.Int("kernel-threads", 1, "intra-tile kernel pool width for real-mode runs, the OMP_NUM_THREADS analogue (1 = serial; >1 row-band parallel kernels, bit-identical)")
	critpath := fs.Bool("critpath", false, "record and report the critical path of every run")
	listen := fs.String("listen", "", "serve live observability endpoints (/metrics /events /debug/critpath /healthz) on this address; the serve command's job API binds here too")
	flightOut := fs.String("flight", "", "write the flight-recorder event tail as JSON lines to this file")
	maxQueue := fs.Int("max-queue", 16, "max queued jobs before submissions get 429 (serve command)")
	maxJobs := fs.Int("max-jobs", 2, "max concurrently running jobs on the shared cluster (serve command)")
	tenantRunning := fs.Int("tenant-running", 0, "per-tenant running-job cap, 0 = auto (serve command)")
	tenantPending := fs.Int("tenant-pending", 0, "per-tenant queued-job cap, 0 = auto (serve command)")
	drainGrace := fs.Duration("drain-grace", 30*time.Second, "graceful-drain window on SIGTERM before in-flight jobs are cancelled (serve command)")
	journalDir := fs.String("journal", "", "crash-safe serving: write-ahead job journal + running jobs' durable checkpoints (about one per 100 ms of run time) under this directory; on start the journal is replayed — terminal jobs keep their results, queued jobs re-enter the queue, mid-run jobs resume from their latest checkpoint, when one exists (serve command)")
	maxAttempts := fs.Int("max-attempts", 1, "run attempts per job on engine errors, with exponential backoff (serve command)")
	poison := fs.Int("poison-threshold", 3, "panics/crash-restarts before a job is quarantined instead of retried (serve command)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	if *htmlOut != "" {
		htmlReport = report.NewHTMLReport(fmt.Sprintf("dpspark evaluation (n=%d)", *n))
	}
	observer := obs.New()
	if *traceOut != "" {
		observer.EnableTrace(true)
	}
	if *critpath {
		observer.EnableCritPath(true)
	}
	if *listen != "" && cmd != "serve" {
		srv, err := obs.ListenAndServe(*listen, observer)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dpspark:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("observability endpoints on http://%s (/metrics /events /debug/critpath /healthz)\n", srv.Addr())
	}
	experiments.SetObserver(observer)
	if cmd != "serve" {
		// Batch commands stop gracefully: the first SIGINT/SIGTERM asks the
		// driver loop to checkpoint and stop at the next iteration boundary
		// (durable/resume poll the flag through core.Config.StopRequested);
		// the second — or the first, for commands with no driver loop to
		// interrupt — dumps the flight-recorder ring and exits.
		handleSignals(observer, *flightOut, cmd == "durable" || cmd == "resume")
	}

	var run func(name string) error
	run = func(name string) error {
		switch name {
		case "table1":
			t, results := experiments.TableI(*n)
			return emitTable(t, results, *csvDir, "table1.csv", *verbose)
		case "table2":
			t, results := experiments.TableII(*n)
			return emitTable(t, results, *csvDir, "table2.csv", *verbose)
		case "fig6":
			for _, bench := range []experiments.Benchmark{experiments.FW, experiments.GE} {
				chart, results := experiments.Fig6(bench, *n)
				if err := chart.Render(os.Stdout); err != nil {
					return err
				}
				if htmlReport != nil {
					htmlReport.AddBarChart(chart)
				}
				h := experiments.ComputeHeadline(bench, results)
				headline := fmt.Sprintf("%s: best iterative %.0fs (%s b=%d), best recursive %.0fs (%s rec%d omp%d b=%d) → %.1f× speedup",
					bench, h.BestIterS, h.BestIter.Driver, h.BestIter.Block,
					h.BestRecS, h.BestRec.Driver, h.BestRec.RShared, h.BestRec.Threads, h.BestRec.Block,
					h.Speedup)
				fmt.Printf("\n%s\n\n", headline)
				if htmlReport != nil {
					htmlReport.AddText(headline)
				}
				verboseDump(results, *verbose)
			}
			return nil
		case "fig8":
			chart, results := experiments.Fig8(*n)
			if err := chart.Render(os.Stdout); err != nil {
				return err
			}
			if htmlReport != nil {
				htmlReport.AddBarChart(chart)
			}
			verboseDump(results, *verbose)
			return nil
		case "fig9":
			chart, results := experiments.Fig9()
			if err := chart.Render(os.Stdout); err != nil {
				return err
			}
			if htmlReport != nil {
				htmlReport.AddLineChart(chart)
			}
			verboseDump(results, *verbose)
			return nil
		case "headline":
			for _, bench := range []experiments.Benchmark{experiments.FW, experiments.GE} {
				_, results := experiments.Fig6(bench, *n)
				h := experiments.ComputeHeadline(bench, results)
				fmt.Printf("%s: iterative %.0fs → recursive %.0fs = %.1f× (paper: 2.1× FW, 5× GE)\n",
					bench, h.BestIterS, h.BestRecS, h.Speedup)
			}
			return nil
		case "ablations":
			s := experiments.Ablations(*n)
			for _, t := range s.Tables {
				if err := t.Render(os.Stdout); err != nil {
					return err
				}
				if htmlReport != nil {
					htmlReport.AddTable(t)
				}
				fmt.Println()
			}
			verboseDump(s.Results, *verbose)
			return nil
		case "explain":
			for _, bench := range []experiments.Benchmark{experiments.FW, experiments.GE} {
				for _, driver := range []core.DriverKind{core.IM, core.CB} {
					plan, err := core.Explain(*n, core.Config{
						Rule: bench.Rule(), BlockSize: 1024, Driver: driver,
					})
					if err != nil {
						return err
					}
					fmt.Printf("-- %s / %v --\n", bench, driver)
					if err := plan.Render(os.Stdout); err != nil {
						return err
					}
					fmt.Println()
				}
			}
			return nil
		case "apsp":
			// One observable FW-APSP run: the -trace/-metrics smoke test.
			cells := []struct {
				name string
				cell experiments.Cell
			}{
				{"IM rec16 omp16 b=1024", experiments.Cell{Bench: experiments.FW, N: *n, Driver: core.IM,
					Block: 1024, Recursive: true, RShared: 16, Threads: 16}},
				{"CB rec16 omp16 b=1024", experiments.Cell{Bench: experiments.FW, N: *n, Driver: core.CB,
					Block: 1024, Recursive: true, RShared: 16, Threads: 16}},
			}
			rows := make([]report.BreakdownRow, 0, len(cells))
			var cpRows []report.CriticalPathRow
			for _, c := range cells {
				r := experiments.Run(c.cell)
				if r.Err != nil {
					return r.Err
				}
				st := r.Stats
				fmt.Printf("%s: %.0fs (skew %.2f)\n", c.name, st.Time.Seconds(), st.MaxTaskSkew)
				rows = append(rows, report.BreakdownRow{
					Name:    c.name,
					Compute: st.ComputeTime, Shuffle: st.ShuffleTime,
					Broadcast: st.BroadcastTime, Overhead: st.OverheadTime,
					Recovery:     st.RecoveryTime,
					ShuffleBytes: st.ShuffleBytes, BroadcastBytes: st.BroadcastBytes,
					Skew: st.MaxTaskSkew,
				})
				if st.CritPath != nil {
					cpRows = append(cpRows, report.CriticalPathRow{Name: c.name, Path: *st.CritPath})
				}
			}
			t := report.NewBreakdownTable(
				fmt.Sprintf("FW-APSP phase breakdown (n=%d, critical path)", *n), rows)
			fmt.Println()
			if err := t.Render(os.Stdout); err != nil {
				return err
			}
			return renderCritPath(fmt.Sprintf("FW-APSP critical path (n=%d)", *n), cpRows)
		case "chaos":
			// FW-APSP under a seeded fault plan, per driver: modelled
			// recovery overhead vs the fault-free run, the fired fault /
			// recovery counters, and the phase breakdown with its
			// recovery column.
			cl := cluster.Skylake16()
			const chaosRacks = 4
			if *rackfails > 0 {
				cl = cl.WithRacks(chaosRacks)
			}
			detector := *gcpauses > 0 || *rackfails > 0
			const blk = 1024
			r := (*n + blk - 1) / blk
			plan := rdd.ChaosPlan(*seed, 4*r, cl.Nodes, *crashes, *gcpauses, chaosRacks, *rackfails)
			fmt.Printf("chaos plan (seed %d): %d executor crashes, %d stragglers, %d disk losses, %d gc pauses, %d rack failures over %d planned stages\n",
				*seed, rdd.CountEvents[rdd.ExecutorCrash](plan), rdd.CountEvents[rdd.Straggler](plan), rdd.CountEvents[rdd.DiskLoss](plan),
				rdd.CountEvents[rdd.GCPause](plan), rdd.CountEvents[rdd.RackFailure](plan), 4*r)
			if detector {
				fmt.Printf("heartbeat failure detector: 2s lease, dead after 2 missed leases (4s detection latency)\n")
			}
			fmt.Println()
			rows := make([]report.BreakdownRow, 0, 4)
			var cpRows []report.CriticalPathRow
			for _, driver := range []core.DriverKind{core.IM, core.CB} {
				var cleanS float64
				for _, faulted := range []bool{false, true} {
					conf := rdd.Conf{Cluster: cl, Speculation: true, Observer: observer, KernelThreads: *kernelThreads}
					if detector {
						conf.HeartbeatInterval = 2 * simtime.Second
					}
					name := fmt.Sprintf("%v clean", driver)
					if faulted {
						conf.FaultPlan = plan
						name = fmt.Sprintf("%v chaos", driver)
					}
					ctx := rdd.NewContext(conf)
					bl := matrix.NewSymbolicBlocked(*n, blk)
					_, st, err := core.Run(ctx, bl, core.Config{
						Rule: semiring.NewFloydWarshall(), BlockSize: blk, Driver: driver,
					})
					if err != nil {
						return err
					}
					if faulted {
						rs := ctx.RecoveryStats()
						fmt.Printf("%s: %.0fs (clean %.0fs, overhead %.1f%%, recovery time %.0fs)\n",
							name, st.Time.Seconds(), cleanS, (st.Time.Seconds()/cleanS-1)*100, st.RecoveryTime.Seconds())
						fmt.Printf("  %d fetch failures → %d stage resubmits recomputing %d map partitions; "+
							"%d task retries, %d blacklist placements, %d speculative copies (%d wins)\n",
							rs.FetchFailures, rs.StageResubmits, rs.RecomputedMapPartitions,
							rs.TaskRetries, rs.BlacklistPlacements, rs.SpeculativeTasks, rs.SpeculationWins)
						if detector {
							fmt.Printf("  detector: %d suspicions (%d false), %d fenced zombie commits, "+
								"%d rack failures, %d throttled resubmits, %.0fs detection wait\n",
								rs.Suspicions, rs.FalseSuspicions, rs.FencedCommits,
								rs.RackFailures, rs.StormThrottledResubmits, st.DetectionTime.Seconds())
						}
					} else {
						cleanS = st.Time.Seconds()
					}
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
				}
			}
			fmt.Println()
			t := report.NewBreakdownTable(
				fmt.Sprintf("FW-APSP recovery overhead (n=%d, seed %d)", *n, *seed), rows)
			if htmlReport != nil {
				htmlReport.AddTable(t)
			}
			if err := t.Render(os.Stdout); err != nil {
				return err
			}
			return renderCritPath(fmt.Sprintf("FW-APSP critical path (n=%d, seed %d)", *n, *seed), cpRows)
		case "durable":
			// An end-to-end durable run on the local cluster model: the
			// engine stages shuffle buckets and broadcast payloads through
			// the checksummed block store (spilling under -budget pressure)
			// and the driver persists a restartable checkpoint at every
			// boundary. -stop K kills the driver loop after K iterations;
			// `dpspark resume -dir` then completes the run bit-identically.
			if *dir == "" {
				return fmt.Errorf("durable: -dir is required")
			}
			rule, drv, err := durableSetup(*bench, *driverName)
			if err != nil {
				return err
			}
			ctx := rdd.NewContext(rdd.Conf{
				Cluster:       cluster.LocalN(4, 2),
				DurableDir:    *dir,
				MemoryBudget:  *budget,
				SpillCodec:    core.TileCodec{},
				KernelThreads: *kernelThreads,
				Observer:      observer,
			})
			defer ctx.Close()
			in := core.SeededInput(rule, *size, *seed)
			bl := matrix.Block(in, *block, rule.Pad(), rule.PadDiag())
			out, st, err := core.Run(ctx, bl, core.Config{
				Rule: rule, BlockSize: *block, Driver: drv,
				DurableDir: *dir, StopAfter: *stop,
				StopRequested: stopRequested,
			})
			if err != nil {
				return err
			}
			printDurableStats(ctx, st)
			if stopFlag.Load() {
				fmt.Printf("stop requested — checkpoint written at the stop boundary; complete the run with:\n  dpspark resume -dir %s\n", *dir)
				return nil
			}
			if *stop > 0 && *stop < bl.R {
				fmt.Printf("driver killed after %d of %d iterations — complete the run with:\n  dpspark resume -dir %s\n",
					*stop, bl.R, *dir)
				return nil
			}
			fmt.Printf("result checksum: %016x (n=%d b=%d %s %v)\n",
				out.ToDense().Checksum(), *size, *block, *bench, drv)
			return nil
		case "remote":
			// Restore-vs-recompute demo: the same mid-run executor crash
			// recovered twice — once with a healthy remote replica tier
			// (lost staged outputs re-install from intact replicas), once
			// under a full-run remote outage (degraded mode falls back to
			// partial map-recompute). The checksums must be identical;
			// only the recovery path and its cost differ.
			if *dir == "" {
				return fmt.Errorf("remote: -dir is required")
			}
			rule, drv, err := durableSetup(*bench, *driverName)
			if err != nil {
				return err
			}
			in := core.SeededInput(rule, *size, *seed)
			r := (*size + *block - 1) / *block
			// Iteration 1's result stage (4k+3, k=1): freshly staged map
			// outputs are lost exactly when the reduce side fetches them.
			crash := rdd.ExecutorCrash{Stage: 7, Node: 1}
			runOnce := func(name string, outage bool) (uint64, error) {
				plan := &rdd.FaultPlan{Events: []rdd.FaultEvent{crash}}
				if outage {
					plan.Events = append(plan.Events, rdd.RemoteOutage{From: 0, Dur: 4 * r})
				}
				ctx := rdd.NewContext(rdd.Conf{
					Cluster:       cluster.LocalN(4, 2),
					DurableDir:    filepath.Join(*dir, name, "local"),
					RemoteDir:     filepath.Join(*dir, name, "remote"),
					MemoryBudget:  *budget,
					SpillCodec:    core.TileCodec{},
					Speculation:   true,
					FaultPlan:     plan,
					KernelThreads: *kernelThreads,
					Observer:      observer,
				})
				defer ctx.Close()
				bl := matrix.Block(in, *block, rule.Pad(), rule.PadDiag())
				out, st, err := core.Run(ctx, bl, core.Config{
					Rule: rule, BlockSize: *block, Driver: drv,
				})
				if err != nil {
					return 0, err
				}
				rs := ctx.RecoveryStats()
				fmt.Printf("%-8s modelled %.0fs (recovery %.3fs); %d replicated, %d restored, %d recomputed blocks; %d remote retries, %d degraded windows\n",
					name+":", st.Time.Seconds(), st.RecoveryTime.Seconds(),
					st.ReplicatedBlocks, st.RestoredBlocks, st.RecomputedBlocks,
					rs.RemoteRetries, rs.DegradedWindows)
				return out.ToDense().Checksum(), nil
			}
			fmt.Printf("remote replica tier: %s %v n=%d b=%d, executor crash at stage %d\n\n",
				*bench, drv, *size, *block, crash.Stage)
			restored, err := runOnce("restore", false)
			if err != nil {
				return err
			}
			degraded, err := runOnce("degraded", true)
			if err != nil {
				return err
			}
			if restored != degraded {
				return fmt.Errorf("remote: recovery paths disagree: %016x vs %016x", restored, degraded)
			}
			fmt.Printf("\nresult checksum: %016x — identical through both recovery paths\n", restored)
			return nil
		case "resume":
			// Restart from the newest intact checkpoint under -dir: the
			// grid, iteration cursor and engine scheduler state are
			// restored, and the remaining iterations produce bits identical
			// to the uninterrupted run (compare the checksums).
			if *dir == "" {
				return fmt.Errorf("resume: -dir is required")
			}
			meta, bl, err := core.LoadCheckpoint(*dir)
			if err != nil {
				return err
			}
			rule, drv, err := durableSetup(ruleFlagName(meta.Rule), meta.Driver)
			if err != nil {
				return err
			}
			fmt.Printf("resuming %s %s from checkpoint %d/%d (n=%d b=%d)\n",
				meta.Rule, meta.Driver, meta.Iteration, meta.R, meta.N, meta.B)
			ctx := rdd.NewContext(rdd.Conf{
				Cluster:       cluster.LocalN(4, 2),
				DurableDir:    *dir,
				MemoryBudget:  *budget,
				SpillCodec:    core.TileCodec{},
				Restore:       &meta.Engine,
				KernelThreads: *kernelThreads,
				Observer:      observer,
			})
			defer ctx.Close()
			out, st, err := core.Resume(ctx, meta, bl, core.Config{
				Rule: rule, BlockSize: meta.B, Driver: drv,
				Partitions: meta.Partitions, CheckpointEvery: meta.CheckpointEvery,
				DurableDir:    *dir,
				StopRequested: stopRequested,
			})
			if err != nil {
				return err
			}
			printDurableStats(ctx, st)
			if stopFlag.Load() {
				fmt.Printf("stop requested — checkpoint written at the stop boundary; run `dpspark resume -dir %s` again to finish\n", *dir)
				return nil
			}
			fmt.Printf("result checksum: %016x (n=%d b=%d %s %v)\n",
				out.ToDense().Checksum(), meta.N, meta.B, ruleFlagName(meta.Rule), drv)
			return nil
		case "kernels":
			// Measured single-tile scaling of the iterative kernels on THIS
			// machine (real time, not the cluster model): the scaling curve
			// and the serial cost per update of each kernel kind per tile
			// size, the serial↔parallel crossover and the suggested
			// cores×threads split for -kernel-threads tuning.
			cores := runtime.NumCPU()
			target := *kernelThreads
			if target <= 1 {
				target = 4
			}
			widths := []int{1, 2, 4, 8}
			if !containsInt(widths, target) {
				widths = append(widths, target)
				sort.Ints(widths)
			}
			sizes := []int{64, 128, 256, 512}
			const reps = 3
			fmt.Printf("single-tile kernel scaling on this machine (%d cores, best of %d reps)\n\n", cores, reps)
			for _, bench := range []string{"fw", "ge"} {
				rule, _, err := durableSetup(bench, "im")
				if err != nil {
					return err
				}
				fmt.Printf("-- %s (%s) --\n", bench, rule.Name())
				var atSize *autotune.KernelProfile
				for _, b := range sizes {
					prof := autotune.MeasureKernelScaling(rule, b, widths, reps)
					fmt.Printf("  %-40s best t%d (speedup %.2f× at t%d)\n",
						prof.String(), prof.BestThreads(), prof.Speedup(target), target)
					fmt.Printf("    per kind, serial: %s\n", autotune.MeasureKernelKinds(rule, b, reps))
					if b == sizes[len(sizes)-1] {
						p := prof
						atSize = &p
					}
				}
				cross := autotune.Crossover(rule, target, sizes, reps)
				if cross == 0 {
					fmt.Printf("  crossover at t%d: none — parallel kernels never beat serial here, keep -kernel-threads 1\n", target)
				} else {
					fmt.Printf("  crossover at t%d: b=%d — tiles this size and up gain from -kernel-threads %d\n", target, cross, target)
				}
				ec, kt := autotune.SplitCoresThreads(cores, *atSize)
				fmt.Printf("  suggested split of %d cores at b=%d: executor-cores=%d × kernel-threads=%d\n\n",
					cores, atSize.B, ec, kt)
			}
			return nil
		case "sweep":
			cl := cluster.Skylake16()
			outs, best, err := autotune.Search(cl, semiring.NewFloydWarshall(), *n, autotune.DefaultSpace(cl))
			if err != nil {
				return err
			}
			fmt.Printf("autotune sweep over %d candidates (FW-APSP, n=%d, %s)\n", len(outs), *n, cl)
			top := outs
			if len(top) > 10 {
				top = top[:10]
			}
			for i, o := range top {
				note := ""
				if o.Err != nil {
					note = " [" + o.Err.Error() + "]"
				} else if o.TimedOut {
					note = " [timeout]"
				}
				fmt.Printf("%2d. %-40s %8.0fs%s\n", i+1, o.Candidate, o.Time.Seconds(), note)
			}
			fmt.Printf("best: %s (%.0fs)\n", best.Candidate, best.Time.Seconds())
			return nil
		case "all":
			for _, sub := range []string{"table1", "table2", "fig6", "fig8", "fig9", "ablations"} {
				fmt.Printf("==== %s ====\n", sub)
				if err := run(sub); err != nil {
					return err
				}
				fmt.Println()
			}
			return nil
		case "serve":
			// Long-lived multi-tenant job service: many HTTP clients submit
			// DP jobs onto one shared simulated cluster. Admission control
			// bounds the queue (429 + Retry-After past it), per-tenant
			// quotas stop any one tenant from starving the rest, and
			// SIGTERM drains gracefully: stop admitting, give in-flight
			// jobs -drain-grace to finish, then cancel cooperatively.
			if *listen == "" {
				return fmt.Errorf("serve: -listen is required (e.g. -listen :8080)")
			}
			srv, err := serve.New(serve.Config{
				KernelThreads:   *kernelThreads,
				MaxQueue:        *maxQueue,
				MaxRunning:      *maxJobs,
				TenantRunning:   *tenantRunning,
				TenantPending:   *tenantPending,
				DrainGrace:      *drainGrace,
				Observer:        observer,
				JournalDir:      *journalDir,
				MaxAttempts:     *maxAttempts,
				PoisonThreshold: *poison,
			})
			if err != nil {
				return err
			}
			// A serve-level panic or fatal exit dumps the flight-recorder
			// ring next to the journal — the post-mortem for crashes the
			// journal alone cannot explain. (Per-job quarantine dumps are
			// stamped with their job ID by the server itself.)
			defer func() {
				if p := recover(); p != nil {
					if path := srv.DumpFlight("panic"); path != "" {
						fmt.Fprintf(os.Stderr, "dpspark: panic — flight ring dumped to %s\n", path)
					}
					panic(p)
				}
			}()
			fatal := func(err error) error {
				if err != nil && *journalDir != "" {
					if path := srv.DumpFlight("fatal"); path != "" {
						fmt.Fprintf(os.Stderr, "dpspark: fatal — flight ring dumped to %s\n", path)
					}
				}
				return err
			}
			// Bind before replaying: /healthz answers (liveness) while
			// /readyz stays 503 until Recover finishes.
			h, err := srv.ListenAndServe(*listen)
			if err != nil {
				return fatal(err)
			}
			rs, err := srv.Recover()
			if err != nil {
				_ = h.Close()
				return fatal(fmt.Errorf("serve: journal replay: %w", err))
			}
			if *journalDir != "" {
				fmt.Printf("journal %s replayed: %d terminal, %d requeued, %d resumed, %d quarantined (%d torn bytes dropped)\n",
					*journalDir, rs.Terminal, rs.Requeued, rs.Resumed, rs.Quarantined, rs.DroppedBytes)
			}
			fmt.Printf("dpspark job service on http://%s (POST /jobs, GET /jobs, GET /jobs/{id}/result, POST /jobs/{id}/cancel, /metrics, /events, /healthz, /readyz)\n", h.Addr())
			fmt.Printf("limits: %d running, %d queued, drain grace %s — SIGTERM drains gracefully\n",
				*maxJobs, *maxQueue, *drainGrace)
			ch := make(chan os.Signal, 2)
			signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
			sig := <-ch
			fmt.Fprintf(os.Stderr, "dpspark: %v — draining (no new admissions; in-flight jobs get %s)\n", sig, *drainGrace)
			go func() {
				<-ch
				fmt.Fprintln(os.Stderr, "dpspark: second signal — forced exit")
				os.Exit(130)
			}()
			srv.Drain()
			_ = h.Close()
			var done, failed, cancelled, quarantined int
			for _, j := range srv.Jobs() {
				switch j.State {
				case serve.StateDone:
					done++
				case serve.StateFailed:
					failed++
				case serve.StateCancelled:
					cancelled++
				case serve.StateQuarantined:
					quarantined++
				}
			}
			fmt.Printf("drained: %d done, %d failed, %d cancelled, %d quarantined\n", done, failed, cancelled, quarantined)
			return nil
		default:
			usage()
			return fmt.Errorf("unknown command %q", name)
		}
	}

	if err := run(cmd); err != nil {
		fmt.Fprintln(os.Stderr, "dpspark:", err)
		// A failed run still dumps its flight tail: the last-N events are
		// the post-mortem the recorder exists for.
		if *flightOut != "" {
			if ferr := writeFlight(observer, *flightOut); ferr == nil {
				fmt.Fprintf(os.Stderr, "dpspark: flight-recorder events written to %s\n", *flightOut)
			}
		}
		os.Exit(1)
	}
	if *flightOut != "" {
		if err := writeFlight(observer, *flightOut); err != nil {
			fmt.Fprintln(os.Stderr, "dpspark:", err)
			os.Exit(1)
		}
		fmt.Printf("flight-recorder events (%d held, %d dropped) written to %s\n",
			observer.Flight().Len(), observer.Flight().Dropped(), *flightOut)
	}
	if err := exportObservability(observer, *traceOut, *metricsOut); err != nil {
		fmt.Fprintln(os.Stderr, "dpspark:", err)
		os.Exit(1)
	}
	if htmlReport != nil {
		f, err := os.Create(*htmlOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dpspark:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := htmlReport.Write(f); err != nil {
			fmt.Fprintln(os.Stderr, "dpspark:", err)
			os.Exit(1)
		}
		fmt.Printf("HTML report written to %s\n", *htmlOut)
	}
}

// htmlReport, when non-nil, collects everything rendered for -html.
var htmlReport *report.HTMLReport

// renderCritPath renders the critical-path table when -critpath
// collected rows (no-op otherwise).
func renderCritPath(title string, rows []report.CriticalPathRow) error {
	if len(rows) == 0 {
		return nil
	}
	t := report.NewCriticalPathTable(title, rows)
	if htmlReport != nil {
		htmlReport.AddTable(t)
	}
	fmt.Println()
	return t.Render(os.Stdout)
}

// stopFlag is set by the first SIGINT/SIGTERM. The durable and resume
// commands poll it through core.Config.StopRequested, which also forces
// a checkpoint at the stop boundary, so a signalled run is restartable.
var stopFlag atomic.Bool

// stopRequested adapts stopFlag to core.Config.StopRequested.
func stopRequested() bool { return stopFlag.Load() }

// handleSignals makes batch commands stop gracefully. When cooperative,
// the first SIGINT/SIGTERM only raises stopFlag — the driver loop
// checkpoints and returns at the next iteration boundary and the normal
// exit path (flight dump, trace/metrics export) still runs; the second
// signal gives up waiting. Non-cooperative commands have no boundary to
// stop at, so the first signal already dumps the flight ring and exits.
func handleSignals(observer *obs.Observer, flightOut string, cooperative bool) {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-ch
		if cooperative {
			stopFlag.Store(true)
			fmt.Fprintf(os.Stderr, "\ndpspark: %v — checkpointing and stopping at the next iteration boundary (repeat to force quit)\n", sig)
			sig = <-ch
		}
		fmt.Fprintf(os.Stderr, "\ndpspark: %v — exiting\n", sig)
		if flightOut != "" {
			if err := writeFlight(observer, flightOut); err == nil {
				fmt.Fprintf(os.Stderr, "dpspark: flight-recorder events written to %s\n", flightOut)
			}
		}
		os.Exit(130)
	}()
}

// writeFlight dumps the observer's flight-recorder ring as JSON lines.
func writeFlight(o *obs.Observer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := o.Flight().WriteJSONL(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durableSetup resolves the durable/resume commands' -bench and -driver
// selectors (meta.Rule / meta.Driver names are accepted too).
func durableSetup(bench, driver string) (semiring.Rule, core.DriverKind, error) {
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

// containsInt reports whether xs contains v.
func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// ruleFlagName maps a checkpoint's rule name back to the -bench flag.
func ruleFlagName(ruleName string) string {
	if ruleName == semiring.NewGaussian().Name() {
		return "ge"
	}
	return "fw"
}

// printDurableStats reports the run's modelled time and store activity.
func printDurableStats(ctx *rdd.Context, st *core.Stats) {
	ss := ctx.StoreStats()
	fmt.Printf("modelled %.0fs over %d iterations; store: %d mem / %d disk blocks, %d spilled (%d evicted), %d corrupt detected, spill wall %v\n",
		st.Time.Seconds(), st.Iterations, ss.MemBlocks, ss.DiskBlocks, ss.Spilled, ss.Evicted, ss.CorruptDetected,
		st.SpillWall.Round(time.Millisecond))
}

// exportObservability writes the collected trace and metrics files.
func exportObservability(o *obs.Observer, tracePath, metricsPath string) error {
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := o.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("Chrome trace (%d spans) written to %s\n", o.SpanCount(), tracePath)
	}
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		if err := o.Metrics().WritePrometheus(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("metrics written to %s\n", metricsPath)
	}
	return nil
}

func emitTable(t *report.Table, results []experiments.Result, csvDir, csvName string, verbose bool) error {
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	if htmlReport != nil {
		htmlReport.AddTable(t)
	}
	verboseDump(results, verbose)
	if csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(csvDir, csvName))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.CSV(f)
}

func verboseDump(results []experiments.Result, verbose bool) {
	if !verbose {
		return
	}
	for _, r := range results {
		kernel := "iter"
		if r.Recursive {
			kernel = fmt.Sprintf("rec%d/omp%d", r.RShared, r.Threads)
		}
		fmt.Printf("  %-8s %-3v b=%-5d %-12s %8.0fs  %s\n",
			r.Bench, r.Driver, r.Block, kernel, r.Time.Seconds(), r.BreakdownString())
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, strings.TrimSpace(`
usage: dpspark <command> [flags]

commands:
  table1      Table I   — GE, CB, 4-way recursive: executor-cores × OMP grid
  table2      Table II  — FW-APSP, IM, 16-way recursive: same grid
  fig6        Fig. 6    — implementation × kernel × block-size sweeps
  fig8        Fig. 8    — FW-APSP portability across both clusters
  fig9        Fig. 9    — weak scaling at fixed work per node
  headline    best iterative vs best recursive per benchmark
  ablations   partitioner / partitions / r_shared / baseline comparisons
  explain     per-iteration plan: kernel counts, copies, moved bytes
  apsp        one observable FW-APSP run with its phase breakdown
  chaos       FW-APSP under a seeded fault plan: recovery overhead per
              driver; -gcpause/-rackfail add false-suspicion and
              correlated fault-domain events under a heartbeat detector
  durable     real run through the checksummed block store with driver
              checkpoints; -stop K kills the driver after K iterations
  remote      restore-vs-recompute demo: one crash recovered from remote
              replicas, then again under a remote outage (degraded mode)
  resume      restart from the newest intact checkpoint under -dir,
              bit-identical to the uninterrupted run
  kernels     measured single-tile kernel scaling on this machine:
              per-size curves, serial↔parallel crossover, cores×threads split
  sweep       autotune search over the full tuning space
  serve       long-lived multi-tenant job service: HTTP job submission with
              admission control, per-tenant quotas + fault isolation on one
              shared cluster, graceful drain on SIGTERM; -journal DIR makes
              it crash-safe — every lifecycle transition is journaled, jobs
              checkpoint durably, and a killed server restarts with results
              intact, the queue rebuilt and mid-run jobs resumed
  all         tables, figures and ablations

flags: -n <size> (default 32768), -csv <dir>, -v,
       -seed <n> / -crashes <n> / -gcpause <n> / -rackfail <n> (chaos fault plan),
       -dir <dir> / -bench fw|ge / -driver im|cb / -budget <bytes> /
       -stop <k> / -size <n> / -block <b> (durable + resume),
       -kernel-threads <t> (row-band parallel kernels in real-mode runs;
                            also the target width of the kernels report),
       -trace <file> (Chrome trace-event JSON, load in Perfetto),
       -metrics <file> (Prometheus text dump),
       -critpath (per-run critical-path table + gauges),
       -listen <addr> (live /metrics /events /debug/critpath /healthz;
                       the serve command's job API binds here),
       -flight <file> (flight-recorder event tail as JSON lines),
       -max-queue / -max-jobs / -tenant-running / -tenant-pending /
       -drain-grace <dur> (serve admission + drain limits),
       -journal <dir> / -max-attempts <n> / -poison-threshold <n>
       (serve crash safety: job journal + checkpoint resume, bounded
        retries, poison-job quarantine)

signals: SIGINT/SIGTERM stop batch commands gracefully — durable and
resume checkpoint at the next iteration boundary first; a second signal
(or the first, for commands with no driver loop) dumps the -flight ring
and exits. serve drains: stops admitting, then cancels after -drain-grace.`))
}
