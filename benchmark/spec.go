package main

import "strings"

// The benchmark's declarations: workloads, end-to-end metrics with their
// regression bounds, per-layer metrics and which workloads measure them.
// BENCHMARK.json at the repository root repeats the names, units,
// directions and bounds; spec_test.go keeps the two in step.

// workloadSpec describes one workload: what runs and why it was chosen.
type workloadSpec struct {
	Name string
	// Params states what runs, sizes included; sizes never change with
	// -seconds.
	Params string
	// Why is the reason the workload exists (BENCHMARK.json's "why").
	Why string
	// Op names what one measured operation is.
	Op string
	// SetupReps is how many times set-up runs; setup_s is their median.
	SetupReps int
}

var workloads = []workloadSpec{
	{
		Name:      "fw_im_coarse",
		Params:    "Session.APSP, IM driver, iterative kernels, n=1024 b=256 (r=4)",
		Why:       "Kernel-bound big-tile regime: 7 of 16 tile updates per iteration are aliased kinds A/B/C; a kernel gain must show here.",
		Op:        "one solve: graph in memory to verified distance matrix",
		SetupReps: 3,
	},
	{
		Name:      "fw_im_fine",
		Params:    "Session.APSP, IM driver, iterative kernels, n=512 b=8 (r=64)",
		Why:       "Engine-bound: 64 iterations x 4096 tiles, kernels a small share; shuffle, boxing, dispatch and GC do the work, a kernel change must not show.",
		Op:        "one solve: graph in memory to verified distance matrix",
		SetupReps: 3,
	},
	{
		Name:      "ge_cb_rec",
		Params:    "Session.SolveLinear, CB driver, recursive kernels RShared=4, kernel threads 2, 2047 unknowns (table n=2048) b=256 (r=8)",
		Why:       "Same layers used differently: collect/broadcast instead of shuffle, recursive kernels on the shared pool, GE instead of min-plus.",
		Op:        "one solve: system in memory to verified solution vector",
		SetupReps: 3,
	},
	{
		Name:      "fw_durable",
		Params:    "core.Run IM n=1024 b=128 (r=8) with DurableDir, SpillCodec and an 8 MiB MemoryBudget",
		Why:       "Durable write path: block store, tile codec and checkpoint files do most of the work; a gain for the read path that costs writes shows here.",
		Op:        "one durable solve: matrix in memory to verified result, every boundary checkpointed",
		SetupReps: 3,
	},
	{
		Name:      "fw_resume",
		Params:    "LoadCheckpointAt(r/2) + core.Resume of the fw_durable problem (n=1024 b=128, same store settings)",
		Why:       "Durable read path: checkpoint load, tile decode and the resumed half run; a gain for writes that costs recovery shows here.",
		Op:        "one resume: checkpoint on disk to verified result, bit-identical to the uninterrupted run",
		SetupReps: 3,
	},
	{
		Name:      "serve_mix",
		Params:    "cmd/dpspark serve -journal -max-jobs 2 -max-queue 16 as a child process; closed loop, min(nproc,4) keep-alive clients, seeded mix (4 tenants; fw:ge 1:1; im:cb 1:1; n 64/128/256 at 60/30/10 %, block n/4; priority 0/1; 16 input seeds), status polled every 2 ms",
		Why:       "The product path HTTP, journal fsync, queue, slot, stage, kernel, result; closed loop because a caller waits for its result. Journal and queueing dominate.",
		Op:        "one job: POST sent to client sees the terminal state",
		SetupReps: 3,
	},
	{
		Name:      "serve_restart",
		Params:    "the serve child after kill -9 on a journal of 1000 finished jobs of the serve_mix mix: restart, wait for /readyz, re-fetch 64 results",
		Why:       "Crash recovery of the product: journal replay, compaction and readiness; re-served results must be byte-identical.",
		Op:        "one recovery: process start to /readyz 200 on the journal",
		SetupReps: 1,
	},
	{
		Name:      "model_tables",
		Params:    "experiments.TableI(8192) + experiments.TableII(8192), 60 symbolic cells",
		Why:       "The symbolic paper-scale path: no payload arithmetic, all time in sim, costmodel and rdd bookkeeping and allocation; real-mode changes must not move it.",
		Op:        "one regeneration of both tables",
		SetupReps: 2,
	},
}

// e2eSpec is one end-to-end metric. Every workload reports every one.
type e2eSpec struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median by which the metric may
	// worsen before a change counts as a regression.
	Bound float64
}

// The bounds are the widest the contract allows: on the 2-core sandbox
// the machine itself slows by 15-25 % for half a minute at a time, CPU
// seconds included, and quartile spreads of 10-20 % were measured on
// every metric (README.md, "Measured spread").
var endToEnd = []e2eSpec{
	// Median time of one operation; each workload's Op says what that is.
	{"time_to_result_ms_p50", "ms", "lower", 0.25},
	// Operations completed per second of the measured phase.
	{"results_per_s", "1/s", "higher", 0.25},
	// User+system CPU of the measured process (the server child for the
	// serve workloads) per operation.
	{"cpu_s_per_op", "s", "lower", 0.25},
	// Maximum resident set of the measured process.
	{"peak_rss_mb", "MB", "lower", 0.25},
	// Median set-up time: inputs from the seed, session or server start,
	// warm-up. Building the binaries is not part of it.
	{"setup_s", "s", "lower", 0.25},
}

// layerSpec is one per-layer metric. A workload that bypasses the layer,
// or on which the probe is not run, reports 0.
type layerSpec struct {
	Name, Unit, Better string
	// On lists the workloads that measure the metric.
	On []string
}

// Workload groups used by the per-layer table.
var (
	wlEngine = []string{"fw_im_coarse", "fw_im_fine", "ge_cb_rec", "fw_durable", "fw_resume"}
	wlInProc = append(append([]string(nil), wlEngine...), "model_tables")
	wlSolved = []string{"fw_im_coarse", "fw_im_fine", "ge_cb_rec", "fw_durable"}
)

func on(names ...string) []string { return names }

var perLayer = buildPerLayer()

func buildPerLayer() []layerSpec {
	var out []layerSpec
	add := func(name, unit, better string, on []string) {
		out = append(out, layerSpec{name, unit, better, on})
	}
	kinds := []string{"A", "B", "C", "D"}

	// kernels: direct Exec.Apply/ApplyWith probes plus the program's own
	// kernel series read in the traced pass.
	for _, k := range kinds {
		add("kernels.iter_fw_"+k+"_b256.ns_per_update", "ns", "lower", on("fw_im_coarse"))
	}
	add("kernels.iter_fw_D_b8.ns_per_update", "ns", "lower", on("fw_im_fine"))
	for _, k := range kinds {
		add("kernels.rec4_ge_"+k+"_b256_t2.ns_per_update", "ns", "lower", on("ge_cb_rec"))
	}
	add("kernels.iter_fw_D_b256.gbps_computed", "GB/s", "higher", on("fw_im_coarse"))
	engineAndServe := append(append([]string(nil), wlEngine...), "serve_mix")
	for _, k := range kinds {
		add("kernels.calls_"+k, "count", "lower", engineAndServe)
	}
	for _, k := range kinds {
		add("kernels.wall_s_"+k, "s", "lower", engineAndServe)
	}
	add("kernels.pool_spawned", "count", "lower", wlEngine)
	add("kernels.pool_inlined", "count", "lower", wlEngine)
	add("kernels.pool_handoffs", "count", "lower", wlEngine)
	add("kernels.est_share", "ratio", "higher", engineAndServe)

	// rdd
	add("rdd.stages", "count", "lower", wlEngine)
	add("rdd.tasks", "count", "lower", wlEngine)
	add("rdd.shuffle_bytes", "B", "lower", wlEngine)
	add("rdd.broadcast_bytes", "B", "lower", wlEngine)
	add("rdd.max_task_skew", "ratio", "lower", wlEngine)
	add("rdd.shuffle_records_per_s", "1/s", "higher", on("fw_im_fine"))
	add("rdd.stage_overhead_us", "us", "lower", on("fw_im_fine"))
	add("rdd.task_overhead_us", "us", "lower", on("fw_im_fine"))
	add("rdd.est_engine_s", "s", "lower", wlEngine)

	// core
	add("core.run_s", "s", "lower", wlEngine)
	add("core.convert_s", "s", "lower", wlEngine)
	add("core.block_s", "s", "lower", wlEngine)
	add("core.unblock_s", "s", "lower", wlEngine)
	add("core.load_checkpoint_s", "s", "lower", on("fw_resume"))
	add("core.modelled_s", "s_modelled", "lower", wlEngine) // virtual clock, not wall time
	add("core.iterations", "count", "lower", wlEngine)
	add("core.updates_per_s", "1/s", "higher", wlEngine)
	add("core.serial_baseline_s", "s", "lower", wlSolved)
	add("core.speedup_vs_serial", "ratio", "higher", wlSolved)

	// matrix
	add("matrix.encode_tile_mbps", "MB/s", "higher", on("fw_durable"))
	add("matrix.decode_tile_mbps", "MB/s", "higher", on("fw_resume"))
	add("matrix.block_mbps", "MB/s", "higher", on("fw_durable"))

	// store
	add("store.put_spill_mbps", "MB/s", "higher", on("fw_durable"))
	add("store.get_disk_mbps", "MB/s", "higher", on("fw_resume"))
	add("store.ckpt_write_mbps", "MB/s", "higher", on("fw_durable"))
	add("store.ckpt_read_mbps", "MB/s", "higher", on("fw_resume"))
	add("store.frame_append_mbps", "MB/s", "higher", on("serve_mix"))
	add("store.frame_read_mbps", "MB/s", "higher", on("serve_restart"))
	add("store.spilled_blocks", "count", "lower", wlEngine)
	add("store.evicted_blocks", "count", "lower", wlEngine)
	add("store.corrupt_blocks", "count", "lower", wlEngine)
	add("store.spill_wall_s", "s", "lower", wlEngine)
	add("store.fsync_ms_p50", "ms", "lower", on("fw_durable", "serve_mix", "serve_restart"))

	// serve
	for _, m := range []string{"admission", "queue_wait", "run"} {
		add("serve."+m+"_ms_p50", "ms", "lower", on("serve_mix"))
		add("serve."+m+"_ms_p99", "ms", "lower", on("serve_mix"))
	}
	add("serve.server_time_to_result_ms_p50", "ms", "lower", on("serve_mix"))
	add("serve.time_to_result_ms_p99", "ms", "lower", on("serve_mix"))
	add("serve.status_get_ms_p50", "ms", "lower", on("serve_mix"))
	add("serve.rejected_frac", "ratio", "lower", on("serve_mix"))
	add("serve.submit_direct_ms_p50", "ms", "lower", on("serve_mix"))
	add("serve.submit_nojournal_ms_p50", "ms", "lower", on("serve_mix"))
	add("serve.jobs_per_s_nojournal", "1/s", "higher", on("serve_mix"))
	add("serve.journal_bytes_per_job", "B", "lower", on("serve_mix", "serve_restart"))
	add("serve.recover_jobs_per_s", "1/s", "higher", on("serve_restart"))

	// model
	add("model.cells", "count", "lower", on("model_tables"))
	add("model.cell_ms_p50", "ms", "lower", on("model_tables"))
	add("model.allocs_per_cell", "count", "lower", on("model_tables"))
	add("model.alloc_mb_per_cell", "MB", "lower", on("model_tables"))
	add("model.best_model_s_tableI", "s_modelled", "lower", on("model_tables"))
	add("model.best_model_s_tableII", "s_modelled", "lower", on("model_tables"))

	// go runtime, over the traced timed phase of in-process workloads
	add("go.allocs_per_op", "count", "lower", wlInProc)
	add("go.alloc_mb_per_op", "MB", "lower", wlInProc)
	add("go.gc_cycles_per_op", "count", "lower", wlInProc)
	add("go.gc_pause_ms_total", "ms", "lower", wlInProc)
	add("go.gc_cpu_frac", "ratio", "lower", wlInProc)
	add("go.heap_peak_mb", "MB", "lower", wlInProc)

	// obs
	add("obs.trace_overhead_frac", "ratio", "lower", wlInProc)
	add("obs.metrics_scrape_ms_p50", "ms", "lower", on("serve_mix"))
	return out
}

// layerOf is the module a per-layer metric belongs to.
func layerOf(metric string) string {
	layer, _, _ := strings.Cut(metric, ".")
	return layer
}

// exactMetrics are the per-layer metrics that are a pure function of the
// input and the commit: two traced runs of one seed must agree on them to
// the last digit. (Allocation and GC counts, pool scheduling counters and
// the per-job averages of the time-bound serve runs are not.)
var exactMetrics = map[string]bool{
	"kernels.calls_A": true, "kernels.calls_B": true, "kernels.calls_C": true, "kernels.calls_D": true,
	"rdd.stages": true, "rdd.tasks": true, "rdd.shuffle_bytes": true, "rdd.broadcast_bytes": true,
	"core.modelled_s": true, "core.iterations": true,
	"store.spilled_blocks": true, "store.evicted_blocks": true, "store.corrupt_blocks": true,
	"model.cells": true, "model.best_model_s_tableI": true, "model.best_model_s_tableII": true,
}

// exactOn reports whether the metric must repeat exactly on the workload.
func (l layerSpec) exactOn(workload string) bool {
	return exactMetrics[l.Name] && l.measuredOn(workload) && workload != "serve_mix"
}

// measuredOn reports whether the workload measures the per-layer metric.
func (l layerSpec) measuredOn(workload string) bool {
	for _, w := range l.On {
		if w == workload {
			return true
		}
	}
	return false
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
