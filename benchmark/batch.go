package main

import (
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"dpspark"
	"dpspark/internal/cluster"
	"dpspark/internal/core"
	"dpspark/internal/ge"
	"dpspark/internal/kernels"
	"dpspark/internal/matrix"
	"dpspark/internal/obs"
	"dpspark/internal/rdd"
	"dpspark/internal/semiring"
)

// batch drives a workload that runs inside the harness process: the
// solver is called as a library, the way a batch user calls it.
type batch struct {
	// setup makes the inputs from the seed and warms up; it is timed as
	// setup_s and may run several times.
	setup func(e *env) error
	// prepare computes what the checks compare against, once, untimed,
	// after set-up.
	prepare func(e *env) error
	// solve runs one operation and checks its output. It returns the
	// operation's seconds; checking is not part of them. With a tracer it
	// calls the layers one by one and records a span around each.
	solve func(e *env, tr *tracer, id int) (float64, error)
	// report fills in the per-layer metrics after the traced solves.
	report func(e *env, tr *tracer, solves int, m map[string]float64) error
}

// loop runs operations for the given seconds (at least two) and returns
// their durations and how many failed a check or returned an error.
func (b *batch) loop(e *env, tr *tracer, seconds float64, firstID int) (durs []float64, failed int) {
	start := time.Now()
	for id := firstID; time.Since(start).Seconds() < seconds || id-firstID < 2; id++ {
		d, err := b.solve(e, tr, id)
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "benchmark: %s operation %d: %v\n", e.spec.Name, id, err)
			continue
		}
		durs = append(durs, d)
	}
	return durs, failed
}

func (b *batch) setUp(e *env, reps int) ([]float64, error) {
	var setupS []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := b.setup(e); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	if err := b.prepare(e); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return setupS, nil
}

func (b *batch) measure(e *env) (*measured, error) {
	setupS, err := b.setUp(e, e.spec.SetupReps)
	if err != nil {
		return nil, err
	}
	cpu0, _ := selfUsage()
	t0 := time.Now()
	durs, failed := b.loop(e, nil, e.seconds, 0)
	elapsed := time.Since(t0).Seconds()
	cpu1, rss := selfUsage()
	return &measured{
		opSeconds: durs, elapsed: elapsed,
		cpuS: cpu1 - cpu0, cpuOps: len(durs) + failed,
		peakRSSMB: rss, setupS: setupS, failed: failed,
	}, nil
}

// traced gives a third of the run to plain operations and a third to
// traced ones; the difference of their medians is the tracing overhead.
func (b *batch) traced(e *env) (map[string]float64, int, int, error) {
	if _, err := b.setUp(e, 1); err != nil {
		return nil, 0, 0, err
	}
	plain, failedPlain := b.loop(e, nil, e.seconds/3, 0)
	tr := &tracer{}
	g0 := snapGo()
	durs, failed := b.loop(e, tr, e.seconds/3, len(plain)+failedPlain)
	g1 := snapGo()
	failed += failedPlain
	attempted := len(plain) + len(durs) + failed
	if len(durs) == 0 || len(plain) == 0 {
		return nil, attempted, failed, nil
	}
	m := map[string]float64{}
	goLayer(m, g0, g1, len(durs))
	m["obs.trace_overhead_frac"] = (median(durs) - median(plain)) / median(plain)
	if err := b.report(e, tr, len(durs), m); err != nil {
		return nil, 0, 0, err
	}
	fmt.Fprintf(e.log, "traced %d operations (plain median %.4f s, traced median %.4f s)\n", len(durs), median(plain), median(durs))
	return m, attempted, failed, tr.finish(e, "solve")
}

// engineRun is what the checks and the per-layer report keep of one
// engine run.
type engineRun struct {
	stats         *core.Stats
	stages, tasks int
}

func engineRunOf(ctx *rdd.Context, st *core.Stats) engineRun {
	r := engineRun{stats: st}
	for _, ev := range ctx.Events() {
		r.stages++
		r.tasks += ev.Tasks
	}
	return r
}

// sameCounts checks the counters that must repeat exactly between solves
// of one input.
func (r engineRun) sameCounts(first engineRun) error {
	a, b := r.stats, first.stats
	if a.Time != b.Time || a.ShuffleBytes != b.ShuffleBytes || a.Iterations != b.Iterations {
		return fmt.Errorf("run stats differ between repetitions: modelled %v/%v shuffle bytes %d/%d iterations %d/%d",
			a.Time, b.Time, a.ShuffleBytes, b.ShuffleBytes, a.Iterations, b.Iterations)
	}
	return nil
}

// repeats holds what repeated solves of one input must agree on, and the
// observer the traced solves share so that the kernel series accumulate.
type repeats struct {
	first    []float64 // first checked result: later ones must match its bits
	firstRun engineRun
	last     engineRun
	obsv     *obs.Observer
}

// check compares a solve with the first one: same result bits, same
// modelled time, shuffle bytes and iterations.
func (r *repeats) check(result []float64, run engineRun) error {
	if r.first == nil {
		r.first, r.firstRun = result, run
	} else {
		if !sameBits(result, r.first) {
			return fmt.Errorf("result bits differ from the first repetition's")
		}
		if err := run.sameCounts(r.firstRun); err != nil {
			return err
		}
	}
	r.last = run
	return nil
}

// observer returns the shared observer of the traced solves.
func (r *repeats) observer() *obs.Observer {
	if r.obsv == nil {
		r.obsv = obs.New()
	}
	return r.obsv
}

// engineLayer fills the core, rdd, kernels and store metrics one engine
// workload reports: span medians from the tracer, counts from the last
// solve's Stats and stage events, kernel series from the observer the
// traced solves shared.
func engineLayer(e *env, m map[string]float64, tr *tracer, solves int, run engineRun, o *obs.Observer, rule semiring.Rule, b int, serialS float64) {
	st := run.stats
	for name, metric := range map[string]string{
		"block": "core.block_s", "core.run": "core.run_s",
		"unblock": "core.unblock_s", "load_checkpoint": "core.load_checkpoint_s",
	} {
		m[metric] = median(tr.durations(name))
	}
	// GE converts twice per solve (Augment before, BackSubstitute after):
	// report the conversions of one solve together.
	for _, c := range tr.durations("convert") {
		m["core.convert_s"] += c / float64(solves)
	}
	solveS := median(tr.durations("solve"))
	sum := m["core.convert_s"] + m["core.block_s"] + m["core.run_s"] + m["core.unblock_s"] + m["core.load_checkpoint_s"]
	fmt.Fprintf(e.log, "core.{convert,block,run,unblock,load_checkpoint}_s sum to %.4f s; the median traced operation takes %.4f s (%+.1f%%)\n",
		sum, solveS, 100*(sum-solveS)/solveS)
	m["core.modelled_s"] = st.Time.Seconds()
	m["core.iterations"] = float64(st.Iterations)
	if serialS > 0 {
		m["core.serial_baseline_s"] = serialS
		m["core.speedup_vs_serial"] = serialS / solveS
	}

	m["rdd.stages"] = float64(run.stages)
	m["rdd.tasks"] = float64(run.tasks)
	m["rdd.shuffle_bytes"] = float64(st.ShuffleBytes)
	m["rdd.broadcast_bytes"] = float64(st.BroadcastBytes)
	m["rdd.max_task_skew"] = st.MaxTaskSkew

	m["kernels.pool_spawned"] = float64(st.KernelSpawned)
	m["kernels.pool_inlined"] = float64(st.KernelInlined)
	m["kernels.pool_handoffs"] = float64(st.KernelHandoffs)

	m["store.spilled_blocks"] = float64(st.SpilledBlocks)
	m["store.evicted_blocks"] = float64(st.EvictedBlocks)
	m["store.corrupt_blocks"] = float64(st.CorruptBlocks)
	m["store.spill_wall_s"] = st.SpillWall.Seconds()

	ks := kernelSeries(o)
	var kernelWall, updates float64
	for kind := semiring.KindA; kind <= semiring.KindD; kind++ {
		k := kind.String()
		m["kernels.calls_"+k] = ks.calls[k] / float64(solves)
		m["kernels.wall_s_"+k] = ks.wall[k] / float64(solves)
		kernelWall += ks.wall[k] / float64(solves)
		// Calls include lineage replays, which are priced but not
		// executed; the wall-time histogram counts real executions.
		updates += ks.execs[k] / float64(solves) * float64(kernels.Updates(rule, kind, b))
	}
	runS := m["core.run_s"]
	if runS > 0 {
		// Estimates made from outside: kernel wall time is summed over
		// the tasks that run at once (RealParallelism, at most GOMAXPROCS
		// of them on a CPU), so it is spread over them before it is
		// compared with the driver's wall time.
		slots := float64(e.procs)
		m["kernels.est_share"] = kernelWall / (runS * slots)
		m["rdd.est_engine_s"] = runS - kernelWall/slots
	}
	if solveS > 0 {
		m["core.updates_per_s"] = updates / solveS
	}
}

// kernelTotals are the program's own kernel series summed per kernel
// kind: priced calls, real executions and their wall seconds.
type kernelTotals struct{ calls, execs, wall map[string]float64 }

// kernelSeries reads them from an observer's registry.
func kernelSeries(o *obs.Observer) kernelTotals {
	var text strings.Builder
	_ = o.Metrics().WritePrometheus(&text) // writes to memory
	return kernelSeriesFrom(parseProm(text.String()))
}

func kernelSeriesFrom(samples []promSample) kernelTotals {
	t := kernelTotals{map[string]float64{}, map[string]float64{}, map[string]float64{}}
	for _, s := range samples {
		switch s.name {
		case "dpspark_kernel_calls_total":
			t.calls[s.labels["kind"]] += s.value
		case "dpspark_kernel_wall_seconds_count":
			t.execs[s.labels["kind"]] += s.value
		case "dpspark_kernel_wall_seconds_sum":
			t.wall[s.labels["kind"]] += s.value
		}
	}
	return t
}

// closeTo compares a result with its reference to 1e-9 relative.
func closeTo(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("result has %d values, reference %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g == w { // also equal infinities
			continue
		}
		if math.Abs(g-w) > 1e-9*math.Max(1, math.Abs(w)) || math.IsNaN(g) {
			return fmt.Errorf("value %d is %v, reference %v", i, g, w)
		}
	}
	return nil
}

// sameBits reports whether two results are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// plainFloydWarshall is the reference and the serial baseline: the
// textbook triple loop, single-threaded, on a copy of the input.
func plainFloydWarshall(d0 *matrix.Dense) (*matrix.Dense, float64) {
	d := d0.Clone()
	n := d.N
	t0 := time.Now()
	for k := 0; k < n; k++ {
		rk := d.Data[k*n : (k+1)*n]
		for i := 0; i < n; i++ {
			ri := d.Data[i*n : (i+1)*n]
			dik := ri[k]
			if math.IsInf(dik, 1) {
				continue
			}
			for j, v := range rk {
				if s := dik + v; s < ri[j] {
					ri[j] = s
				}
			}
		}
	}
	return d, time.Since(t0).Seconds()
}

// --- fw_im_coarse, fw_im_fine ---

// fwWorkload is Session.APSP with the IM driver and iterative kernels.
type fwWorkload struct {
	batch
	n, b int
	g    *dpspark.Graph

	ref     *matrix.Dense // plain Floyd-Warshall of the input
	serialS float64
	repeats
}

func newFW(n, b int) *fwWorkload {
	w := &fwWorkload{n: n, b: b}
	w.batch = batch{setup: w.setup, prepare: w.prepare, solve: w.solve, report: w.report}
	return w
}

func (w *fwWorkload) config() dpspark.Config {
	return dpspark.Config{BlockSize: w.b, Driver: dpspark.IM}
}

func (w *fwWorkload) setup(e *env) error {
	w.g = dpspark.RandomGraph(w.n, 0.05, 1, 10, e.seed)
	for i := 0; i < 2; i++ { // warm-up solves, discarded
		s := dpspark.NewSession(dpspark.Local(e.procs))
		if _, _, err := s.APSP(w.g, w.config()); err != nil {
			return err
		}
	}
	return nil
}

func (w *fwWorkload) prepare(*env) error {
	w.ref, w.serialS = plainFloydWarshall(w.g.DistanceMatrix())
	return nil
}

func (w *fwWorkload) solve(e *env, tr *tracer, id int) (float64, error) {
	var dist *matrix.Dense
	var st *core.Stats
	var ctx *rdd.Context
	var err error
	t0 := time.Now()
	if tr == nil {
		s := dpspark.NewSession(dpspark.Local(e.procs))
		ctx = s.Context()
		dist, st, err = s.APSP(w.g, w.config())
	} else {
		// What Session.APSP does, one layer call at a time.
		root := tr.begin("solve", "harness", id, -1)
		ctx = rdd.NewContext(rdd.Conf{Cluster: cluster.Local(e.procs), Observer: w.observer()})
		cfg := w.config()
		cfg.Rule = semiring.NewFloydWarshall()
		sp := tr.begin("convert", "core", id, root)
		d0 := w.g.DistanceMatrix()
		tr.end(sp)
		sp = tr.begin("block", "core", id, root)
		bl := matrix.Block(d0, w.b, cfg.Rule.Pad(), cfg.Rule.PadDiag())
		tr.end(sp)
		sp = tr.begin("core.run", "core", id, root)
		var out *matrix.Blocked
		out, st, err = core.Run(ctx, bl, cfg)
		tr.end(sp)
		if err == nil {
			sp = tr.begin("unblock", "core", id, root)
			dist = out.ToDense()
			tr.end(sp)
		}
		tr.end(root)
	}
	d := time.Since(t0).Seconds()
	if err != nil {
		return 0, err
	}
	if err := closeTo(dist.Data, w.ref.Data); err != nil {
		return 0, fmt.Errorf("against plain Floyd-Warshall: %w", err)
	}
	return d, w.check(dist.Data, engineRunOf(ctx, st))
}

func (w *fwWorkload) report(e *env, tr *tracer, solves int, m map[string]float64) error {
	rule := semiring.NewFloydWarshall()
	engineLayer(e, m, tr, solves, w.last, w.obsv, rule, w.b, w.serialS)
	if w.b == 256 {
		probeIterFW(m, 256, []semiring.Kind{semiring.KindA, semiring.KindB, semiring.KindC, semiring.KindD})
	} else {
		probeIterFW(m, 8, []semiring.Kind{semiring.KindD})
		probeRDD(m, e.procs)
	}
	return nil
}

// --- ge_cb_rec ---

// geWorkload is Session.SolveLinear with the CB driver and 4-way
// recursive kernels on a shared pool of two kernel threads.
type geWorkload struct {
	batch
	a   *matrix.Dense
	rhs []float64

	rhsNorm float64
	serialS float64
	repeats
}

const (
	geUnknowns      = 2047 // the GEP table is (m+1) x (m+1) = 2048 x 2048
	geBlock         = 256
	geKernelThreads = 2
)

func newGE() *geWorkload {
	w := &geWorkload{}
	w.batch = batch{setup: w.setup, prepare: w.prepare, solve: w.solve, report: w.report}
	return w
}

func (w *geWorkload) config() dpspark.Config {
	return dpspark.Config{BlockSize: geBlock, Driver: dpspark.CB, RecursiveKernel: true, RShared: 4}
}

func (w *geWorkload) setup(e *env) error {
	w.a, w.rhs = dpspark.RandomSystem(geUnknowns, e.seed)
	s := dpspark.NewSessionKernelThreads(dpspark.Local(e.procs), geKernelThreads)
	_, _, err := s.SolveLinear(w.a, w.rhs, w.config()) // warm-up, discarded
	return err
}

func (w *geWorkload) prepare(*env) error {
	w.rhsNorm = 0
	for _, v := range w.rhs {
		w.rhsNorm = math.Max(w.rhsNorm, math.Abs(v))
	}
	return nil
}

func (w *geWorkload) solve(e *env, tr *tracer, id int) (float64, error) {
	var x []float64
	var st *core.Stats
	var ctx *rdd.Context
	var err error
	t0 := time.Now()
	if tr == nil {
		s := dpspark.NewSessionKernelThreads(dpspark.Local(e.procs), geKernelThreads)
		ctx = s.Context()
		x, st, err = s.SolveLinear(w.a, w.rhs, w.config())
	} else {
		// What Session.SolveLinear does, one layer call at a time. The
		// conversions between the problem and the GEP table (Augment
		// before, BackSubstitute after) are both "convert" spans.
		root := tr.begin("solve", "harness", id, -1)
		ctx = rdd.NewContext(rdd.Conf{Cluster: cluster.Local(e.procs), KernelThreads: geKernelThreads, Observer: w.observer()})
		cfg := w.config()
		cfg.Rule = semiring.NewGaussian()
		sp := tr.begin("convert", "core", id, root)
		var table *matrix.Dense
		table, err = ge.Augment(w.a, w.rhs)
		tr.end(sp)
		if err == nil {
			sp = tr.begin("block", "core", id, root)
			bl := matrix.Block(table, geBlock, cfg.Rule.Pad(), cfg.Rule.PadDiag())
			tr.end(sp)
			sp = tr.begin("core.run", "core", id, root)
			var out *matrix.Blocked
			out, st, err = core.Run(ctx, bl, cfg)
			tr.end(sp)
			if err == nil {
				sp = tr.begin("unblock", "core", id, root)
				elim := out.ToDense()
				tr.end(sp)
				sp = tr.begin("convert", "core", id, root)
				x, err = ge.BackSubstitute(elim)
				tr.end(sp)
			}
		}
		tr.end(root)
	}
	d := time.Since(t0).Seconds()
	if err != nil {
		return 0, err
	}
	if res := dpspark.Residual(w.a, x, w.rhs); !(res <= 1e-8*w.rhsNorm) {
		return 0, fmt.Errorf("residual max|Ax-b| = %g exceeds 1e-8 * |b| = %g", res, 1e-8*w.rhsNorm)
	}
	return d, w.check(x, engineRunOf(ctx, st))
}

func (w *geWorkload) report(e *env, tr *tracer, solves int, m map[string]float64) error {
	if w.serialS == 0 {
		w.serialS = plainGaussianSolve(w.a, w.rhs)
	}
	engineLayer(e, m, tr, solves, w.last, w.obsv, semiring.NewGaussian(), geBlock, w.serialS)
	probeRecGE(m, geBlock, geKernelThreads)
	return nil
}

// plainGaussianSolve is the serial baseline of ge_cb_rec: textbook
// elimination without pivoting plus back substitution, single-threaded.
// It returns the seconds taken.
func plainGaussianSolve(a *matrix.Dense, rhs []float64) float64 {
	t0 := time.Now()
	t, _ := ge.Augment(a, rhs) // lengths match by construction
	n := t.N
	for k := 0; k < n-1; k++ {
		rk := t.Data[k*n : (k+1)*n]
		piv := rk[k]
		for i := k + 1; i < n; i++ {
			ri := t.Data[i*n : (i+1)*n]
			f := ri[k] / piv
			if f == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				ri[j] -= f * rk[j]
			}
		}
	}
	x := make([]float64, n-1)
	for i := n - 2; i >= 0; i-- {
		sum := t.At(i, n-1)
		for j := i + 1; j < n-1; j++ {
			sum -= t.At(i, j) * x[j]
		}
		x[i] = sum / t.At(i, i)
	}
	return time.Since(t0).Seconds()
}
