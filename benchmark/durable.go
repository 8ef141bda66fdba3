package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"dpspark/internal/cluster"
	"dpspark/internal/core"
	"dpspark/internal/matrix"
	"dpspark/internal/obs"
	"dpspark/internal/rdd"
	"dpspark/internal/semiring"
)

// durableWorkload is FW n=1024 b=128 with the durable block store and a
// checkpoint at every iteration boundary. fw_durable times the whole
// durable solve (the write path); fw_resume times loading the checkpoint
// of iteration r/2 and resuming from it (the read path). Both use the
// same store settings, so a gain for one path that costs the other shows
// in the neighbouring workload.
type durableWorkload struct {
	batch
	resume bool
	in     *matrix.Dense

	ref     *matrix.Dense
	serialS float64
	repeats

	// fw_resume: the interrupted run's checkpoints and its final result.
	ckptDir       string
	uninterrupted *matrix.Dense
	seq           int
}

const (
	durableN      = 1024
	durableB      = 128
	durableBudget = 8 << 20
)

func newDurable(resume bool) *durableWorkload {
	w := &durableWorkload{resume: resume}
	w.batch = batch{setup: w.setup, prepare: w.prepare, solve: w.solve, report: w.report}
	return w
}

// scratch returns a fresh directory for one solve's block store.
func (w *durableWorkload) scratch(e *env) string {
	w.seq++
	return filepath.Join(e.tmp, fmt.Sprintf("run-%d", w.seq))
}

func (w *durableWorkload) conf(e *env, blocks string, o *obs.Observer) rdd.Conf {
	return rdd.Conf{
		Cluster: cluster.Local(e.procs), Observer: o,
		DurableDir: blocks, MemoryBudget: durableBudget, SpillCodec: core.TileCodec{},
	}
}

func (w *durableWorkload) config(ckpt string) core.Config {
	return core.Config{Rule: semiring.NewFloydWarshall(), BlockSize: durableB, Driver: core.IM, DurableDir: ckpt}
}

// durableSolve is one complete durable run into dir.
func (w *durableWorkload) durableSolve(e *env, tr *tracer, id, root int, dir string, o *obs.Observer) (*matrix.Dense, *rdd.Context, *core.Stats, error) {
	ctx := rdd.NewContext(w.conf(e, filepath.Join(dir, "blocks"), o))
	cfg := w.config(filepath.Join(dir, "ckpt"))
	sp := tr.begin("block", "core", id, root)
	bl := matrix.Block(w.in, durableB, cfg.Rule.Pad(), cfg.Rule.PadDiag())
	tr.end(sp)
	sp = tr.begin("core.run", "core", id, root)
	out, st, err := core.Run(ctx, bl, cfg)
	tr.end(sp)
	if err != nil {
		return nil, nil, nil, err
	}
	sp = tr.begin("unblock", "core", id, root)
	dense := out.ToDense()
	tr.end(sp)
	return dense, ctx, st, nil
}

func (w *durableWorkload) setup(e *env) error {
	rng := rand.New(rand.NewSource(e.seed))
	w.in = matrix.NewDense(durableN)
	w.in.FillRandom(rng, 1, 10)
	for i := 0; i < durableN; i++ {
		w.in.Set(i, i, 0)
	}
	dir := w.scratch(e)
	dense, _, _, err := w.durableSolve(e, nil, 0, -1, dir, nil)
	if err != nil {
		return err
	}
	if !w.resume {
		return os.RemoveAll(dir) // warm-up solve, discarded
	}
	// fw_resume keeps the run's checkpoints: every resume starts from them.
	if w.ckptDir != "" {
		if err := os.RemoveAll(filepath.Dir(w.ckptDir)); err != nil {
			return err
		}
	}
	w.ckptDir, w.uninterrupted = filepath.Join(dir, "ckpt"), dense
	_, err = w.resumeOnce(e, nil, 0, nil) // warm-up resume, discarded
	return err
}

func (w *durableWorkload) prepare(*env) error {
	w.ref, w.serialS = plainFloydWarshall(w.in)
	return nil
}

// resumeOnce loads the checkpoint of iteration r/2 and finishes the run.
func (w *durableWorkload) resumeOnce(e *env, tr *tracer, id int, o *obs.Observer) (*durableResult, error) {
	dir := w.scratch(e)
	defer os.RemoveAll(dir)
	root := tr.begin("solve", "harness", id, -1)
	defer tr.end(root)
	sp := tr.begin("load_checkpoint", "core", id, root)
	meta, bl, err := core.LoadCheckpointAt(w.ckptDir, matrix.Grid(durableN, durableB)/2)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	conf := w.conf(e, filepath.Join(dir, "blocks"), o)
	conf.Restore = &meta.Engine
	ctx := rdd.NewContext(conf)
	cfg := w.config(w.ckptDir)
	cfg.Partitions, cfg.CheckpointEvery = meta.Partitions, meta.CheckpointEvery
	sp = tr.begin("core.run", "core", id, root)
	out, st, err := core.Resume(ctx, meta, bl, cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("unblock", "core", id, root)
	dense := out.ToDense()
	tr.end(sp)
	return &durableResult{dense, engineRunOf(ctx, st)}, nil
}

type durableResult struct {
	dense *matrix.Dense
	run   engineRun
}

func (w *durableWorkload) solve(e *env, tr *tracer, id int) (float64, error) {
	var o *obs.Observer // private to each untraced solve, shared by the traced ones
	if tr != nil {
		o = w.observer()
	}
	var res *durableResult
	t0 := time.Now()
	if w.resume {
		r, err := w.resumeOnce(e, tr, id, o)
		if err != nil {
			return 0, err
		}
		res = r
	} else {
		dir := w.scratch(e)
		defer os.RemoveAll(dir)
		root := tr.begin("solve", "harness", id, -1)
		dense, ctx, st, err := w.durableSolve(e, tr, id, root, dir, o)
		tr.end(root)
		if err != nil {
			return 0, err
		}
		res = &durableResult{dense, engineRunOf(ctx, st)}
	}
	d := time.Since(t0).Seconds()

	if err := closeTo(res.dense.Data, w.ref.Data); err != nil {
		return 0, fmt.Errorf("against plain Floyd-Warshall: %w", err)
	}
	if w.resume && !sameBits(res.dense.Data, w.uninterrupted.Data) {
		return 0, fmt.Errorf("resumed result bits differ from the uninterrupted run's")
	}
	return d, w.check(res.dense.Data, res.run)
}

func (w *durableWorkload) report(e *env, tr *tracer, solves int, m map[string]float64) error {
	serial := w.serialS
	if w.resume {
		serial = 0 // half a run has no serial counterpart
	}
	engineLayer(e, m, tr, solves, w.last, w.obsv, semiring.NewFloydWarshall(), durableB, serial)
	if w.resume {
		return probeDurableRead(m, e.tmp)
	}
	return probeDurableWrite(m, e.tmp)
}
