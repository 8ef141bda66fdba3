package core

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"dpspark/internal/matrix"
	"dpspark/internal/obs"
	"dpspark/internal/rdd"
	"dpspark/internal/store"
)

// Driver checkpoint–restart: with Config.DurableDir set, every
// CheckpointEvery boundary the drivers already materialize for lineage
// truncation is additionally persisted — the full tile grid through the
// matrix codec plus a JSON meta section holding the iteration cursor,
// the problem shape and the engine's restartable scheduler state
// (stage/shuffle numbering, fired fault-plan events, crash strikes).
// Files are written atomically and checksummed per section
// (store.WriteCheckpoint), so a driver killed mid-write leaves the
// previous boundary intact. Resume restarts the loop at the cursor;
// because the persisted tiles carry their ownership generation tags and
// the restored engine state continues the global stage numbering, the
// resumed run's remaining fault events fire at the same points and the
// result is bit-identical to the uninterrupted run.

// CheckpointMeta describes one durable driver checkpoint.
type CheckpointMeta struct {
	// Iteration is the number of completed iterations — the k Resume
	// restarts the driver loop at.
	Iteration int `json:"iteration"`
	// N, B and R are the problem size, tile size and grid dimension.
	N int `json:"n"`
	B int `json:"b"`
	R int `json:"r"`
	// Rule and Driver name the update rule and tile-movement strategy;
	// Resume refuses a Config that does not match.
	Rule   string `json:"rule"`
	Driver string `json:"driver"`
	// Partitions and CheckpointEvery pin the scheduling shape: both
	// change stage numbering or record routing, so Resume requires the
	// same values the interrupted run used.
	Partitions      int `json:"partitions"`
	CheckpointEvery int `json:"checkpoint_every"`
	// Engine is the scheduler state to restore via rdd.Conf.Restore.
	Engine rdd.EngineState `json:"engine"`
}

// checkpoint truncates dp's lineage at iteration k's boundary — the
// cadence materialization both drivers run anyway — and, when durable,
// persists the materialized grid and engine state. CheckpointData
// returns the rows the truncation stage computed, so the durable path
// adds no stage: numbering, fault firing points and the virtual clock
// are identical with and without DurableDir, and whether or not
// DurableInterval defers this boundary's file. stopping marks the
// boundary the run ends at early (StopRequested, StopAfter): what a later
// Resume starts from, so the interval never defers it.
func (run *runner) checkpoint(dp *rdd.RDD[Block], k int, durable, stopping bool) error {
	if !durable || run.cfg.DurableDir == "" {
		return dp.Checkpoint()
	}
	if !stopping && run.cfg.DurableInterval > 0 && time.Since(run.lastDurable) < run.cfg.DurableInterval {
		run.durableCounter("deferred").Inc()
		return dp.Checkpoint()
	}
	parts, err := dp.CheckpointData()
	if err != nil {
		return err
	}
	if err := run.persist(parts, k); err != nil {
		return err
	}
	run.durableCounter("written").Inc()
	run.lastDurable = time.Now()
	return nil
}

// durableCounter counts the run's durable cadence boundaries by what
// became of them: "written" to DurableDir, or "deferred" by
// DurableInterval.
func (run *runner) durableCounter(outcome string) *obs.Counter {
	return run.ctx.Observer().Metrics().Counter("dpspark_durable_checkpoints_total", obs.Labels{"outcome": outcome})
}

// persist writes the checkpoint file for iteration k's boundary.
func (run *runner) persist(parts [][]Block, k int) error {
	blocks := make([]Block, 0, run.r*run.r)
	for _, p := range parts {
		blocks = append(blocks, p...)
	}
	if len(blocks) != run.r*run.r {
		return fmt.Errorf("core: checkpoint %d has %d blocks, want %d", k+1, len(blocks), run.r*run.r)
	}
	// Row-major order makes the blocks section a pure function of the
	// grid contents, independent of partition layout.
	sort.Slice(blocks, func(i, j int) bool {
		a, b := blocks[i].Key, blocks[j].Key
		if a.I != b.I {
			return a.I < b.I
		}
		return a.J < b.J
	})
	size := 0
	for _, b := range blocks {
		size += 8 + b.Value.EncodedTileLen()
	}
	// The grid has the same encoded size at every boundary, so after the
	// first checkpoint this reuses one buffer for the whole run.
	if cap(run.ckptBuf) < size {
		run.ckptBuf = make([]byte, 0, size)
	}
	buf := run.ckptBuf[:0]
	for _, b := range blocks {
		buf = appendCoord(buf, b.Key)
		buf = matrix.AppendTile(buf, b.Value)
	}
	meta := CheckpointMeta{
		Iteration:       k + 1,
		N:               run.n,
		B:               run.cfg.BlockSize,
		R:               run.r,
		Rule:            run.cfg.Rule.Name(),
		Driver:          run.cfg.Driver.String(),
		Partitions:      run.cfg.Partitions,
		CheckpointEvery: run.cfg.CheckpointEvery,
		Engine:          run.ctx.EngineState(),
	}
	mj, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("core: checkpoint meta: %w", err)
	}
	if err := store.WriteCheckpoint(run.cfg.DurableDir, k+1, mj, buf); err != nil {
		return err
	}
	run.ctx.Observer().Flight().Record(obs.Event{
		Clock: run.ctx.Clock().Seconds(), Type: obs.EvCheckpoint,
		Stage: -1, Part: -1, Node: -1, Shuffle: -1,
		Detail: fmt.Sprintf("iteration %d (%d blocks, %d bytes)", k+1, len(blocks), len(buf)),
	})
	if run.cfg.KeepCheckpoints > 0 {
		// Retention runs only after the new boundary verified (GC re-reads
		// it); a crash anywhere in here leaves at least the newest K
		// intact files on disk.
		store.GCCheckpoints(run.cfg.DurableDir, run.cfg.KeepCheckpoints)
	}
	return nil
}

// CanResume reports whether dir holds at least one intact checkpoint —
// the cheap existence probe a restarting job service uses to decide
// between checkpoint resume and a clean re-run before committing to
// either path.
func CanResume(dir string) bool {
	_, _, _, ok := store.LatestCheckpoint(dir)
	return ok
}

// LoadCheckpoint returns the newest intact checkpoint under dir (torn or
// corrupt files are skipped, exactly as a restarted driver must).
func LoadCheckpoint(dir string) (*CheckpointMeta, *matrix.Blocked, error) {
	id, meta, blocks, ok := store.LatestCheckpoint(dir)
	if !ok {
		return nil, nil, fmt.Errorf("core: no usable checkpoint under %s", dir)
	}
	return decodeCheckpoint(id, meta, blocks)
}

// LoadCheckpointAt loads one specific checkpoint id — the
// kill-at-every-boundary sweep's hook.
func LoadCheckpointAt(dir string, id int) (*CheckpointMeta, *matrix.Blocked, error) {
	meta, blocks, err := store.ReadCheckpoint(dir, id)
	if err != nil {
		return nil, nil, err
	}
	return decodeCheckpoint(id, meta, blocks)
}

// decodeCheckpoint validates the meta section and rebuilds the grid.
func decodeCheckpoint(id int, metaRaw, blockRaw []byte) (*CheckpointMeta, *matrix.Blocked, error) {
	var meta CheckpointMeta
	if err := json.Unmarshal(metaRaw, &meta); err != nil {
		return nil, nil, fmt.Errorf("core: checkpoint %d meta: %w", id, err)
	}
	if meta.Iteration != id {
		return nil, nil, fmt.Errorf("core: checkpoint %d claims iteration %d", id, meta.Iteration)
	}
	if meta.N < 1 || meta.B < 1 || meta.R != matrix.Grid(meta.N, meta.B) {
		return nil, nil, fmt.Errorf("core: checkpoint %d has inconsistent shape n=%d b=%d r=%d", id, meta.N, meta.B, meta.R)
	}
	if meta.Iteration < 0 || meta.Iteration > meta.R {
		return nil, nil, fmt.Errorf("core: checkpoint %d iteration out of range (r=%d)", id, meta.R)
	}
	bl := matrix.NewSymbolicBlocked(meta.N, meta.B)
	rest := blockRaw
	seen := make(map[matrix.Coord]bool, meta.R*meta.R)
	for i := 0; i < meta.R*meta.R; i++ {
		if len(rest) < 8 {
			return nil, nil, fmt.Errorf("core: checkpoint %d blocks truncated at %d of %d", id, i, meta.R*meta.R)
		}
		var c matrix.Coord
		c, rest = decodeCoord(rest)
		if c.I < 0 || c.I >= meta.R || c.J < 0 || c.J >= meta.R || seen[c] {
			return nil, nil, fmt.Errorf("core: checkpoint %d has invalid or duplicate block %v", id, c)
		}
		seen[c] = true
		var t *matrix.Tile
		var err error
		t, rest, err = matrix.DecodeTile(rest)
		if err != nil {
			return nil, nil, fmt.Errorf("core: checkpoint %d block %v: %w", id, c, err)
		}
		if t.B != meta.B {
			return nil, nil, fmt.Errorf("core: checkpoint %d block %v has tile size %d, want %d", id, c, t.B, meta.B)
		}
		bl.SetTile(c, t)
	}
	if len(rest) != 0 {
		return nil, nil, fmt.Errorf("core: checkpoint %d has %d trailing bytes", id, len(rest))
	}
	return &meta, bl, nil
}

// check validates a Resume Config against the checkpoint it restarts.
func (m *CheckpointMeta) check(bl *matrix.Blocked, cfg Config) error {
	if m.Rule != cfg.Rule.Name() {
		return fmt.Errorf("core: checkpoint was written by rule %q, Config has %q", m.Rule, cfg.Rule.Name())
	}
	if m.Driver != cfg.Driver.String() {
		return fmt.Errorf("core: checkpoint was written by the %s driver, Config has %s", m.Driver, cfg.Driver)
	}
	if m.N != bl.N || m.B != bl.B || m.R != bl.R {
		return fmt.Errorf("core: checkpoint shape n=%d b=%d r=%d does not match table n=%d b=%d r=%d",
			m.N, m.B, m.R, bl.N, bl.B, bl.R)
	}
	if m.Partitions != cfg.Partitions {
		return fmt.Errorf("core: checkpoint used %d partitions, Config has %d — routing must match for a faithful resume",
			m.Partitions, cfg.Partitions)
	}
	if m.CheckpointEvery != cfg.CheckpointEvery {
		return fmt.Errorf("core: checkpoint used CheckpointEvery %d, Config has %d — stage numbering must match for a faithful resume",
			m.CheckpointEvery, cfg.CheckpointEvery)
	}
	return nil
}

// Resume continues a Run from a checkpoint loaded by LoadCheckpoint or
// LoadCheckpointAt: the driver loop restarts at meta.Iteration over the
// persisted grid. ctx must have been built with Conf.Restore =
// &meta.Engine (and, under a fault plan, the interrupted run's plan), so
// stage numbering continues and already-fired events stay fired; the
// resumed result is then bit-identical to the uninterrupted run's.
// Resume takes ownership of bl — the decoded tiles keep their
// checkpointed generation tags so replay semantics continue exactly
// where the interrupted run left them.
func Resume(ctx *rdd.Context, meta *CheckpointMeta, bl *matrix.Blocked, cfg Config) (*matrix.Blocked, *Stats, error) {
	if bl.B != cfg.BlockSize {
		return nil, nil, fmt.Errorf("core: blocked matrix tile size %d != Config.BlockSize %d", bl.B, cfg.BlockSize)
	}
	if err := cfg.normalize(ctx); err != nil {
		return nil, nil, err
	}
	if err := meta.check(bl, cfg); err != nil {
		return nil, nil, err
	}
	return execute(ctx, bl, cfg, meta.Iteration, false)
}

// blocksKeepingGen flattens a checkpointed grid without disowning the
// tiles (contrast BlocksFromMatrix): the persisted generation tags are
// the replay-semantics state of the interrupted run.
func blocksKeepingGen(bl *matrix.Blocked) []Block {
	out := make([]Block, 0, bl.R*bl.R)
	for _, c := range bl.Coords() {
		out = append(out, rdd.KV(c, bl.Tile(c)))
	}
	return out
}
