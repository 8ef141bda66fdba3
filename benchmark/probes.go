package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"dpspark/internal/cluster"
	"dpspark/internal/kernels"
	"dpspark/internal/matrix"
	"dpspark/internal/rdd"
	"dpspark/internal/semiring"
	"dpspark/internal/store"
)

// Layer probes: direct calls into one layer's public functions, timed
// from outside. A probe runs in the traced pass of the workloads whose
// end-to-end time the layer should move (spec.go says which); its inputs
// are fixed, not seeded, because it measures the layer, not the workload.

// timeReps runs fn reps times and returns the median seconds of a call.
// prep, if not nil, runs untimed before each call.
func timeReps(reps int, prep, fn func()) float64 {
	durs := make([]float64, reps)
	for i := range durs {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		fn()
		durs[i] = time.Since(t0).Seconds()
	}
	return median(durs)
}

// probeTiles builds the operands of one kernel call: x and the pivot w
// diagonally dominant (safe for elimination), u and v uniform.
func probeTiles(b int) (x, u, v, w *matrix.Tile) {
	rng := rand.New(rand.NewSource(7))
	dominant := func() *matrix.Tile {
		d := matrix.NewDense(b)
		d.FillDiagonallyDominant(rng)
		t := matrix.NewTile(b)
		copy(t.Data, d.Data)
		return t
	}
	uniform := func() *matrix.Tile {
		t := matrix.NewTile(b)
		for i := range t.Data {
			t.Data[i] = 1 + 9*rng.Float64()
		}
		return t
	}
	return dominant(), uniform(), uniform(), dominant()
}

// probeKernel times exec on one kind with the operand wiring of the
// drivers (kernels.RunLocal) and returns ns per element update. x is
// restored before every call: repeated updates of one tile converge (FW)
// or blow up (GE) and would time a different branch mix.
func probeKernel(exec kernels.Exec, kind semiring.Kind, b, reps int) (nsPerUpdate, seconds float64) {
	x0, u, v, w := probeTiles(b)
	x := x0.Clone()
	restore := func() { copy(x.Data, x0.Data) }
	var call func()
	switch kind {
	case semiring.KindA:
		call = func() { exec.Apply(kind, x, nil, nil, nil) }
	case semiring.KindB:
		call = func() { exec.Apply(kind, x, w, nil, w) }
	case semiring.KindC:
		call = func() { exec.Apply(kind, x, nil, w, w) }
	default:
		call = func() { exec.Apply(kind, x, u, v, w) }
	}
	restore()
	call() // warm-up
	seconds = timeReps(reps, restore, call)
	return 1e9 * seconds / float64(kernels.Updates(exec.Rule(), kind, b)), seconds
}

// probeIterFW fills kernels.iter_fw_<kind>_b<b>.ns_per_update.
func probeIterFW(m map[string]float64, b int, kinds []semiring.Kind) {
	exec := kernels.NewIterative(semiring.NewFloydWarshall())
	reps := 9
	if b <= 16 {
		reps = 2001 // a b=8 call takes well under a microsecond
	}
	for _, kind := range kinds {
		ns, seconds := probeKernel(exec, kind, b, reps)
		m[fmt.Sprintf("kernels.iter_fw_%s_b%d.ns_per_update", kind, b)] = ns
		if kind == semiring.KindD && b == 256 {
			// Bytes computed from sizes (b^3 updates of 8 bytes, as
			// BENCH_kernels.json counts them), not measured traffic.
			m["kernels.iter_fw_D_b256.gbps_computed"] = float64(b) * float64(b) * float64(b) * 8 / seconds / 1e9
		}
	}
}

// probeRecGE fills kernels.rec4_ge_<kind>_b<b>_t<threads>.ns_per_update.
func probeRecGE(m map[string]float64, b, threads int) {
	exec := kernels.NewRecursiveExec(semiring.NewGaussian(), 4, 64, threads)
	for kind := semiring.KindA; kind <= semiring.KindD; kind++ {
		ns, _ := probeKernel(exec, kind, b, 9)
		m[fmt.Sprintf("kernels.rec4_ge_%s_b%d_t%d.ns_per_update", kind, b, threads)] = ns
	}
}

// probeRDD times the engine with no kernel work in it: a shuffle of
// 262 144 small records, and no-op jobs that isolate the cost of a stage
// and of a task.
func probeRDD(m map[string]float64, procs int) {
	const side = 512 // 512 x 512 = 262 144 Coord -> *Tile pairs
	tile := matrix.NewTile(8)
	pairs := make([]rdd.Pair[matrix.Coord, *matrix.Tile], 0, side*side)
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			pairs = append(pairs, rdd.KV(matrix.Coord{I: i, J: j}, tile))
		}
	}
	cl := cluster.Local(procs)
	shuffleS := timeReps(3, nil, func() {
		ctx := rdd.NewContext(rdd.Conf{Cluster: cl})
		part := rdd.NewHashPartitioner(cl.DefaultPartitions())
		in := rdd.ParallelizePairs(ctx, pairs, part)
		moved := rdd.FlatMap(in, func(_ *rdd.TaskContext, p rdd.Pair[matrix.Coord, *matrix.Tile]) []rdd.Pair[matrix.Coord, *matrix.Tile] {
			return []rdd.Pair[matrix.Coord, *matrix.Tile]{{Key: matrix.Coord{I: p.Key.J, J: p.Key.I}, Value: p.Value}}
		})
		keep := func(a, _ *matrix.Tile) *matrix.Tile { return a }
		combined := rdd.CombineByKey(moved, func(t *matrix.Tile) *matrix.Tile { return t }, keep, keep, part)
		if out, err := combined.Collect(); err != nil || len(out) != side*side {
			panic(fmt.Sprintf("rdd probe: %d records, err %v", len(out), err))
		}
	})
	m["rdd.shuffle_records_per_s"] = side * side / shuffleS

	noop := func(parts int) float64 {
		ctx := rdd.NewContext(rdd.Conf{Cluster: cl})
		recs := make([]int, parts)
		return timeReps(101, nil, func() {
			r := rdd.Map(rdd.Parallelize(ctx, recs, parts), func(_ *rdd.TaskContext, v int) int { return v })
			if _, err := r.Collect(); err != nil {
				panic(err)
			}
		})
	}
	few, many := noop(procs), noop(64*procs)
	m["rdd.stage_overhead_us"] = 1e6 * few
	m["rdd.task_overhead_us"] = 1e6 * (many - few) / float64(63*procs)
}

const (
	probeTileB    = 128
	probeBlockLen = probeTileB * probeTileB * 8 // one b=128 tile payload: 128 KiB
	probeCkptLen  = 8 << 20                     // an r=8, b=128 grid
)

func randomBytes(n int) []byte {
	buf := make([]byte, n)
	rand.New(rand.NewSource(11)).Read(buf)
	return buf
}

func mbps(bytes int, seconds float64) float64 { return float64(bytes) / 1e6 / seconds }

// probeDurableWrite times the write side of durability: tile encoding,
// blocking, spills forced by a one-byte budget, checkpoint files, and the
// disk's own append+fsync floor.
func probeDurableWrite(m map[string]float64, dir string) error {
	x, _, _, _ := probeTiles(probeTileB)
	var buf []byte
	m["matrix.encode_tile_mbps"] = mbps(probeBlockLen, timeReps(201, nil, func() { buf = matrix.AppendTile(buf[:0], x) }))

	d := matrix.NewDense(1024)
	d.FillRandom(rand.New(rand.NewSource(12)), 1, 9)
	m["matrix.block_mbps"] = mbps(int(d.Bytes()), timeReps(9, nil, func() { matrix.Block(d, probeTileB, 0, 0) }))

	st, err := store.Open(filepath.Join(dir, "probe-spill"), store.Options{MemoryBudget: 1})
	if err != nil {
		return err
	}
	blob := randomBytes(probeBlockLen)
	const blocks = 128
	t0 := time.Now()
	for i := 0; i < blocks; i++ {
		if err := st.Put(fmt.Sprintf("probe/%d", i), blob); err != nil {
			return err
		}
	}
	st.Flush() // spills are written in the background
	m["store.put_spill_mbps"] = mbps(blocks*probeBlockLen, time.Since(t0).Seconds())

	ckpt := randomBytes(probeCkptLen)
	meta := []byte(`{"iteration":4,"n":1024,"b":128,"r":8}`)
	ckptDir := filepath.Join(dir, "probe-ckpt")
	var werr error
	id := 0
	m["store.ckpt_write_mbps"] = mbps(probeCkptLen, timeReps(5, nil, func() {
		if err := store.WriteCheckpoint(ckptDir, id%2, meta, ckpt); err != nil {
			werr = err
		}
		id++
	}))
	if werr != nil {
		return werr
	}
	fsync, err := probeFsync(dir)
	m["store.fsync_ms_p50"] = fsync
	return err
}

// probeDurableRead times the read side: tile decoding, verified reads
// from the disk tier and checkpoint reads.
func probeDurableRead(m map[string]float64, dir string) error {
	x, _, _, _ := probeTiles(probeTileB)
	enc := matrix.EncodeTile(x)
	var derr error
	m["matrix.decode_tile_mbps"] = mbps(probeBlockLen, timeReps(201, nil, func() {
		if _, _, err := matrix.DecodeTile(enc); err != nil {
			derr = err
		}
	}))
	if derr != nil {
		return derr
	}

	st, err := store.Open(filepath.Join(dir, "probe-read"), store.Options{MemoryBudget: 1})
	if err != nil {
		return err
	}
	blob := randomBytes(probeBlockLen)
	const blocks = 128
	for i := 0; i < blocks; i++ {
		if err := st.Put(fmt.Sprintf("probe/%d", i), blob); err != nil {
			return err
		}
	}
	st.Flush()
	t0 := time.Now()
	for i := 0; i < blocks; i++ {
		if _, err := st.Get(fmt.Sprintf("probe/%d", i)); err != nil {
			return err
		}
	}
	m["store.get_disk_mbps"] = mbps(blocks*probeBlockLen, time.Since(t0).Seconds())

	ckptDir := filepath.Join(dir, "probe-ckpt-read")
	if err := store.WriteCheckpoint(ckptDir, 1, []byte(`{}`), randomBytes(probeCkptLen)); err != nil {
		return err
	}
	var rerr error
	m["store.ckpt_read_mbps"] = mbps(probeCkptLen, timeReps(5, nil, func() {
		if _, _, err := store.ReadCheckpoint(ckptDir, 1); err != nil {
			rerr = err
		}
	}))
	return rerr
}

// Journal frames: 4096 records of 256 bytes, about the size of the serve
// journal's records.
const (
	probeFrames   = 4096
	probeFrameLen = 256
)

func probeFrameAppend(m map[string]float64) []byte {
	payload := randomBytes(probeFrameLen)
	var buf []byte
	s := timeReps(21, nil, func() {
		buf = buf[:0]
		for i := 0; i < probeFrames; i++ {
			buf = store.AppendFrame(buf, payload)
		}
	})
	m["store.frame_append_mbps"] = mbps(len(buf), s)
	return buf
}

func probeFrameRead(m map[string]float64) error {
	buf := probeFrameAppend(map[string]float64{})
	var n int
	s := timeReps(21, nil, func() {
		payloads, _ := store.ReadFrames(buf)
		n = len(payloads)
	})
	if n != probeFrames {
		return fmt.Errorf("frame probe read %d of %d frames", n, probeFrames)
	}
	m["store.frame_read_mbps"] = mbps(len(buf), s)
	return nil
}

// probeFsync measures the disk's floor under the journal: append 256
// bytes and fsync, in the benchmark's scratch directory. It is the
// filesystem's number, not the program's.
func probeFsync(dir string) (ms float64, err error) {
	f, err := os.OpenFile(filepath.Join(dir, "probe-fsync.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	rec := randomBytes(probeFrameLen)
	s := timeReps(101, nil, func() {
		if _, werr := f.Write(rec); werr != nil {
			err = werr
		}
		if serr := f.Sync(); serr != nil {
			err = serr
		}
	})
	return 1e3 * s, err
}
