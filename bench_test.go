package dpspark

// The benchmark harness: one testing.B target per table and figure of the
// paper's evaluation (model mode — regenerates the experiment at a
// CI-friendly problem size; run cmd/dpspark for full 32K paper scale),
// plus real-mode benchmarks of the kernels and the engine, and the
// ablations DESIGN.md §5 calls out.
//
//	go test -bench=. -benchmem
//
// Model-mode benches report the regenerated headline metric via b.ReportMetric
// (modelled seconds), so shape changes are visible in benchmark diffs.
// These are tools for measuring while working, with no committed output:
// the end-to-end benchmark (benchmark/), TestRecordPathGolden and
// TestAllocBudget are the gates.

import (
	"math/rand"
	"testing"

	"dpspark/internal/baseline"
	"dpspark/internal/cluster"
	"dpspark/internal/core"
	"dpspark/internal/experiments"
	"dpspark/internal/kernels"
	"dpspark/internal/matrix"
	"dpspark/internal/rdd"
	"dpspark/internal/semiring"
	"dpspark/internal/store"
)

// benchN is the model-mode problem size for benchmarks: large enough to
// preserve the paper's grid shapes (r = 8..32 across block sizes), small
// enough for quick runs.
const benchN = 8192

// BenchmarkTableI regenerates Table I (GE, CB, 4-way recursive kernels:
// executor-cores × OMP_NUM_THREADS grid) and reports the best cell.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, results := experiments.TableI(benchN)
		reportBest(b, results)
	}
}

// BenchmarkTableII regenerates Table II (FW-APSP, IM, 16-way recursive).
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, results := experiments.TableII(benchN)
		reportBest(b, results)
	}
}

// BenchmarkFig6FW regenerates the FW-APSP panel of Fig. 6 and reports the
// headline iterative→recursive speedup.
func BenchmarkFig6FW(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, results := experiments.Fig6(experiments.FW, benchN)
		h := experiments.ComputeHeadline(experiments.FW, results)
		b.ReportMetric(h.Speedup, "speedup")
	}
}

// BenchmarkFig6GE regenerates the GE panel of Fig. 6.
func BenchmarkFig6GE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, results := experiments.Fig6(experiments.GE, benchN)
		h := experiments.ComputeHeadline(experiments.GE, results)
		b.ReportMetric(h.Speedup, "speedup")
	}
}

// BenchmarkFig8 regenerates the portability comparison and reports the
// cluster-2/cluster-1 slowdown of the reference configuration.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, results := experiments.Fig8(benchN)
		var c1, c2 float64
		for _, r := range results {
			if r.Block == 1024 && r.Recursive && r.Driver == core.IM {
				if r.Cluster.Name == "skylake-16" {
					c1 = r.Time.Seconds()
				} else {
					c2 = r.Time.Seconds()
				}
			}
		}
		if c1 > 0 {
			b.ReportMetric(c2/c1, "c2/c1")
		}
	}
}

// BenchmarkFig9 regenerates the weak-scaling experiment and reports the
// recursive GE series' 64-node/1-node growth (1.0 = perfect scaling).
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		chart, _ := experiments.Fig9()
		for _, l := range chart.Lines {
			if l.Name == "GE CB rec4 b1024 omp8" {
				b.ReportMetric(l.Points[2].Value/l.Points[0].Value, "growth64")
			}
		}
	}
}

func reportBest(b *testing.B, results []experiments.Result) {
	b.Helper()
	best := results[0]
	for _, r := range results {
		if r.Note() == "" && r.Time < best.Time {
			best = r
		}
	}
	b.ReportMetric(best.Time.Seconds(), "model_s")
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblationDriver prices IM vs CB per benchmark.
func BenchmarkAblationDriver(b *testing.B) {
	for _, bench := range []experiments.Benchmark{experiments.FW, experiments.GE} {
		for _, driver := range []core.DriverKind{core.IM, core.CB} {
			b.Run(bench.String()+"/"+driver.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r := experiments.Run(experiments.Cell{
						Bench: bench, N: benchN, Driver: driver, Block: 512,
					})
					b.ReportMetric(r.Time.Seconds(), "model_s")
				}
			})
		}
	}
}

// BenchmarkAblationKernelCache sweeps block sizes for both kernel
// families, exposing the L2 crossover of §V-C.
func BenchmarkAblationKernelCache(b *testing.B) {
	for _, block := range []int{256, 512, 1024, 2048} {
		for _, rec := range []bool{false, true} {
			name := "iter"
			cell := experiments.Cell{Bench: experiments.FW, N: benchN, Driver: core.IM, Block: block}
			if rec {
				name = "rec4"
				cell.Recursive = true
				cell.RShared = 4
				cell.Threads = 8
			}
			b.Run(name+"/"+itoa(block), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r := experiments.Run(cell)
					b.ReportMetric(r.Time.Seconds(), "model_s")
				}
			})
		}
	}
}

// BenchmarkAblationRShared sweeps the kernel fan-out.
func BenchmarkAblationRShared(b *testing.B) {
	for _, rs := range []int{2, 4, 8, 16} {
		b.Run(itoa(rs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiments.Run(experiments.Cell{
					Bench: experiments.FW, N: benchN, Driver: core.IM, Block: 1024,
					Recursive: true, RShared: rs, Threads: 8,
				})
				b.ReportMetric(r.Time.Seconds(), "model_s")
			}
		})
	}
}

// BenchmarkAblationPartitioner compares the default hash partitioner to
// the grid partitioner (the paper's future work).
func BenchmarkAblationPartitioner(b *testing.B) {
	for _, grid := range []bool{false, true} {
		name := "hash"
		if grid {
			name = "grid"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, results := experiments.AblationPartitioner(benchN)
				idx := 0
				if grid {
					idx = 1
				}
				b.ReportMetric(results[idx].Time.Seconds(), "model_s")
			}
		})
	}
}

// BenchmarkAblationPartitions sweeps the RDD-partition multiplier.
func BenchmarkAblationPartitions(b *testing.B) {
	cl := cluster.Skylake16()
	for _, mult := range []int{1, 2, 4} {
		b.Run(itoa(mult)+"x", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiments.Run(experiments.Cell{
					Bench: experiments.FW, N: benchN, Driver: core.IM, Block: 1024,
					Recursive: true, RShared: 4, Threads: 8,
					Partitions: mult * cl.TotalCores(),
				})
				b.ReportMetric(r.Time.Seconds(), "model_s")
			}
		})
	}
}

// BenchmarkAblationUndirected compares the baseline's undirected
// upper-triangle optimization against the directed generalization.
func BenchmarkAblationUndirected(b *testing.B) {
	for _, und := range []bool{false, true} {
		name := "directed"
		if und {
			name = "undirected"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx := rdd.NewContext(rdd.Conf{Cluster: cluster.Skylake16()})
				stats, err := baseline.SolveSymbolic(ctx, benchN, baseline.Config{BlockSize: 512, Undirected: und})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(stats.Time.Seconds(), "model_s")
			}
		})
	}
}

// --- Real-mode benchmarks: actual computation on this machine ---

// BenchmarkKernelIterative measures the min-plus loop kernels per update:
// the unaliased kind D (sizes 512 and 1024 are the cache-blocking regime:
// the tile no longer fits L2 and the k-blocked fast path's reuse shows up
// directly in MB/s) and the aliased kinds A, B, C, which are 7 of the 16
// tile updates of an r=4 iteration: A runs the ordered loop over the
// vectorised row primitive, C the same loop in L1-sized row bands, and B
// k-blocks of bricks over captured pivot rows.
func BenchmarkKernelIterative(b *testing.B) {
	rule := semiring.NewFloydWarshall()
	for _, size := range []int{128, 256, 512, 1024} {
		b.Run("D/"+itoa(size), func(b *testing.B) { benchKernel(b, rule, semiring.KindD, size) })
	}
	for _, kind := range []semiring.Kind{semiring.KindA, semiring.KindB, semiring.KindC} {
		for _, size := range []int{64, 128, 256, 512} {
			b.Run(kind.String()+"/"+itoa(size), func(b *testing.B) { benchKernel(b, rule, kind, size) })
		}
	}
}

// BenchmarkKernelIterativeGE is the same family for Gaussian elimination,
// whose aliased kinds update a triangle (MB/s counts kernels.Updates, not
// the full cube).
func BenchmarkKernelIterativeGE(b *testing.B) {
	rule := semiring.NewGaussian()
	for _, kind := range []semiring.Kind{semiring.KindA, semiring.KindB, semiring.KindC, semiring.KindD} {
		for _, size := range []int{64, 128, 256, 512} {
			b.Run(kind.String()+"/"+itoa(size), func(b *testing.B) { benchKernel(b, rule, kind, size) })
		}
	}
}

// benchKernel times one iterative kernel kind with the operand wiring of
// kernels.RunLocal. x is restored before every call (b² against the
// kernel's b³): repeated in-place updates converge (FW) or blow up (GE)
// and would time different data.
func benchKernel(b *testing.B, rule semiring.Rule, kind semiring.Kind, size int) {
	x0, u, v, w := randomTiles(size)
	if _, ge := rule.(semiring.GaussianRule); ge {
		// Well-conditioned pivots: the diagonal dominates its row.
		for _, t := range []*matrix.Tile{x0, w} {
			for i := 0; i < size; i++ {
				t.Set(i, i, 10*float64(size))
			}
		}
	}
	x := x0.Clone()
	exec := kernels.NewIterative(rule)
	b.SetBytes(kernels.Updates(rule, kind, size) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(x.Data, x0.Data)
		switch kind {
		case semiring.KindA:
			exec.Apply(kind, x, nil, nil, nil)
		case semiring.KindB:
			exec.Apply(kind, x, w, nil, w)
		case semiring.KindC:
			exec.Apply(kind, x, nil, w, w)
		default:
			exec.Apply(kind, x, u, v, w)
		}
	}
}

// BenchmarkKernelParallel measures the row-band parallel split of the
// full-range kind-D update across pool widths — the intra-tile
// KernelThreads path the executors run. t1 is LoopPool's serial
// fall-through, so t<k>/t1 is the measured speedup of k kernel threads
// (bit-identical results by construction; on a single-core machine the
// ratio hovers at 1).
func BenchmarkKernelParallel(b *testing.B) {
	for _, size := range []int{256, 512, 1024} {
		for _, threads := range []int{1, 2, 4, 8} {
			b.Run("D/"+itoa(size)+"/t"+itoa(threads), func(b *testing.B) {
				rule := semiring.NewFloydWarshall()
				x, u, v, w := randomTiles(size)
				exec := kernels.NewIterative(rule)
				pool := kernels.NewPool(threads)
				b.SetBytes(int64(size) * int64(size) * int64(size) * 8)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					exec.ApplyWith(pool, semiring.KindD, x, u, v, w)
				}
			})
		}
	}
}

// BenchmarkKernelRecursive measures the r-way R-DP kernels across
// fan-outs and worker threads.
func BenchmarkKernelRecursive(b *testing.B) {
	for _, rs := range []int{2, 4} {
		for _, threads := range []int{1, 4} {
			b.Run("D/r"+itoa(rs)+"/t"+itoa(threads), func(b *testing.B) {
				rule := semiring.NewFloydWarshall()
				size := 256
				x, u, v, w := randomTiles(size)
				exec := kernels.NewRecursiveExec(rule, rs, 32, threads)
				b.SetBytes(int64(size) * int64(size) * int64(size) * 8)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					exec.Apply(semiring.KindD, x, u, v, w)
				}
			})
		}
	}
}

// BenchmarkEngineAPSPReal runs the full engine for real on a small APSP
// problem, per driver.
func BenchmarkEngineAPSPReal(b *testing.B) {
	g := RandomGraph(256, 0.05, 1, 10, 3)
	for _, driver := range []core.DriverKind{core.IM, core.CB} {
		b.Run(driver.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := NewSession(Local(4))
				if _, _, err := s.APSP(g, Config{BlockSize: 64, Driver: driver}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineAPSPFine is the engine-bound regime: 8×8 tiles, so a
// 256-vertex solve is 32 iterations over 1024 records and the kernels are
// a small share of it. TestAllocBudget gates its allocations.
func BenchmarkEngineAPSPFine(b *testing.B) {
	g := RandomGraph(256, 0.05, 1, 10, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSession(Local(4))
		if _, _, err := s.APSP(g, Config{BlockSize: 8, Driver: core.IM}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineGEReal runs a real distributed elimination.
func BenchmarkEngineGEReal(b *testing.B) {
	a, rhs := RandomSystem(256, 4)
	for i := 0; i < b.N; i++ {
		s := NewSession(Local(4))
		if _, _, err := s.SolveLinear(a, rhs, Config{BlockSize: 64, Driver: CB}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineReal runs the Schoeneman–Zola baseline for real.
func BenchmarkBaselineReal(b *testing.B) {
	g := RandomGraph(256, 0.05, 1, 10, 5)
	d := g.DistanceMatrix()
	for i := 0; i < b.N; i++ {
		ctx := rdd.NewContext(rdd.Conf{Cluster: Local(4)})
		if _, _, err := baseline.Solve(ctx, d, baseline.Config{BlockSize: 64}); err != nil {
			b.Fatal(err)
		}
	}
}

// closeUntimed closes an iteration's durable context outside the timed
// region: draining the store's background writers is not part of the
// solve being priced, but has to finish before its directory goes.
func closeUntimed(b *testing.B, release func()) {
	b.StopTimer()
	release()
	b.StartTimer()
}

func randomTiles(size int) (x, u, v, w *matrix.Tile) {
	rng := rand.New(rand.NewSource(9))
	mk := func() *matrix.Tile {
		t := matrix.NewTile(size)
		for i := range t.Data {
			t.Data[i] = rng.Float64() * 10
		}
		for i := 0; i < size; i++ {
			t.Set(i, i, 0)
		}
		return t
	}
	return mk(), mk(), mk(), mk()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// --- Durable block store benchmarks ---

// BenchmarkStoreSpill prices the checksummed spill path per block: every
// Put lands over budget and is immediately evicted to a CRC32C-framed
// file, then read back and verified from the disk tier. Block size is a
// b=128 tile payload.
func BenchmarkStoreSpill(b *testing.B) {
	blob := make([]byte, 128*128*8)
	rng := rand.New(rand.NewSource(31))
	for i := range blob {
		blob[i] = byte(rng.Intn(256))
	}
	st, err := store.Open(b.TempDir(), store.Options{MemoryBudget: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(st.Close)
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := "bench/" + itoa(i%64)
		if err := st.Put(key, blob); err != nil {
			b.Fatal(err)
		}
		if _, err := st.Get(key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreCheckpoint prices one driver checkpoint round trip: an
// atomically-written, per-section-checksummed file the size of an r=8,
// b=128 grid (8 MiB of tile payload), written and re-verified.
func BenchmarkStoreCheckpoint(b *testing.B) {
	blocks := make([]byte, 8*8*128*128*8)
	rng := rand.New(rand.NewSource(32))
	for i := range blocks {
		blocks[i] = byte(rng.Intn(256))
	}
	meta := []byte(`{"iteration":4,"n":1024,"b":128,"r":8}`)
	dir := b.TempDir()
	b.SetBytes(int64(len(blocks)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := store.WriteCheckpoint(dir, i%4, meta, blocks); err != nil {
			b.Fatal(err)
		}
		if _, _, err := store.ReadCheckpoint(dir, i%4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTileCodec prices the record codec the durable shuffle runs on
// every staged tile: one b=128 grid-block record (128 KiB of payload)
// encoded into an exactly sized buffer, and decoded back into a fresh
// tile. B/op is the point: encode allocates the buffer once, decode the
// tile once.
func BenchmarkTileCodec(b *testing.B) {
	tile := matrix.NewTile(128)
	rng := rand.New(rand.NewSource(36))
	for i := range tile.Data {
		tile.Data[i] = rng.Float64()
	}
	codec := core.TileCodec{}
	rec := rdd.KV(matrix.Coord{I: 3, J: 5}, tile)
	size, _ := codec.EncodedLen(rec)
	b.Run("encode/b128", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(size))
		for i := 0; i < b.N; i++ {
			if enc, ok := codec.Append(make([]byte, 0, size), rec); !ok || len(enc) != size {
				b.Fatalf("encoded %d bytes, ok=%v; want %d", len(enc), ok, size)
			}
		}
	})
	b.Run("decode/b128", func(b *testing.B) {
		enc, _ := codec.Append(nil, rec)
		b.ReportAllocs()
		b.SetBytes(int64(size))
		for i := 0; i < b.N; i++ {
			if _, rest, err := codec.Decode(enc); err != nil || len(rest) != 0 {
				b.Fatalf("decode: %v, %d bytes left", err, len(rest))
			}
		}
	})
}

// BenchmarkDurableShuffleStage prices the durable shuffle's whole data
// path for one real stage pair: 64 b=128 tiles (8 MiB) are bucketed and
// encoded by the map tasks, Put by the merge under a 1-byte budget (every
// block goes through the disk tier), then fetched, verified and decoded
// by the reduce side.
func BenchmarkDurableShuffleStage(b *testing.B) {
	const r, dim = 8, 128
	rng := rand.New(rand.NewSource(37))
	blocks := make([]core.Block, 0, r*r)
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			t := matrix.NewTile(dim)
			for k := range t.Data {
				t.Data[k] = rng.Float64()
			}
			blocks = append(blocks, rdd.KV(matrix.Coord{I: i, J: j}, t))
		}
	}
	ctx := rdd.NewContext(rdd.Conf{
		Cluster: cluster.LocalN(4, 2), DurableDir: b.TempDir(),
		MemoryBudget: 1, SpillCodec: core.TileCodec{},
	})
	b.Cleanup(ctx.Close)
	b.ReportAllocs()
	b.SetBytes(int64(r * r * dim * dim * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Contiguous ranges in, the drivers' grid layout out.
		in := rdd.Parallelize(ctx, blocks, 8)
		out, err := rdd.PartitionBy(in, rdd.NewGridPartitioner(8, r)).Collect()
		if err != nil || len(out) != len(blocks) {
			b.Fatalf("collected %d of %d blocks: %v", len(out), len(blocks), err)
		}
	}
}

// BenchmarkDurableOverhead measures what durability costs a real run: a
// real-mode FW n=512 b=128 IM run with the store off, on (unbounded
// memory tier) and under a tight 256 KiB budget that forces every staged
// bucket through the disk tier. Reported: spilled blocks and real spill
// wall milliseconds per run.
func BenchmarkDurableOverhead(b *testing.B) {
	run := func(b *testing.B, durable bool, budget int64) {
		rng := rand.New(rand.NewSource(33))
		in := matrix.NewDense(512)
		in.FillRandom(rng, 1, 9)
		for i := 0; i < 512; i++ {
			in.Set(i, i, 0)
		}
		for i := 0; i < b.N; i++ {
			conf := rdd.Conf{Cluster: cluster.LocalN(4, 2)}
			var dir string
			if durable {
				dir = b.TempDir()
				conf.DurableDir = dir
				conf.MemoryBudget = budget
				conf.SpillCodec = core.TileCodec{}
			}
			ctx := rdd.NewContext(conf)
			rule := semiring.NewFloydWarshall()
			bl := matrix.Block(in, 128, rule.Pad(), rule.PadDiag())
			_, stats, err := core.Run(ctx, bl, core.Config{
				Rule: rule, BlockSize: 128, Driver: core.IM, DurableDir: dir,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(stats.SpilledBlocks), "spilled")
			b.ReportMetric(stats.SpillWall.Seconds()*1e3, "spill_wall_ms")
			// Draining the background spill writer is not part of the run
			// being priced (the timed region is core.Run, as before Close
			// existed); it only has to finish before TempDir is removed.
			closeUntimed(b, ctx.Close)
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false, 0) })
	b.Run("on", func(b *testing.B) { run(b, true, 0) })
	b.Run("tight256KiB", func(b *testing.B) { run(b, true, 256<<10) })
}

// BenchmarkDurableResume measures checkpoint–restart: one durable FW
// n=512 b=128 run leaves its boundary checkpoints on disk; each
// iteration then restarts from the mid-run checkpoint (grid decode +
// engine-state restore + the remaining two iterations) and must land on
// the interrupted run's bits.
func BenchmarkDurableResume(b *testing.B) {
	rng := rand.New(rand.NewSource(34))
	in := matrix.NewDense(512)
	in.FillRandom(rng, 1, 9)
	for i := 0; i < 512; i++ {
		in.Set(i, i, 0)
	}
	dir := b.TempDir()
	rule := semiring.NewFloydWarshall()
	conf := rdd.Conf{Cluster: cluster.LocalN(4, 2), DurableDir: dir, SpillCodec: core.TileCodec{}}
	ctx := rdd.NewContext(conf)
	bl := matrix.Block(in, 128, rule.Pad(), rule.PadDiag())
	full, _, err := core.Run(ctx, bl, core.Config{
		Rule: rule, BlockSize: 128, Driver: core.IM, DurableDir: dir,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx.Close()
	want := full.ToDense()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		meta, tbl, err := core.LoadCheckpointAt(dir, 2)
		if err != nil {
			b.Fatal(err)
		}
		rconf := conf
		rconf.Restore = &meta.Engine
		rctx := rdd.NewContext(rconf)
		out, _, err := core.Resume(rctx, meta, tbl, core.Config{
			Rule: rule, BlockSize: meta.B, Driver: core.IM,
			Partitions: meta.Partitions, CheckpointEvery: meta.CheckpointEvery,
		})
		if err != nil {
			b.Fatal(err)
		}
		closeUntimed(b, rctx.Close) // see BenchmarkDurableOverhead
		if i == 0 {
			got := out.ToDense()
			for j := range got.Data {
				if got.Data[j] != want.Data[j] {
					b.Fatal("resumed bits differ from the uninterrupted run")
				}
			}
		}
	}
}
