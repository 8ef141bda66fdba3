package core

import (
	"math/rand"
	"testing"

	"dpspark/internal/cluster"
	"dpspark/internal/matrix"
	"dpspark/internal/rdd"
	"dpspark/internal/semiring"
)

// ktCtx builds a context whose per-node kernel pools are threads wide
// (8-core nodes, so threads=4 co-tunes ExecutorCores to 2).
func ktCtx(threads int) *rdd.Context {
	return rdd.NewContext(rdd.Conf{Cluster: cluster.LocalN(2, 8), KernelThreads: threads})
}

// TestKernelThreadsBitIdentical is the engine-level contract of
// intra-tile parallelism: FW and GE through both drivers with
// KernelThreads=4 must reproduce the serial run bit for bit. BlockSize 64
// reaches the row-band parallel split (tiles below the crossover floor
// stay serial by construction), and the threaded run must actually have
// used the shared pools — Stats' occupancy attribution shows scheduling
// activity.
func TestKernelThreadsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, rule := range []semiring.Rule{semiring.NewFloydWarshall(), semiring.NewGaussian()} {
		in := randomInput(rule, 128, rng)
		for _, driver := range []DriverKind{IM, CB} {
			cfg := Config{Rule: rule, BlockSize: 64, Driver: driver}
			serial := runOnce(t, ktCtx(1), in, cfg)

			ctx := ktCtx(4)
			bl := matrix.Block(in, cfg.BlockSize, rule.Pad(), rule.PadDiag())
			out, stats, err := Run(ctx, bl, cfg)
			if err != nil {
				t.Fatalf("%s %v threads=4: %v", rule.Name(), driver, err)
			}
			if !bitIdentical(serial, out.ToDense()) {
				t.Fatalf("%s %v: KernelThreads=4 diverges from serial bits", rule.Name(), driver)
			}
			if stats.KernelSpawned+stats.KernelInlined == 0 {
				t.Fatalf("%s %v: threaded run never consulted the kernel pools", rule.Name(), driver)
			}
		}
	}
}

// TestKernelThreadsRecursiveSharedPool: recursive kernels inherit
// Threads from KernelThreads and fork on the node's shared pool; results
// must stay bit-identical to the fully serial recursive run.
func TestKernelThreadsRecursiveSharedPool(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	rule := semiring.NewFloydWarshall()
	in := randomInput(rule, 128, rng)
	cfg := Config{Rule: rule, BlockSize: 64, Driver: IM, RecursiveKernel: true, RShared: 2, Base: 16}
	serial := runOnce(t, ktCtx(1), in, cfg)

	ctx := ktCtx(4)
	bl := matrix.Block(in, cfg.BlockSize, rule.Pad(), rule.PadDiag())
	out, stats, err := Run(ctx, bl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bitIdentical(serial, out.ToDense()) {
		t.Fatal("recursive kernels on the shared pool diverge from serial bits")
	}
	if stats.KernelSpawned+stats.KernelInlined == 0 {
		t.Fatal("recursive threaded run never consulted the kernel pools")
	}
}

// TestChaosKernelThreadsBitIdentical extends the chaos harness to
// parallel kernels: the full fault plan (crash, disk loss, straggler)
// over b=64 tiles with KernelThreads=4 must recover to exactly the bits
// of (a) the fault-free threaded run and (b) the fault-free serial run —
// recovery replays parallel kernels, and the replays must be as
// deterministic as first executions.
func TestChaosKernelThreadsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	run := func(rule semiring.Rule, driver DriverKind, in *matrix.Dense, threads int, plan *rdd.FaultPlan) *matrix.Dense {
		t.Helper()
		ctx := rdd.NewContext(rdd.Conf{
			Cluster:       cluster.LocalN(4, 8),
			KernelThreads: threads,
			FaultPlan:     plan,
			Speculation:   true,
		})
		cfg := Config{Rule: rule, BlockSize: 64, Driver: driver, Partitions: 8}
		bl := matrix.Block(in, cfg.BlockSize, rule.Pad(), rule.PadDiag())
		out, _, err := Run(ctx, bl, cfg)
		if err != nil {
			t.Fatalf("Run(%v, threads=%d): %v", driver, threads, err)
		}
		return out.ToDense()
	}
	for _, rule := range []semiring.Rule{semiring.NewFloydWarshall(), semiring.NewGaussian()} {
		in := randomInput(rule, 256, rng)
		for _, driver := range []DriverKind{IM, CB} {
			serial := run(rule, driver, in, 1, nil)
			clean := run(rule, driver, in, 4, nil)
			chaos := run(rule, driver, in, 4, chaosPlan())
			if !bitIdentical(serial, clean) {
				t.Fatalf("%s %v: threaded clean run differs from serial bits", rule.Name(), driver)
			}
			if !bitIdentical(clean, chaos) {
				t.Fatalf("%s %v: threaded chaos run differs from fault-free bits", rule.Name(), driver)
			}
		}
	}
}

// TestKernelThreadsConfig pins the knob's defaulting: a run takes the
// engine's pool width, recursive kernels inherit it as Threads, and the
// kernel names reports use read it from the context.
func TestKernelThreadsConfig(t *testing.T) {
	rule := semiring.NewFloydWarshall()
	in := randomInput(rule, 16, rand.New(rand.NewSource(74)))
	bl := matrix.Block(in, 8, rule.Pad(), rule.PadDiag())

	// Inheritance: the run and its recursive Threads take the context's width.
	if _, _, err := Run(ktCtx(2), bl, Config{Rule: rule, BlockSize: 8}); err != nil {
		t.Fatal(err)
	}
	rec := Config{Rule: rule, BlockSize: 8, RecursiveKernel: true, RShared: 2}
	if err := rec.normalize(ktCtx(2)); err != nil || rec.Threads != 2 {
		t.Fatalf("recursive Threads = %d (err %v), want the pool width 2", rec.Threads, err)
	}

	if got := (Config{}).KernelName(ktCtx(4)); got != "iterative(threads=4)" {
		t.Fatalf("KernelName = %q", got)
	}
	if got := (Config{}).KernelName(ktCtx(1)); got != "iterative" {
		t.Fatalf("KernelName = %q", got)
	}
	if got := (Config{RecursiveKernel: true, RShared: 4, Threads: 8}).KernelName(ktCtx(1)); got != "rec4-way(omp=8)" {
		t.Fatalf("KernelName = %q", got)
	}
}
