package core

import (
	"math"
	"math/rand"
	"testing"

	"dpspark/internal/cluster"
	"dpspark/internal/matrix"
	"dpspark/internal/rdd"
	"dpspark/internal/semiring"
)

func newCtx() *rdd.Context {
	return rdd.NewContext(rdd.Conf{Cluster: cluster.Local(4)})
}

func clusterCtx() *rdd.Context {
	return rdd.NewContext(rdd.Conf{Cluster: cluster.Skylake16()})
}

// slots returns a substrate on c with n real task slots, for tests that
// pin how many task attempts run at once (Conf.Substrate).
func slots(t testing.TB, c *cluster.Cluster, n int) *rdd.Substrate {
	t.Helper()
	sub, err := rdd.NewSubstrate(rdd.SubstrateConf{Cluster: c, RealParallelism: n})
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

func randomInput(rule semiring.Rule, n int, rng *rand.Rand) *matrix.Dense {
	d := matrix.NewDense(n)
	if _, ok := rule.(semiring.GaussianRule); ok {
		d.FillDiagonallyDominant(rng)
		return d
	}
	d.Fill(func(i, j int) float64 {
		switch {
		case i == j:
			return 0
		case rng.Float64() < 0.3:
			return math.Inf(1)
		default:
			return 1 + math.Floor(rng.Float64()*9)
		}
	})
	return d
}

func reference(rule semiring.Rule, d *matrix.Dense) *matrix.Dense {
	out := d.Clone()
	semiring.RunGEP(out.Data, out.N, rule)
	return out
}

func tolFor(rule semiring.Rule, n int) float64 {
	if _, ok := rule.(semiring.GaussianRule); ok {
		return 1e-7 * float64(n)
	}
	return 0
}

func runOnce(t *testing.T, ctx *rdd.Context, in *matrix.Dense, cfg Config) *matrix.Dense {
	t.Helper()
	bl := matrix.Block(in, cfg.BlockSize, cfg.Rule.Pad(), cfg.Rule.PadDiag())
	out, stats, err := Run(ctx, bl, cfg)
	if err != nil {
		t.Fatalf("Run(%v, %s): %v", cfg.Driver, cfg.KernelName(ctx), err)
	}
	if stats.Time <= 0 {
		t.Fatalf("virtual time must advance, got %v", stats.Time)
	}
	return out.ToDense()
}

// TestDriversMatchReference is the central integration test: both drivers
// × both kernel types × all rules × several grid shapes must reproduce
// the reference GEP semantics exactly.
func TestDriversMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rules := []semiring.Rule{
		semiring.NewFloydWarshall(),
		semiring.NewGaussian(),
		semiring.NewTransitiveClosure(),
	}
	for _, rule := range rules {
		for _, driver := range []DriverKind{IM, CB} {
			for _, recursive := range []bool{false, true} {
				for _, shape := range []struct{ n, b int }{{16, 8}, {24, 8}, {17, 5}, {8, 8}} {
					in := randomInput(rule, shape.n, rng)
					want := reference(rule, in)
					cfg := Config{
						Rule:      rule,
						BlockSize: shape.b,
						Driver:    driver,
					}
					if recursive {
						cfg.RecursiveKernel = true
						cfg.RShared = 2
						cfg.Base = 4
						cfg.Threads = 2
					}
					ctx := newCtx()
					got := runOnce(t, ctx, in, cfg)
					if diff := got.MaxAbsDiff(want); diff > tolFor(rule, shape.n) {
						t.Fatalf("%s %v %s n=%d b=%d: diff %v",
							rule.Name(), driver, cfg.KernelName(ctx), shape.n, shape.b, diff)
					}
				}
			}
		}
	}
}

// TestDriversAgreeExactly: IM and CB must produce bit-identical tables
// (they execute the same kernel sequence).
func TestDriversAgreeExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, rule := range []semiring.Rule{semiring.NewFloydWarshall(), semiring.NewGaussian()} {
		in := randomInput(rule, 20, rng)
		cfg := Config{Rule: rule, BlockSize: 5}
		im := runOnce(t, newCtx(), in, withDriver(cfg, IM))
		cb := runOnce(t, newCtx(), in, withDriver(cfg, CB))
		if im.MaxAbsDiff(cb) != 0 {
			t.Fatalf("%s: IM and CB disagree", rule.Name())
		}
	}
}

func withDriver(cfg Config, d DriverKind) Config {
	cfg.Driver = d
	return cfg
}

// TestResultIndependentOfTuning: r, partitions, partitioner, executor
// count and kernel threads must never change the answer — only the time.
func TestResultIndependentOfTuning(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rule := semiring.NewFloydWarshall()
	in := randomInput(rule, 24, rng)
	want := reference(rule, in)

	cfgs := []Config{
		{Rule: rule, BlockSize: 24, Driver: IM},                // r = 1
		{Rule: rule, BlockSize: 4, Driver: IM, Partitions: 3},  // r = 6, odd partitions
		{Rule: rule, BlockSize: 6, Driver: CB, Partitions: 17}, // r = 4
		{Rule: rule, BlockSize: 8, Driver: IM, Partitioner: rdd.NewGridPartitioner(8, 3)},
		{Rule: rule, BlockSize: 8, Driver: CB, RecursiveKernel: true, RShared: 4, Base: 2, Threads: 3},
	}
	for i, cfg := range cfgs {
		got := runOnce(t, newCtx(), in, cfg)
		if diff := got.MaxAbsDiff(want); diff != 0 {
			t.Fatalf("config %d: diff %v", i, diff)
		}
	}
}

func TestSymbolicRunProducesTimingOnly(t *testing.T) {
	ctx := clusterCtx()
	bl := matrix.NewSymbolicBlocked(4096, 1024)
	cfg := Config{
		Rule: semiring.NewFloydWarshall(), BlockSize: 1024, Driver: IM,
		RecursiveKernel: true, RShared: 4, Threads: 8,
	}
	out, stats, err := Run(ctx, bl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		t.Fatal("symbolic run must not return a table")
	}
	if stats.Time <= 0 || stats.Iterations != 4 {
		t.Fatalf("stats = %+v", stats)
	}
	if ctx.Breakdown().ShuffleWriteBytes == 0 {
		t.Fatal("IM run must stage shuffle bytes")
	}
}

func TestCBUsesSharedStorageIMUsesShuffle(t *testing.T) {
	mk := func(driver DriverKind) *rdd.Context {
		ctx := clusterCtx()
		bl := matrix.NewSymbolicBlocked(4096, 512)
		_, _, err := Run(ctx, bl, Config{Rule: semiring.NewGaussian(), BlockSize: 512, Driver: driver})
		if err != nil {
			t.Fatal(err)
		}
		return ctx
	}
	im := mk(IM)
	cb := mk(CB)
	if im.Breakdown().BroadcastBytes != 0 {
		t.Fatal("IM must not touch shared storage")
	}
	if cb.Breakdown().BroadcastBytes == 0 {
		t.Fatal("CB must stage blocks on shared storage")
	}
	if cb.Breakdown().ShuffleWriteBytes >= im.Breakdown().ShuffleWriteBytes {
		t.Fatalf("CB must shuffle less than IM: %d vs %d",
			cb.Breakdown().ShuffleWriteBytes, im.Breakdown().ShuffleWriteBytes)
	}
}

// TestIMReplicationCounts verifies the paper's copy count: stage A of
// iteration k ships 2(r−k−1) + (r−k−1)² pivot copies for GE.
func TestIMReplicationCounts(t *testing.T) {
	rule := semiring.NewGaussian()
	r := 4
	k := 1
	rest := rule.Restricted(k, r)
	want := 2*(r-k-1) + (r-k-1)*(r-k-1)
	if got := 2*len(rest) + len(rest)*len(rest); got != want {
		t.Fatalf("copies = %d, want %d", got, want)
	}
	// FW replicates to every non-pivot index instead.
	fw := semiring.NewFloydWarshall()
	if got := len(fw.Restricted(k, r)); got != r-1 {
		t.Fatalf("FW restricted = %d", got)
	}
}

func TestConfigValidation(t *testing.T) {
	ctx := newCtx()
	bl := matrix.NewBlocked(8, 4)
	if _, _, err := Run(ctx, bl, Config{BlockSize: 4}); err == nil {
		t.Fatal("missing rule must fail")
	}
	if _, _, err := Run(ctx, bl, Config{Rule: semiring.NewGaussian(), BlockSize: 2}); err == nil {
		t.Fatal("mismatched block size must fail")
	}
	if _, _, err := Run(ctx, bl, Config{Rule: semiring.NewGaussian(), BlockSize: 4,
		RecursiveKernel: true, RShared: 1}); err == nil {
		t.Fatal("r_shared < 2 must fail")
	}
}

func TestKernelName(t *testing.T) {
	ctx := newCtx()
	if (Config{}).KernelName(ctx) != "iterative" {
		t.Fatal("iterative name")
	}
	cfg := Config{RecursiveKernel: true, RShared: 4, Threads: 8}
	if cfg.KernelName(ctx) != "rec4-way(omp=8)" {
		t.Fatalf("name = %q", cfg.KernelName(ctx))
	}
	if IM.String() != "IM" || CB.String() != "CB" {
		t.Fatal("driver names")
	}
}

func TestMatrixFromBlocksValidation(t *testing.T) {
	blocks := []Block{
		rdd.KV(matrix.Coord{I: 0, J: 0}, matrix.NewTile(4)),
		rdd.KV(matrix.Coord{I: 0, J: 0}, matrix.NewTile(4)),
	}
	if _, err := MatrixFromBlocks(8, 4, 2, blocks); err == nil {
		t.Fatal("duplicate blocks must fail")
	}
	if _, err := MatrixFromBlocks(8, 4, 2, blocks[:1]); err == nil {
		t.Fatal("missing blocks must fail")
	}
}

func TestOperandsAbsorbPanicsOnDuplicates(t *testing.T) {
	tile := matrix.NewTile(2)
	var o Operands
	o.absorb(Msg{RolePivot, tile})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	o.absorb(Msg{RolePivot, tile})
}

func TestMsgSizeBytes(t *testing.T) {
	if (Msg{RolePivot, nil}).SizeBytes() != 1 {
		t.Fatal("nil msg size")
	}
	m := Msg{RoleSelf, matrix.NewTile(4)}
	if m.SizeBytes() != 4*4*8+1 {
		t.Fatalf("msg size = %d", m.SizeBytes())
	}
	o := Operands{Self: matrix.NewTile(2), Pivot: matrix.NewTile(2)}
	if o.SizeBytes() != 2*32+1 {
		t.Fatalf("operands size = %d", o.SizeBytes())
	}
}

// TestCombineMsgsShuffled: messages that are not co-partitioned take
// combineMsgs' shuffle path, where each key's partial operand sets from
// several map tasks merge into one.
func TestCombineMsgsShuffled(t *testing.T) {
	var tiles [RoleCol + 1]*matrix.Tile
	for r := range tiles {
		tiles[r] = matrix.NewTile(1)
	}
	keys := []matrix.Coord{{I: 0, J: 0}, {I: 0, J: 1}, {I: 1, J: 1}}
	var recs []rdd.Pair[matrix.Coord, Msg]
	for r := RoleSelf; r <= RoleCol; r++ {
		for _, c := range keys {
			recs = append(recs, rdd.KV(c, Msg{r, tiles[r]}))
		}
	}
	// Parallelize deals the records round-robin over two partitions, so
	// every key's roles are split between them.
	got, err := combineMsgs(rdd.Parallelize(newCtx(), recs, 2), rdd.NewHashPartitioner(2)).Collect()
	if err != nil {
		t.Fatal(err)
	}
	want := Operands{Self: tiles[RoleSelf], Done: tiles[RoleDone], Pivot: tiles[RolePivot],
		Row: tiles[RoleRow], Col: tiles[RoleCol]}
	if len(got) != len(keys) {
		t.Fatalf("%d operand sets, want %d", len(got), len(keys))
	}
	for _, p := range got {
		if p.Value != want {
			t.Fatalf("%v: %+v, want %+v", p.Key, p.Value, want)
		}
	}
}

func TestRoleString(t *testing.T) {
	for role, want := range map[Role]string{
		RoleSelf: "self", RoleDone: "done", RolePivot: "pivot",
		RoleRow: "row", RoleCol: "col", Role(9): "role(9)",
	} {
		if role.String() != want {
			t.Fatalf("%d → %q", role, role.String())
		}
	}
}
