package core

import (
	"math/rand"
	"testing"

	"dpspark/internal/matrix"
	"dpspark/internal/rdd"
	"dpspark/internal/semiring"

	"dpspark/internal/cluster"
)

// TestRunDoesNotMutateInput pins Run's immutability contract now that
// kernels elide defensive clones: the caller's blocked matrix must be
// byte-identical after a real-mode run (the first kernel to touch an
// engine-unowned tile takes a pooled copy).
func TestRunDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rule := semiring.NewFloydWarshall()
	in := randomInput(rule, 24, rng)
	bl := matrix.Block(in, 8, rule.Pad(), rule.PadDiag())
	snapshot := make(map[matrix.Coord][]float64)
	for _, c := range bl.Coords() {
		snapshot[c] = append([]float64(nil), bl.Tile(c).Data...)
	}
	for _, driver := range []DriverKind{IM, CB} {
		if _, _, err := Run(newCtx(), bl, Config{Rule: rule, BlockSize: 8, Driver: driver}); err != nil {
			t.Fatalf("%v: %v", driver, err)
		}
		for _, c := range bl.Coords() {
			for i, want := range snapshot[c] {
				if bl.Tile(c).Data[i] != want {
					t.Fatalf("%v mutated input tile %v at %d", driver, c, i)
				}
			}
		}
	}
}

// TestRunOutputReusableAsInput: result tiles are disowned on the way out,
// so feeding one run's output into a second run must neither corrupt the
// first result nor break the second (FW is idempotent: FW(FW(d)) =
// FW(d)).
func TestRunOutputReusableAsInput(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	rule := semiring.NewFloydWarshall()
	in := randomInput(rule, 16, rng)
	want := reference(rule, in)
	cfg := Config{Rule: rule, BlockSize: 8, Driver: IM}

	bl := matrix.Block(in, 8, rule.Pad(), rule.PadDiag())
	out1, _, err := Run(newCtx(), bl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := out1.ToDense()
	out2, _, err := Run(newCtx(), out1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff := out2.ToDense().MaxAbsDiff(want); diff != 0 {
		t.Fatalf("second run diverged from fixpoint by %v", diff)
	}
	if diff := out1.ToDense().MaxAbsDiff(first); diff != 0 {
		t.Fatalf("second run mutated first run's result by %v", diff)
	}
}

// killingRule is its rule, except that while armed it kills the task
// applying it between two kernels. A wrapped rule takes the kernels'
// generic loop, which asks UsesPivot once as a kernel starts and stores a
// cell only after Apply returned — so a panic in a kernel's first Apply
// ends the attempt with that kernel untouched and every kernel before it
// applied to live tiles. Every third kernel started while armed dies this
// way. For one real worker only: which attempt dies must not depend on
// interleaving.
type killingRule struct {
	semiring.Rule
	armed, starting bool
	started, kills  int
}

func (r *killingRule) UsesPivot() bool {
	r.starting = true
	return r.Rule.UsesPivot()
}

func (r *killingRule) Apply(x, u, v, w float64) float64 {
	if r.starting {
		r.starting = false
		if r.started++; r.armed && r.started%3 == 0 {
			r.kills++
			panic("killingRule: the attempt dies between two kernels")
		}
	}
	return r.Rule.Apply(x, u, v, w)
}

// TestRealModeFaultRetryMatchesReference: task retries replay kernels on
// live data — with clone elision the replay must recognize
// already-applied kernels (the gen tag) and still produce exact results.
// For both drivers, attempts die with some of their kernels applied, and
// the run must elide more kernel calls than the unkilled one: retries met
// tiles their dead attempts had already updated.
func TestRealModeFaultRetryMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, rule := range []semiring.Rule{semiring.NewFloydWarshall(), semiring.NewGaussian()} {
		in := randomInput(rule, 32, rng)
		want := reference(rule, in)
		for _, driver := range []DriverKind{IM, CB} {
			// run returns the result and how many kernel calls were elided
			// as replays (calls that never reached the kernel loop).
			run := func(kill bool) (*matrix.Dense, int64, *killingRule, rdd.RecoveryStats) {
				kr := &killingRule{Rule: rule}
				ctx := rdd.NewContext(rdd.Conf{Substrate: slots(t, cluster.Local(4), 1)})
				boundaries := 0
				got := runOnce(t, ctx, in, Config{Rule: kr, BlockSize: 8, Driver: driver,
					// Two partitions: a task holds several tiles, so an
					// attempt can die with some of its kernels applied.
					Partitions: 2,
					// Polled at every iteration boundary, before the
					// iteration's lazy stages run. The first iteration is
					// left alone: its kernels clone the caller's tiles
					// instead of updating them, so a retry there starts
					// from fresh clones and replays nothing.
					StopRequested: func() bool {
						boundaries++
						kr.armed = kill && boundaries >= 2
						return false
					}})
				calls := ctx.Observer().Metrics().CounterTotal("dpspark_kernel_calls_total")
				return got, calls - int64(kr.started), kr, ctx.RecoveryStats()
			}
			_, cleanElided, _, _ := run(false)
			got, elided, kr, rs := run(true)
			if diff := got.MaxAbsDiff(want); diff > tolFor(rule, 32) {
				t.Fatalf("%s %v under retries: diff %v", rule.Name(), driver, diff)
			}
			if kr.kills == 0 || rs.TaskRetries != int64(kr.kills) {
				t.Fatalf("%s %v: %d attempts killed, %d task retries", rule.Name(), driver, kr.kills, rs.TaskRetries)
			}
			if elided <= cleanElided {
				t.Fatalf("%s %v: %d kernel calls elided with %d kills, %d without — no retry replayed an applied kernel",
					rule.Name(), driver, elided, kr.kills, cleanElided)
			}
		}
	}
}

// TestCBRecomputeElisionExact: CB deliberately recomputes the A and B/C
// kernels through the closing shuffle's lineage replay. The elided replay
// must return the identical tile (not a re-application), keeping IM and
// CB bit-identical in real mode.
func TestCBRecomputeElisionExact(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	rule := semiring.NewGaussian()
	in := randomInput(rule, 24, rng)
	im := runOnce(t, newCtx(), in, Config{Rule: rule, BlockSize: 8, Driver: IM})
	cb := runOnce(t, newCtx(), in, Config{Rule: rule, BlockSize: 8, Driver: CB})
	if diff := im.MaxAbsDiff(cb); diff != 0 {
		t.Fatalf("IM and CB diverged by %v", diff)
	}
}
