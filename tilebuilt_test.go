package dpspark

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dpspark/internal/core"
	"dpspark/internal/ge"
	"dpspark/internal/matrix"
	"dpspark/internal/semiring"
)

// TestTileBuiltSolversMatchDense pins the solvers that build their tiles
// straight from the input to the dense path they replaced, bit for bit:
// Session.APSP(g) ≡ APSPSemiring(g.DistanceMatrix(), MinPlus()),
// SolveLinear ≡ Augment → Eliminate → BackSubstitute, and
// Blocked.Checksum ≡ ToDense().Checksum(). The shapes leave a padded
// tile edge (n mod b ≠ 0) or none, and the graphs carry negative
// weights, self-loops of both signs, duplicate edges and a NaN weight.
func TestTileBuiltSolversMatchDense(t *testing.T) {
	session := func() *Session {
		s := NewSession(Local(2))
		return s
	}
	fw := semiring.NewFloydWarshall()

	for _, c := range []struct {
		n, b      int
		recursive bool
	}{{70, 16, false}, {64, 16, false}, {200, 96, false}, {130, 64, true}} {
		rng := rand.New(rand.NewSource(int64(c.n)))
		g := RandomGraph(c.n, 0.08, -2, 9, int64(c.b))
		for e := 0; e < c.n; e++ {
			u, v := rng.Intn(c.n), rng.Intn(c.n)
			w := float64(rng.Intn(7) - 1)
			g.AddEdge(u, v, w)
			g.AddEdge(u, v, w+1) // a duplicate, heavier
			g.AddEdge(u, v, w)   // and an exact repeat
			g.AddEdge(u, u, float64(rng.Intn(5)-2))
		}
		g.AddEdge(0, c.n-1, math.NaN())
		for _, drv := range []core.DriverKind{IM, CB} {
			name := fmt.Sprintf("apsp/n=%d/b=%d/%v/recursive=%v", c.n, c.b, drv, c.recursive)
			cfg := Config{BlockSize: c.b, Driver: drv, RecursiveKernel: c.recursive, RShared: 2}
			got, _, err := session().APSP(g, cfg)
			if err != nil {
				t.Fatal(name, err)
			}
			want, _, err := session().APSPSemiring(g.DistanceMatrix(), MinPlus(), cfg)
			if err != nil {
				t.Fatal(name, err)
			}
			requireBits(t, name, got.Data, want.Data)
		}
		rows := matrix.BlockRows(g.N, c.b, fw.Pad(), fw.PadDiag(), g.DistanceRow)
		dense := matrix.Block(g.DistanceMatrix(), c.b, fw.Pad(), fw.PadDiag())
		for i := range rows.Tiles {
			requireBits(t, fmt.Sprintf("BlockRows ≡ Block, n=%d b=%d tile %d", c.n, c.b, i),
				rows.Tiles[i].Data, dense.Tiles[i].Data)
		}
	}

	for _, c := range []struct {
		m, b      int
		drv       core.DriverKind
		recursive bool
	}{{45, 8, CB, false}, {63, 16, IM, false}, {99, 32, CB, true}} {
		name := fmt.Sprintf("ge/m=%d/b=%d/%v/recursive=%v", c.m, c.b, c.drv, c.recursive)
		a, rhs := RandomSystem(c.m, int64(c.m))
		cfg := Config{BlockSize: c.b, Driver: c.drv, RecursiveKernel: c.recursive, RShared: 2}
		got, _, err := session().SolveLinear(a, rhs, cfg)
		if err != nil {
			t.Fatal(name, err)
		}
		table, err := ge.Augment(a, rhs)
		if err != nil {
			t.Fatal(name, err)
		}
		elim, _, err := session().Eliminate(table, cfg)
		if err != nil {
			t.Fatal(name, err)
		}
		want, err := ge.BackSubstitute(elim)
		if err != nil {
			t.Fatal(name, err)
		}
		requireBits(t, name, got, want)
	}

	a, rhs := RandomSystem(12, 1)
	_, _, err := session().SolveLinear(a, rhs[:11], Config{BlockSize: 4})
	if want := "ge: rhs length 11 != 12 unknowns"; err == nil || err.Error() != want {
		t.Fatalf("SolveLinear with a short rhs: error %v, want %q", err, want)
	}
	if _, err := ge.Augment(a, rhs[:11]); err == nil || err.Error() != "ge: rhs length 11 != 12 unknowns" {
		t.Fatalf("Augment with a short rhs: error %v", err)
	}

	rng := rand.New(rand.NewSource(5))
	specials := []float64{math.NaN(), math.Float64frombits(0x7ff8_0000_dead_beef), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 5e-324}
	for _, c := range [][2]int{{37, 8}, {32, 8}, {5, 16}, {1, 1}} {
		d := matrix.NewDense(c[0])
		for i := range d.Data {
			d.Data[i] = specials[rng.Intn(len(specials))]
			if rng.Intn(2) == 0 {
				d.Data[i] = rng.NormFloat64()
			}
		}
		bl := matrix.Block(d, c[1], 7, 9)
		if got, want := bl.Checksum(), bl.ToDense().Checksum(); got != want || want != d.Checksum() {
			t.Fatalf("n=%d b=%d: Blocked.Checksum %x, ToDense().Checksum %x, input %x", c[0], c[1], got, want, d.Checksum())
		}
	}
}

// requireBits fails unless got and want hold the same bit patterns.
func requireBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: diverges at %d: %x vs %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}
