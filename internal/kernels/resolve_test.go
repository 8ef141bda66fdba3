package kernels

import (
	"fmt"
	"math/rand"
	"testing"

	"dpspark/internal/matrix"
	"dpspark/internal/semiring"
)

// TestResolvedKernelsMatchApply: every resolved call gives ApplyWith's
// bits, at every tier the host has, with and without a pool — min-plus
// (whose kind D at b ≤ kBlock is the brick sequence itself), GE and a
// generic semiring, every kind wired as Fig. 4 wires it (kind D also
// without its pivot), b = 1 to 40, on special values with and without
// negative diagonals. Calls the brick sequence cannot take — x aliasing
// u or v, an operand missing, tiles of another size than resolved —
// must take ApplyWith: their bits are ApplyWith's, and a mismatched
// operand panics as ApplyWith does.
func TestResolvedKernelsMatchApply(t *testing.T) {
	tiers := simdTiers(t)
	pool := NewPool(2)
	rng := rand.New(rand.NewSource(331))
	negative := func(rng *rand.Rand) float64 { return -1 - rng.Float64() }
	for _, rule := range []semiring.Rule{semiring.NewFloydWarshall(), semiring.NewGaussian(), semiring.NewTransitiveClosure()} {
		e := NewIterative(rule)
		for b := 1; b <= 40; b++ {
			for _, diag := range []func(*rand.Rand) float64{nil, negative} {
				base := make([]float64, 4*b*b)
				for i := range base {
					base[i] = specialValues(rng)
				}
				for q := 0; diag != nil && q < 4; q++ {
					for i := 0; i < b; i++ {
						base[q*b*b+i*b+i] = diag(rng)
					}
				}
				// tiles cuts x, u, v and w out of data; calls lists each
				// kind's operands as the drivers pass them, nil where x
				// stands, then the aliased and wrong-size calls of kind D.
				tiles := func(data []float64, n int) (x, u, v, w *matrix.Tile) {
					p := make([]*matrix.Tile, 4)
					for q := range p {
						p[q] = &matrix.Tile{B: n, Data: data[q*n*n : (q+1)*n*n]}
					}
					return p[3], p[2], p[1], p[0]
				}
				calls := []struct {
					name string
					kind semiring.Kind
					n    int
					args func(x, u, v, w *matrix.Tile) [4]*matrix.Tile
				}{
					{"A", semiring.KindA, b, func(x, _, _, _ *matrix.Tile) [4]*matrix.Tile { return [4]*matrix.Tile{x} }},
					{"B", semiring.KindB, b, func(x, _, _, w *matrix.Tile) [4]*matrix.Tile { return [4]*matrix.Tile{x, w, nil, w} }},
					{"C", semiring.KindC, b, func(x, _, _, w *matrix.Tile) [4]*matrix.Tile { return [4]*matrix.Tile{x, nil, w, w} }},
					{"D", semiring.KindD, b, func(x, u, v, w *matrix.Tile) [4]*matrix.Tile { return [4]*matrix.Tile{x, u, v, w} }},
					{"D/no-pivot", semiring.KindD, b, func(x, u, v, _ *matrix.Tile) [4]*matrix.Tile { return [4]*matrix.Tile{x, u, v, nil} }},
					{"D/x=u", semiring.KindD, b, func(x, _, v, w *matrix.Tile) [4]*matrix.Tile { return [4]*matrix.Tile{x, x, v, w} }},
					{"D/x=v", semiring.KindD, b, func(x, u, _, w *matrix.Tile) [4]*matrix.Tile { return [4]*matrix.Tile{x, u, x, w} }},
					{"D/no-u", semiring.KindD, b, func(x, _, v, w *matrix.Tile) [4]*matrix.Tile { return [4]*matrix.Tile{x, nil, v, w} }},
					{"D/other-size", semiring.KindD, max(b-1, 1), func(x, u, v, w *matrix.Tile) [4]*matrix.Tile { return [4]*matrix.Tile{x, u, v, w} }},
				}
				for _, c := range calls {
					call := func(data []float64, f func(x, u, v, w *matrix.Tile)) {
						a := c.args(tiles(data, c.n))
						f(a[0], a[1], a[2], a[3])
					}
					for _, tier := range tiers {
						setSIMDForTest(tier)
						for _, p := range []*Pool{nil, pool} {
							name := fmt.Sprintf("%s/%s/b=%d/negative-diagonal=%v/%v/threads=%d", rule.Name(), c.name, b, diag != nil, tier, p.Threads())
							want := append([]float64(nil), base...)
							call(want, func(x, u, v, w *matrix.Tile) { e.ApplyWith(p, c.kind, x, u, v, w) })
							got := append([]float64(nil), base...)
							resolved := e.Resolve(c.kind, b)
							call(got, func(x, u, v, w *matrix.Tile) { resolved(p, x, u, v, w) })
							requireSameBits(t, name, got, want)
						}
					}
				}
				if b > 1 {
					x, u, v, w := tiles(base, b)
					u = &matrix.Tile{B: b - 1, Data: u.Data}
					for _, f := range []func(){
						func() { e.ApplyWith(nil, semiring.KindD, x, u, v, w) },
						func() { e.Resolve(semiring.KindD, b)(nil, x, u, v, w) },
					} {
						if msg := panicOf(f); msg != "kernels: operand tile sizes differ" {
							t.Fatalf("%s/b=%d: a mismatched operand panicked with %v", rule.Name(), b, msg)
						}
					}
				}
			}
		}
	}
}

// panicOf runs f and returns what it panicked with, nil if it did not.
func panicOf(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// scatteredKindD builds count kind-D calls on b×b min-plus tiles laid
// out as a fine-tile task finds them: every x its own allocation, in a
// shuffled order, u and v the row's and column's panel tiles.
func scatteredKindD(count, b int) (xs, us, vs []*matrix.Tile) {
	rng := rand.New(rand.NewSource(337))
	fill := func() *matrix.Tile {
		t := matrix.NewTile(b)
		for i := range t.Data {
			t.Data[i] = 1 + rng.Float64()*9
		}
		return t
	}
	side := 1
	for side*side < count {
		side++
	}
	panels := make([]*matrix.Tile, 2*side)
	for i := range panels {
		panels[i] = fill()
	}
	for _, i := range rng.Perm(count) {
		xs = append(xs, fill())
		us, vs = append(us, panels[i/side]), append(vs, panels[side+i%side])
	}
	return xs, us, vs
}

// BenchmarkKindDCall is the per-call cost of a min-plus kind-D update on
// 4,096 scattered 8×8 tiles, through the resolved call and through
// ApplyWith; one op is one call.
func BenchmarkKindDCall(b *testing.B) {
	const tiles, size = 4096, 8
	xs, us, vs := scatteredKindD(tiles, size)
	e := NewIterative(semiring.NewFloydWarshall())
	resolved := e.Resolve(semiring.KindD, size)
	for _, c := range []struct {
		name string
		call func(x, u, v *matrix.Tile)
	}{
		{"resolved", func(x, u, v *matrix.Tile) { resolved(nil, x, u, v, nil) }},
		{"ApplyWith", func(x, u, v *matrix.Tile) { e.ApplyWith(nil, semiring.KindD, x, u, v, nil) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				j := i % tiles
				c.call(xs[j], us[j], vs[j])
			}
		})
	}
}
