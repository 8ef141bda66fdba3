package matrix

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDenseBasics(t *testing.T) {
	d := NewDense(3)
	d.Set(1, 2, 7.5)
	if d.At(1, 2) != 7.5 {
		t.Fatalf("At(1,2) = %v", d.At(1, 2))
	}
	c := d.Clone()
	c.Set(1, 2, 0)
	if d.At(1, 2) != 7.5 {
		t.Fatal("Clone is not deep")
	}
	if d.Bytes() != 3*3*8 {
		t.Fatalf("Bytes = %d", d.Bytes())
	}
}

func TestDenseEqualWithInfinities(t *testing.T) {
	a := NewDense(2)
	b := NewDense(2)
	a.Set(0, 1, math.Inf(1))
	b.Set(0, 1, math.Inf(1))
	if !a.Equal(b, 0) {
		t.Fatal("equal infinities should compare equal")
	}
	b.Set(1, 0, 1e-13)
	if !a.Equal(b, 1e-12) {
		t.Fatal("within-tolerance values should compare equal")
	}
	if a.Equal(b, 1e-14) {
		t.Fatal("outside-tolerance values should differ")
	}
}

func TestDenseMaxAbsDiff(t *testing.T) {
	a := NewDense(2)
	b := NewDense(2)
	a.Set(0, 0, 1)
	b.Set(0, 0, 3)
	a.Set(1, 1, math.Inf(1))
	b.Set(1, 1, math.Inf(1))
	if got := a.MaxAbsDiff(b); got != 2 {
		t.Fatalf("MaxAbsDiff = %v, want 2", got)
	}
	b.Set(1, 1, 5)
	if got := a.MaxAbsDiff(b); !math.IsInf(got, 1) {
		t.Fatalf("MaxAbsDiff with inf mismatch = %v, want +Inf", got)
	}
}

func TestFillDiagonallyDominant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDense(16)
	d.FillDiagonallyDominant(rng)
	for i := 0; i < d.N; i++ {
		var off float64
		for j := 0; j < d.N; j++ {
			if i != j {
				off += math.Abs(d.At(i, j))
			}
		}
		if d.At(i, i) <= off {
			t.Fatalf("row %d not diagonally dominant", i)
		}
	}
}

func TestTileBasics(t *testing.T) {
	tl := NewTile(4)
	tl.Set(2, 3, -1)
	if tl.At(2, 3) != -1 {
		t.Fatal("tile At/Set broken")
	}
	if tl.Symbolic() {
		t.Fatal("real tile reported symbolic")
	}
	s := NewSymbolicTile(4)
	if !s.Symbolic() {
		t.Fatal("symbolic tile not symbolic")
	}
	if s.Bytes() != tl.Bytes() {
		t.Fatal("symbolic tile must account the same bytes")
	}
	if sc := s.Clone(); !sc.Symbolic() || sc.B != 4 {
		t.Fatal("symbolic clone wrong")
	}
}

func TestTileFillConst(t *testing.T) {
	tl := NewTile(3)
	tl.FillConst(9, 1)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 9.0
			if i == j {
				want = 1
			}
			if tl.At(i, j) != want {
				t.Fatalf("FillConst: (%d,%d) = %v", i, j, tl.At(i, j))
			}
		}
	}
}

func TestViewSubAndQuadrant(t *testing.T) {
	tl := NewTile(8)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			tl.Set(i, j, float64(10*i+j))
		}
	}
	v := tl.View()
	q := v.Quadrant(1, 1, 2) // bottom-right 4×4
	if q.N != 4 || q.At(0, 0) != 44 || q.At(3, 3) != 77 {
		t.Fatalf("Quadrant wrong: N=%d corner=%v/%v", q.N, q.At(0, 0), q.At(3, 3))
	}
	qq := q.Quadrant(0, 1, 2) // its top-right 2×2
	if qq.At(0, 0) != 46 || qq.At(1, 1) != 57 {
		t.Fatalf("nested Quadrant wrong: %v %v", qq.At(0, 0), qq.At(1, 1))
	}
	qq.Set(0, 0, -5)
	if tl.At(4, 6) != -5 {
		t.Fatal("views must alias the tile buffer")
	}
}

func TestViewCopyTo(t *testing.T) {
	src := NewTile(4)
	src.View().Set(1, 2, 42)
	dst := NewTile(6)
	src.View().CopyTo(dst.View().Sub(2, 2, 4))
	if dst.At(3, 4) != 42 {
		t.Fatalf("CopyTo misplaced: %v", dst.At(3, 4))
	}
}

func TestViewBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range Sub")
		}
	}()
	NewTile(4).View().Sub(2, 2, 3)
}

func TestGrid(t *testing.T) {
	cases := []struct{ n, b, want int }{
		{8, 4, 2}, {9, 4, 3}, {1, 4, 1}, {4, 4, 1}, {5, 4, 2},
	}
	for _, c := range cases {
		if got := Grid(c.n, c.b); got != c.want {
			t.Fatalf("Grid(%d,%d) = %d, want %d", c.n, c.b, got, c.want)
		}
	}
}

func TestBlockRoundTripExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 3, 4, 7, 8, 13} {
		for _, b := range []int{1, 2, 3, 4, 5, 8} {
			d := NewDense(n)
			d.FillRandom(rng, -10, 10)
			bl := Block(d, b, math.Inf(1), 0)
			back := bl.ToDense()
			if !d.Equal(back, 0) {
				t.Fatalf("n=%d b=%d: round trip differs", n, b)
			}
		}
	}
}

func TestBlockPadding(t *testing.T) {
	d := NewDense(3)
	d.FillRandom(rand.New(rand.NewSource(12)), 1, 2)
	bl := Block(d, 2, 99, -1) // pads to 4×4
	if bl.R != 2 {
		t.Fatalf("R = %d", bl.R)
	}
	last := bl.Tile(Coord{1, 1})
	if last.At(1, 1) != -1 {
		t.Fatalf("padded diagonal = %v, want -1", last.At(1, 1))
	}
	if last.At(0, 1) != 99 || last.At(1, 0) != 99 {
		t.Fatalf("padded off-diagonal = %v/%v, want 99", last.At(0, 1), last.At(1, 0))
	}
	// Real cell (2,2) lives in tile (1,1) at (0,0).
	if last.At(0, 0) != d.At(2, 2) {
		t.Fatal("real cell misplaced by padding")
	}
}

// TestBlockMatchesElementwise compares Block's and ToDense's row copies
// with the element-wise loops they replaced, bit for bit, on ragged and
// dividing shapes under FW (+Inf, 0) and GE (0, 1) padding.
func TestBlockMatchesElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 5, 100, 1000, 1024} {
		for _, b := range []int{4, 24, 256} {
			for _, pad := range [][2]float64{{math.Inf(1), 0}, {0, 1}} {
				d := NewDense(n)
				d.FillRandom(rng, -10, 10)
				bl := Block(d, b, pad[0], pad[1])
				want := blockElementwise(d, b, pad[0], pad[1])
				for q, tile := range bl.Tiles {
					if !sameBits(tile.Data, want.Tiles[q].Data) {
						t.Fatalf("n=%d b=%d pad=%v: Block tile %d differs", n, b, pad, q)
					}
				}
				// Scribble on the padding so ToDense must drop it.
				for _, tile := range bl.Tiles {
					for i := range tile.Data {
						tile.Data[i] += 1
					}
				}
				if got, want := bl.ToDense(), toDenseElementwise(bl); !sameBits(got.Data, want.Data) {
					t.Fatalf("n=%d b=%d pad=%v: ToDense differs", n, b, pad)
				}
			}
		}
	}
}

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

// blockElementwise is Block as one switch per element.
func blockElementwise(d *Dense, b int, padOff, padDiag float64) *Blocked {
	bl := NewBlocked(d.N, b)
	np := bl.R * b
	for bi := 0; bi < bl.R; bi++ {
		for bj := 0; bj < bl.R; bj++ {
			t := bl.Tiles[bi*bl.R+bj]
			for i := 0; i < b; i++ {
				for j := 0; j < b; j++ {
					gi, gj := bi*b+i, bj*b+j
					switch {
					case gi < d.N && gj < d.N:
						t.Set(i, j, d.At(gi, gj))
					case gi == gj && gi < np:
						t.Set(i, j, padDiag)
					default:
						t.Set(i, j, padOff)
					}
				}
			}
		}
	}
	return bl
}

// toDenseElementwise is ToDense one element at a time.
func toDenseElementwise(bl *Blocked) *Dense {
	d := NewDense(bl.N)
	for gi := 0; gi < bl.N; gi++ {
		for gj := 0; gj < bl.N; gj++ {
			d.Set(gi, gj, bl.Tiles[(gi/bl.B)*bl.R+gj/bl.B].At(gi%bl.B, gj%bl.B))
		}
	}
	return d
}

func TestBlockedProperty(t *testing.T) {
	// Property: blocking then unblocking is identity for any n, b.
	f := func(nRaw, bRaw uint8, seed int64) bool {
		n := int(nRaw)%24 + 1
		b := int(bRaw)%9 + 1
		d := NewDense(n)
		d.FillRandom(rand.New(rand.NewSource(seed)), -5, 5)
		return d.Equal(Block(d, b, 0, 1).ToDense(), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSymbolicBlocked(t *testing.T) {
	bl := NewSymbolicBlocked(10, 4)
	if !bl.Symbolic() {
		t.Fatal("not symbolic")
	}
	if bl.R != 3 {
		t.Fatalf("R = %d", bl.R)
	}
	if bl.Bytes() != 9*4*4*8 {
		t.Fatalf("Bytes = %d", bl.Bytes())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ToDense on symbolic must panic")
		}
	}()
	bl.ToDense()
}

func TestBlockedCloneAndCoords(t *testing.T) {
	bl := NewBlocked(4, 2)
	bl.Tile(Coord{0, 1}).Set(0, 0, 5)
	cl := bl.Clone()
	cl.Tile(Coord{0, 1}).Set(0, 0, 6)
	if bl.Tile(Coord{0, 1}).At(0, 0) != 5 {
		t.Fatal("Clone not deep")
	}
	if len(bl.Coords()) != 4 {
		t.Fatalf("Coords = %v", bl.Coords())
	}
}

func TestTileIORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tl := NewTile(5)
	for i := range tl.Data {
		tl.Data[i] = rng.NormFloat64()
	}
	tl.Set(0, 1, math.Inf(1)) // infinities must survive
	var buf bytes.Buffer
	if err := WriteTile(&buf, tl); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.B != tl.B {
		t.Fatalf("B = %d", got.B)
	}
	for i := range tl.Data {
		if got.Data[i] != tl.Data[i] && !(math.IsInf(got.Data[i], 1) && math.IsInf(tl.Data[i], 1)) {
			t.Fatalf("payload differs at %d", i)
		}
	}
}

func TestDenseIORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	d := NewDense(7)
	d.FillRandom(rng, -100, 100)
	var buf bytes.Buffer
	if err := WriteDense(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDense(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal(got, 0) {
		t.Fatal("dense round trip differs")
	}
}

func TestTileIOErrors(t *testing.T) {
	if err := WriteTile(&bytes.Buffer{}, NewSymbolicTile(4)); err == nil {
		t.Fatal("expected error serializing symbolic tile")
	}
	if _, err := ReadTile(bytes.NewReader([]byte("short"))); err == nil {
		t.Fatal("expected error on truncated input")
	}
	bad := bytes.NewBuffer(nil)
	_ = WriteDense(bad, NewDense(1))
	if _, err := ReadTile(bad); err == nil {
		t.Fatal("expected magic mismatch error")
	}
}
