package matrix

import "fmt"

// Blocked is the r×r tile decomposition of an n×n DP table. If n is not
// divisible by the tile size b, the table is *virtually padded* (paper
// §IV) up to R·b with rule-specific padding elements so the blocked
// algorithms never see a ragged edge; ToDense strips the padding again.
type Blocked struct {
	// N is the logical (unpadded) problem size.
	N int
	// B is the tile dimension.
	B int
	// R is the grid dimension: R = ceil(N/B).
	R int
	// Tiles holds the R×R tile grid, row-major.
	Tiles []*Tile
}

// Grid returns the grid dimension r for problem size n and tile size b.
func Grid(n, b int) int {
	if b <= 0 || n <= 0 {
		panic("matrix: Grid requires positive n and b")
	}
	return (n + b - 1) / b
}

// NewBlocked allocates an R×R grid of zeroed b×b tiles for an n×n table.
func NewBlocked(n, b int) *Blocked {
	r := Grid(n, b)
	bl := &Blocked{N: n, B: b, R: r, Tiles: make([]*Tile, r*r)}
	for i := range bl.Tiles {
		bl.Tiles[i] = NewTile(b)
	}
	return bl
}

// NewSymbolicBlocked allocates an R×R grid of symbolic tiles: the shape of
// a paper-scale DP table without its 8·n² bytes of payload.
func NewSymbolicBlocked(n, b int) *Blocked {
	r := Grid(n, b)
	bl := &Blocked{N: n, B: b, R: r, Tiles: make([]*Tile, r*r)}
	for i := range bl.Tiles {
		bl.Tiles[i] = NewSymbolicTile(b)
	}
	return bl
}

// Block decomposes d into b×b tiles, filling any padded region with the
// given off-diagonal and diagonal padding elements (take them from the
// GEP rule's Pad/PadDiag so padded cells are inert). Each tile row is one
// copy from d plus its padding.
func Block(d *Dense, b int, padOff, padDiag float64) *Blocked {
	bl := NewBlocked(d.N, b)
	for bi := 0; bi < bl.R; bi++ {
		for bj := 0; bj < bl.R; bj++ {
			t := bl.Tiles[bi*bl.R+bj]
			for i := 0; i < b; i++ {
				gi := bi*b + i
				row := t.Data[i*b : (i+1)*b]
				// The row's first n columns lie inside d; the rest pad.
				n := 0
				if gi < d.N {
					n = copy(row, d.Data[gi*d.N+min(bj*b, d.N):(gi+1)*d.N])
				}
				for j := n; j < b; j++ {
					row[j] = padOff
				}
				if gi >= d.N && bi == bj {
					row[i] = padDiag
				}
			}
		}
	}
	return bl
}

// Tile returns the tile at grid coordinate c.
func (bl *Blocked) Tile(c Coord) *Tile {
	bl.check(c)
	return bl.Tiles[c.I*bl.R+c.J]
}

// SetTile replaces the tile at grid coordinate c.
func (bl *Blocked) SetTile(c Coord, t *Tile) {
	bl.check(c)
	if t.B != bl.B {
		panic(fmt.Sprintf("matrix: SetTile dimension %d != %d", t.B, bl.B))
	}
	bl.Tiles[c.I*bl.R+c.J] = t
}

func (bl *Blocked) check(c Coord) {
	if c.I < 0 || c.I >= bl.R || c.J < 0 || c.J >= bl.R {
		panic(fmt.Sprintf("matrix: coordinate %v outside %d×%d grid", c, bl.R, bl.R))
	}
}

// Coords returns all grid coordinates in row-major order.
func (bl *Blocked) Coords() []Coord {
	out := make([]Coord, 0, bl.R*bl.R)
	for i := 0; i < bl.R; i++ {
		for j := 0; j < bl.R; j++ {
			out = append(out, Coord{i, j})
		}
	}
	return out
}

// Symbolic reports whether the decomposition carries symbolic tiles.
func (bl *Blocked) Symbolic() bool {
	return len(bl.Tiles) > 0 && bl.Tiles[0].Symbolic()
}

// ToDense reassembles the logical n×n matrix, dropping virtual padding:
// one copy per tile row.
func (bl *Blocked) ToDense() *Dense {
	if bl.Symbolic() {
		panic("matrix: ToDense of a symbolic blocked matrix")
	}
	d := NewDense(bl.N)
	for gi := 0; gi < bl.N; gi++ {
		bi, i := gi/bl.B, gi%bl.B
		for bj := 0; bj < bl.R; bj++ {
			t := bl.Tiles[bi*bl.R+bj]
			copy(d.Data[gi*bl.N+bj*bl.B:(gi+1)*bl.N], t.Data[i*bl.B:(i+1)*bl.B])
		}
	}
	return d
}

// Clone deep-copies the blocked matrix.
func (bl *Blocked) Clone() *Blocked {
	out := &Blocked{N: bl.N, B: bl.B, R: bl.R, Tiles: make([]*Tile, len(bl.Tiles))}
	for i, t := range bl.Tiles {
		out.Tiles[i] = t.Clone()
	}
	return out
}

// Bytes returns the total payload size across all tiles.
func (bl *Blocked) Bytes() int64 {
	var n int64
	for _, t := range bl.Tiles {
		n += t.Bytes()
	}
	return n
}
