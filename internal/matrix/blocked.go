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
// GEP rule's Pad/PadDiag so padded cells are inert).
func Block(d *Dense, b int, padOff, padDiag float64) *Blocked {
	return BlockRows(d.N, b, padOff, padDiag, func(i int, _ []float64) []float64 {
		return d.Data[i*d.N : (i+1)*d.N]
	})
}

// BlockRows builds the b×b tiles of an n×n table straight from its rows,
// without the dense table: row(i, buf) returns row i's n values, either
// in a slice of its own or in buf (length n), which it may fill and
// return. Each tile row is one copy from the row plus its padding, as in
// Block.
func BlockRows(n, b int, padOff, padDiag float64, row func(i int, buf []float64) []float64) *Blocked {
	bl := NewBlocked(n, b)
	buf := make([]float64, n)
	for gi := 0; gi < bl.R*b; gi++ {
		bi, i := gi/b, gi%b
		var r []float64
		if gi < n {
			r = row(gi, buf)
		}
		for bj := 0; bj < bl.R; bj++ {
			dst := bl.Tiles[bi*bl.R+bj].Data[i*b : (i+1)*b]
			// The row's first columns lie inside the table; the rest pad.
			j := copy(dst, r[min(bj*b, len(r)):])
			for ; j < b; j++ {
				dst[j] = padOff
			}
			if gi >= n && bi == bj {
				dst[i] = padDiag
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
	for i := 0; i < bl.N; i++ {
		for j := 0; j < bl.N; {
			j += copy(d.Data[i*bl.N+j:(i+1)*bl.N], bl.RowRun(i, j))
		}
	}
	return d
}

// RowRun returns the run of logical row i stored contiguously from column
// j on: the rest of that tile row, cut at column N so no padding shows.
// It aliases the tile.
func (bl *Blocked) RowRun(i, j int) []float64 {
	t := bl.Tiles[(i/bl.B)*bl.R+j/bl.B]
	off := (i%bl.B)*bl.B + j%bl.B
	return t.Data[off : off+min(bl.B-j%bl.B, bl.N-j)]
}

// Checksum is ToDense().Checksum() without the dense copy: it walks the
// tiles in row-major order of the logical table.
func (bl *Blocked) Checksum() uint64 {
	if bl.Symbolic() {
		panic("matrix: Checksum of a symbolic blocked matrix")
	}
	h := newFloatHash()
	for i := 0; i < bl.N; i++ {
		for j := 0; j < bl.N; {
			r := bl.RowRun(i, j)
			h.write(r)
			j += len(r)
		}
	}
	return h.sum()
}

// Clone deep-copies the blocked matrix.
func (bl *Blocked) Clone() *Blocked {
	out := &Blocked{N: bl.N, B: bl.B, R: bl.R, Tiles: make([]*Tile, len(bl.Tiles))}
	for i, t := range bl.Tiles {
		out.Tiles[i] = t.Clone()
	}
	return out
}
