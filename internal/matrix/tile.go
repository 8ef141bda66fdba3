package matrix

import "fmt"

// Coord addresses a tile in the r×r block decomposition of the DP table.
// It is the key of the pair RDD in the Spark drivers (paper §IV-C).
type Coord struct {
	I, J int
}

// String formats the coordinate as "(i,j)".
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.I, c.J) }

// Tile is one b×b block of the DP table: the unit of distribution in the
// top-level Spark program and the unit of work for the kernels.
//
// A Tile may be *symbolic*: Data == nil while B is still meaningful. The
// cluster simulator runs paper-scale experiments (32K×32K) on symbolic
// tiles — the drivers and schedulers execute the identical code path and
// byte accounting, but no element arithmetic happens.
type Tile struct {
	B    int
	Data []float64

	// gen is the engine-ownership tag used for copy-on-write clone
	// elision: 0 means the tile is not owned by the executing driver
	// (user input, pooled-fresh, or handed back to the user) and must be
	// defensively cloned before mutation; a non-zero value names the
	// driver iteration that produced the tile's current contents, letting
	// lineage replays recognize an already-applied kernel.
	gen uint32
}

// Gen returns the ownership generation tag.
func (t *Tile) Gen() uint32 { return t.gen }

// SetGen assigns the ownership generation tag (0 disowns the tile).
func (t *Tile) SetGen(g uint32) { t.gen = g }

// NewTile allocates a zeroed b×b tile.
func NewTile(b int) *Tile {
	if b <= 0 {
		panic("matrix: tile dimension must be positive")
	}
	return &Tile{B: b, Data: make([]float64, b*b)}
}

// NewSymbolicTile returns a data-free tile of dimension b for model mode.
func NewSymbolicTile(b int) *Tile {
	if b <= 0 {
		panic("matrix: tile dimension must be positive")
	}
	return &Tile{B: b}
}

// Symbolic reports whether the tile carries no payload.
func (t *Tile) Symbolic() bool { return t.Data == nil }

// At returns element (i, j) of the tile.
func (t *Tile) At(i, j int) float64 { return t.Data[i*t.B+j] }

// Set assigns element (i, j) of the tile.
func (t *Tile) Set(i, j int, v float64) { t.Data[i*t.B+j] = v }

// Transpose returns a new tile with rows and columns exchanged; a
// symbolic tile transposes to a symbolic tile. Used by solvers that
// exploit symmetry (undirected APSP keeps only the upper block triangle
// and transposes on demand).
func (t *Tile) Transpose() *Tile {
	if t.Symbolic() {
		return NewSymbolicTile(t.B)
	}
	out := NewTile(t.B)
	t.TransposeInto(out)
	return out
}

// TransposeInto writes the transpose of t into dst, which must be a real
// tile of equal dimension.
func (t *Tile) TransposeInto(dst *Tile) {
	if dst.B != t.B || dst.Symbolic() || t.Symbolic() {
		panic("matrix: TransposeInto needs real tiles of equal dimension")
	}
	b := t.B
	for i := 0; i < b; i++ {
		row := t.Data[i*b : i*b+b]
		for j, x := range row {
			dst.Data[j*b+i] = x
		}
	}
}

// Clone deep-copies the tile; a symbolic tile clones to a symbolic tile.
func (t *Tile) Clone() *Tile {
	if t.Symbolic() {
		return NewSymbolicTile(t.B)
	}
	out := NewTile(t.B)
	copy(out.Data, t.Data)
	return out
}

// Bytes returns the serialized payload size of the tile (meaningful for
// symbolic tiles too — the simulator charges traffic by this value).
func (t *Tile) Bytes() int64 { return int64(t.B) * int64(t.B) * 8 }

// View returns a strided view covering the whole tile. It panics for
// symbolic tiles, which have no elements to view.
func (t *Tile) View() View {
	if t.Symbolic() {
		panic("matrix: View of a symbolic tile")
	}
	return View{Data: t.Data, N: t.B, Stride: t.B}
}

// View is an n×n window into a larger row-major buffer, with the given row
// stride. Views are how the recursive r-way kernels address subtiles
// without copying: Sub slices the window into an r×r grid of child views.
type View struct {
	Data   []float64
	N      int
	Stride int
}

// At returns element (i, j) of the view.
func (v View) At(i, j int) float64 { return v.Data[i*v.Stride+j] }

// Set assigns element (i, j) of the view.
func (v View) Set(i, j int, x float64) { v.Data[i*v.Stride+j] = x }

// Sub returns the n×n sub-view whose top-left corner is (i0, j0).
func (v View) Sub(i0, j0, n int) View {
	if i0 < 0 || j0 < 0 || i0+n > v.N || j0+n > v.N {
		panic(fmt.Sprintf("matrix: Sub(%d,%d,%d) outside %d×%d view", i0, j0, n, v.N, v.N))
	}
	return View{
		Data:   v.Data[i0*v.Stride+j0:],
		N:      n,
		Stride: v.Stride,
	}
}

// Quadrant returns the (qi, qj)-th of r×r equal subdivisions of the view.
// v.N must be divisible by r (the r-way algorithms guarantee this through
// virtual padding).
func (v View) Quadrant(qi, qj, r int) View {
	if v.N%r != 0 {
		panic(fmt.Sprintf("matrix: view dim %d not divisible by r=%d", v.N, r))
	}
	s := v.N / r
	return v.Sub(qi*s, qj*s, s)
}

// CopyTo copies the view's elements into dst, which must have equal N.
func (v View) CopyTo(dst View) {
	if v.N != dst.N {
		panic("matrix: CopyTo dimension mismatch")
	}
	for i := 0; i < v.N; i++ {
		copy(dst.Data[i*dst.Stride:i*dst.Stride+v.N], v.Data[i*v.Stride:i*v.Stride+v.N])
	}
}
