// Package matrix provides the dense-matrix substrate for the GEP solvers:
// square row-major matrices, b×b tiles with strided sub-views (the unit the
// recursive r-way kernels divide), blocked matrices with virtual padding
// (paper §IV), symbolic tiles for model-mode simulation, and binary I/O.
package matrix

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
)

// Dense is a square row-major n×n matrix of float64.
type Dense struct {
	N    int
	Data []float64
}

// NewDense allocates a zeroed n×n matrix.
func NewDense(n int) *Dense {
	if n < 0 {
		panic("matrix: negative dimension")
	}
	return &Dense{N: n, Data: make([]float64, n*n)}
}

// FromSlice wraps a row-major slice of length n*n as a Dense without
// copying. The caller must not alias d.Data elsewhere if mutation matters.
func FromSlice(n int, data []float64) *Dense {
	if len(data) != n*n {
		panic(fmt.Sprintf("matrix: FromSlice length %d != %d*%d", len(data), n, n))
	}
	return &Dense{N: n, Data: data}
}

// At returns element (i, j).
func (d *Dense) At(i, j int) float64 { return d.Data[i*d.N+j] }

// Set assigns element (i, j).
func (d *Dense) Set(i, j int, v float64) { d.Data[i*d.N+j] = v }

// Clone returns a deep copy.
func (d *Dense) Clone() *Dense {
	out := NewDense(d.N)
	copy(out.Data, d.Data)
	return out
}

// Fill sets every element to f(i, j).
func (d *Dense) Fill(f func(i, j int) float64) {
	for i := 0; i < d.N; i++ {
		for j := 0; j < d.N; j++ {
			d.Data[i*d.N+j] = f(i, j)
		}
	}
}

// FillRandom fills the matrix with uniform values in [lo, hi) drawn from rng.
func (d *Dense) FillRandom(rng *rand.Rand, lo, hi float64) {
	for i := range d.Data {
		d.Data[i] = lo + rng.Float64()*(hi-lo)
	}
}

// FillDiagonallyDominant fills the matrix with random values in [1, 2) and
// boosts the diagonal above the row sums, producing a matrix on which
// Gaussian elimination without pivoting is numerically safe (the class the
// paper's GE benchmark targets).
func (d *Dense) FillDiagonallyDominant(rng *rand.Rand) {
	n := d.N
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < n; j++ {
			v := 1 + rng.Float64()
			d.Data[i*n+j] = v
			sum += math.Abs(v)
		}
		d.Data[i*n+i] = sum + 1
	}
}

// Equal reports whether d and other agree elementwise within tol,
// treating equal infinities as equal.
func (d *Dense) Equal(other *Dense, tol float64) bool {
	if d.N != other.N {
		return false
	}
	for i, v := range d.Data {
		w := other.Data[i]
		if v == w { // covers matching infinities
			continue
		}
		if math.Abs(v-w) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest |d−other| over all elements (0 for equal
// infinities) and panics on dimension mismatch.
func (d *Dense) MaxAbsDiff(other *Dense) float64 {
	if d.N != other.N {
		panic("matrix: MaxAbsDiff dimension mismatch")
	}
	var m float64
	for i, v := range d.Data {
		w := other.Data[i]
		if v == w {
			continue
		}
		diff := math.Abs(v - w)
		if math.IsNaN(diff) || math.IsInf(diff, 0) {
			return math.Inf(1)
		}
		if diff > m {
			m = diff
		}
	}
	return m
}

// Checksum fingerprints the matrix bit-exactly: FNV-1a over the raw
// float bits, so NaN, Inf and signed zeros are told apart. A served job
// and a CLI run report this number, and it must match the same input's
// solo run bit for bit.
func (d *Dense) Checksum() uint64 {
	h := newFloatHash()
	h.write(d.Data)
	return h.sum()
}

// floatHash is the FNV-1a stream Checksum hashes: each value's bits,
// little-endian, encoded a chunk at a time.
type floatHash struct {
	h   hash.Hash64
	buf [512]byte
}

func newFloatHash() *floatHash { return &floatHash{h: fnv.New64a()} }

func (f *floatHash) write(xs []float64) {
	for len(xs) > 0 {
		n := min(len(xs), len(f.buf)/8)
		for i, v := range xs[:n] {
			binary.LittleEndian.PutUint64(f.buf[8*i:], math.Float64bits(v))
		}
		f.h.Write(f.buf[:8*n])
		xs = xs[n:]
	}
}

func (f *floatHash) sum() uint64 { return f.h.Sum64() }

// Bytes returns the in-memory payload size of the matrix.
func (d *Dense) Bytes() int64 { return int64(d.N) * int64(d.N) * 8 }

// String renders small matrices for debugging; large ones are summarized.
func (d *Dense) String() string {
	if d.N > 8 {
		return fmt.Sprintf("Dense(%d×%d)", d.N, d.N)
	}
	s := ""
	for i := 0; i < d.N; i++ {
		for j := 0; j < d.N; j++ {
			s += fmt.Sprintf("%8.3g ", d.At(i, j))
		}
		s += "\n"
	}
	return s
}
