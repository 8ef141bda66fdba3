package matrix

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary format of a dense matrix: little-endian, a small magic+dimension
// header followed by the raw float64 payload. Matrices round-trip exactly
// (bit-level), including infinities used by the min-plus semiring. Tiles
// have their own codec (codec.go).

const denseMagic = uint32(0x44504431) // "DPD1"

// WriteDense serializes d to w.
func WriteDense(w io.Writer, d *Dense) error {
	bw := bufio.NewWriter(w)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], denseMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(d.N))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if err := writeFloats(bw, d.Data); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadDense deserializes a matrix written by WriteDense.
func ReadDense(r io.Reader) (*Dense, error) {
	br := bufio.NewReader(r)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	if m := binary.LittleEndian.Uint32(hdr[0:4]); m != denseMagic {
		return nil, fmt.Errorf("matrix: bad dense magic %#x", m)
	}
	n := int(binary.LittleEndian.Uint32(hdr[4:8]))
	if n < 0 || n > 1<<18 {
		return nil, fmt.Errorf("matrix: unreasonable dimension %d", n)
	}
	d := NewDense(n)
	if err := readFloats(br, d.Data); err != nil {
		return nil, err
	}
	return d, nil
}

func writeFloats(w io.Writer, xs []float64) error {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
	}
	return nil
}

func readFloats(r io.Reader, xs []float64) error {
	var buf [8]byte
	for i := range xs {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return err
		}
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
	}
	return nil
}
