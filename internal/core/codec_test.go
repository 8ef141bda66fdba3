package core

import (
	"bytes"
	"math/rand"
	"testing"

	"dpspark/internal/matrix"
	"dpspark/internal/rdd"
)

// codecTile returns a b×b tile, symbolic or filled from seed.
func codecTile(b int, symbolic bool, seed int64) *matrix.Tile {
	if symbolic {
		return matrix.NewSymbolicTile(b)
	}
	t := matrix.NewTile(b)
	rng := rand.New(rand.NewSource(seed))
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

// codecRecord builds one of the two record kinds TileCodec handles.
func codecRecord(msg bool, c matrix.Coord, t *matrix.Tile) rdd.Record {
	if msg {
		return rdd.KV(c, Msg{RoleRow, t})
	}
	return rdd.KV(c, t)
}

// checkEncodedLenExact asserts the rdd.Codec contract for one record:
// EncodedLen is exactly what Append writes (also onto a non-empty dst),
// and the bytes decode back to the same record with nothing left over.
func checkEncodedLenExact(t *testing.T, rec rdd.Record) {
	t.Helper()
	codec := TileCodec{}
	n, ok := codec.EncodedLen(rec)
	enc, aok := codec.Append(nil, rec)
	if !ok || !aok {
		t.Fatalf("%T declined: EncodedLen ok=%v, Append ok=%v", rec, ok, aok)
	}
	if len(enc) != n {
		t.Fatalf("%T: Append wrote %d bytes, EncodedLen = %d", rec, len(enc), n)
	}
	if again, _ := codec.Append([]byte{0xEE}, rec); !bytes.Equal(again[1:], enc) {
		t.Fatalf("%T: encoding depends on what dst already holds", rec)
	}
	dec, rest, err := codec.Decode(enc)
	if err != nil || len(rest) != 0 {
		t.Fatalf("%T: Decode = %v, %d bytes left", rec, err, len(rest))
	}
	if back, _ := codec.Append(nil, dec); !bytes.Equal(back, enc) {
		t.Fatalf("%T: decoded record re-encodes differently", rec)
	}
}

// TestTileCodecEncodedLenExact: both record kinds × real/symbolic tiles
// size exactly; a nil tile and foreign record types are declined by
// EncodedLen and Append alike.
func TestTileCodecEncodedLenExact(t *testing.T) {
	for _, msg := range []bool{false, true} {
		for _, symbolic := range []bool{false, true} {
			for _, b := range []int{1, 8, 33} {
				checkEncodedLenExact(t, codecRecord(msg, matrix.Coord{I: 3, J: 70000}, codecTile(b, symbolic, int64(b))))
			}
		}
	}
	codec := TileCodec{}
	declined := []rdd.Record{
		rdd.KV(matrix.Coord{}, (*matrix.Tile)(nil)),
		rdd.KV(matrix.Coord{}, Msg{RolePivot, nil}),
		rdd.KV(1, 2),
		nil,
	}
	for _, rec := range declined {
		if n, ok := codec.EncodedLen(rec); ok || n != 0 {
			t.Fatalf("EncodedLen(%#v) = %d, %v; want declined", rec, n, ok)
		}
		if enc, ok := codec.Append(nil, rec); ok || len(enc) != 0 {
			t.Fatalf("Append(%#v) wrote %d bytes, ok=%v; want declined", rec, len(enc), ok)
		}
	}
}

// FuzzTileCodecEncodedLen runs the same contract over fuzzed shapes; the
// seeds below run as plain unit tests (CI's fuzz-corpus step).
func FuzzTileCodecEncodedLen(f *testing.F) {
	f.Add(false, uint32(0), uint32(0), uint8(1), false, int64(1))
	f.Add(true, uint32(7), uint32(1<<31), uint8(8), false, int64(2))
	f.Add(false, uint32(1<<20), uint32(3), uint8(128), true, int64(3))
	f.Add(true, uint32(2), uint32(2), uint8(17), true, int64(4))
	f.Fuzz(func(t *testing.T, msg bool, i, j uint32, b uint8, symbolic bool, seed int64) {
		if b == 0 {
			t.Skip()
		}
		checkEncodedLenExact(t, codecRecord(msg, matrix.Coord{I: int(i), J: int(j)}, codecTile(int(b), symbolic, seed)))
	})
}
