package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
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

// codecBucket builds a bucket of one of the two record types TileCodec
// handles: record i carries tiles[i] at coordinate (i, 7-i).
func codecBucket(msg bool, tiles ...*matrix.Tile) rdd.Bucket {
	if msg {
		recs := make([]rdd.Pair[matrix.Coord, Msg], len(tiles))
		for i, t := range tiles {
			recs[i] = rdd.KV(matrix.Coord{I: i, J: 7 - i}, Msg{Role(1 + i%4), t})
		}
		return recs
	}
	recs := make([]Block, len(tiles))
	for i, t := range tiles {
		recs[i] = rdd.KV(matrix.Coord{I: i, J: 7 - i}, t)
	}
	return recs
}

// bucketTiles returns a TileCodec bucket's tiles, and an empty bucket of
// its type to decode into.
func bucketTiles(bucket rdd.Bucket) ([]*matrix.Tile, rdd.Bucket) {
	var tiles []*matrix.Tile
	switch recs := bucket.(type) {
	case []Block:
		for _, r := range recs {
			tiles = append(tiles, r.Value)
		}
		return tiles, []Block(nil)
	case []rdd.Pair[matrix.Coord, Msg]:
		for _, r := range recs {
			tiles = append(tiles, r.Value.Tile)
		}
		return tiles, []rdd.Pair[matrix.Coord, Msg](nil)
	}
	panic("not a TileCodec bucket")
}

// sharingMismatch describes how got's records fail to share a tile
// exactly where want's do, or to carry want's generation tags; "" when
// they match.
func sharingMismatch(want, got []*matrix.Tile) string {
	if len(got) != len(want) {
		return fmt.Sprintf("decoded %d records, encoded %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Gen() != want[i].Gen() {
			return fmt.Sprintf("record %d: gen %d, encoded %d", i, got[i].Gen(), want[i].Gen())
		}
		for j := range i {
			if (got[i] == got[j]) != (want[i] == want[j]) {
				return fmt.Sprintf("records %d and %d: decoded share a tile = %v, encoded = %v", j, i, got[i] == got[j], want[i] == want[j])
			}
		}
	}
	return ""
}

// checkEncodedLenExact asserts the rdd.Codec contract for one bucket:
// EncodedLen is exactly what Append writes (also onto a non-empty dst),
// and the bytes decode back — also onto a bucket already holding records
// — to records that share tiles exactly as the encoded ones did and
// re-encode to the same bytes. It returns the encoding.
func checkEncodedLenExact(t *testing.T, bucket rdd.Bucket) []byte {
	t.Helper()
	codec := TileCodec{}
	n, ok := codec.EncodedLen(bucket)
	enc, aok := codec.Append(nil, bucket)
	if !ok || !aok {
		t.Fatalf("%T declined: EncodedLen ok=%v, Append ok=%v", bucket, ok, aok)
	}
	if len(enc) != n {
		t.Fatalf("%T: Append wrote %d bytes, EncodedLen = %d", bucket, len(enc), n)
	}
	if again, _ := codec.Append([]byte{0xEE}, bucket); !bytes.Equal(again[1:], enc) {
		t.Fatalf("%T: encoding depends on what dst already holds", bucket)
	}
	want, empty := bucketTiles(bucket)
	dec, err := codec.Decode(enc, empty)
	if err != nil {
		t.Fatalf("%T: Decode: %v", bucket, err)
	}
	if back, _ := codec.Append(nil, dec); !bytes.Equal(back, enc) {
		t.Fatalf("%T: decoded bucket re-encodes differently", bucket)
	}
	twice, err := codec.Decode(enc, dec)
	if err != nil {
		t.Fatalf("%T: Decode onto a non-empty bucket: %v", bucket, err)
	}
	got, _ := bucketTiles(twice)
	if len(got) != 2*len(want) {
		t.Fatalf("%T: two decodes gave %d records, want %d", bucket, len(got), 2*len(want))
	}
	for _, half := range [][]*matrix.Tile{got[:len(want)], got[len(want):]} {
		if msg := sharingMismatch(want, half); msg != "" {
			t.Fatalf("%T: %s", bucket, msg)
		}
	}
	for i := range want {
		if got[i] == got[len(want)+i] {
			t.Fatalf("%T: the second decode shares record %d's tile with the first", bucket, i)
		}
	}
	return enc
}

// TestTileCodecEncodedLenExact: both record kinds × real/symbolic tiles
// size exactly; a nil tile anywhere in a bucket and foreign bucket types
// are declined by EncodedLen and Append alike.
func TestTileCodecEncodedLenExact(t *testing.T) {
	for _, msg := range []bool{false, true} {
		for _, symbolic := range []bool{false, true} {
			for _, b := range []int{1, 8, 33} {
				checkEncodedLenExact(t, codecBucket(msg, codecTile(b, symbolic, int64(b))))
				checkEncodedLenExact(t, codecBucket(msg, codecTile(b, symbolic, 1), codecTile(b, symbolic, 2)))
			}
		}
	}
	codec := TileCodec{}
	tile := codecTile(4, false, 1)
	declined := []rdd.Bucket{
		[]Block{rdd.KV(matrix.Coord{}, (*matrix.Tile)(nil))},
		[]Block{rdd.KV(matrix.Coord{}, tile), rdd.KV(matrix.Coord{I: 1}, (*matrix.Tile)(nil))},
		[]rdd.Pair[matrix.Coord, Msg]{rdd.KV(matrix.Coord{}, Msg{RolePivot, nil})},
		[]rdd.Pair[int, int]{rdd.KV(1, 2)},
		rdd.KV(matrix.Coord{}, tile),
		nil,
	}
	for _, bucket := range declined {
		if n, ok := codec.EncodedLen(bucket); ok || n != 0 {
			t.Fatalf("EncodedLen(%#v) = %d, %v; want declined", bucket, n, ok)
		}
		if enc, ok := codec.Append(nil, bucket); ok || len(enc) != 0 {
			t.Fatalf("Append(%#v) wrote %d bytes, ok=%v; want declined", bucket, len(enc), ok)
		}
	}
}

// TestTileCodecWritesEachTileOnce: a bucket carrying some tiles several
// times encodes each in full once and every later record as a
// back-reference; decoded, the records share tiles exactly as the encoded
// ones did, with their generation tags.
func TestTileCodecWritesEachTileOnce(t *testing.T) {
	a, b, c := codecTile(8, false, 1), codecTile(8, false, 2), codecTile(8, true, 3)
	a.SetGen(3)
	b.SetGen(5)
	tiles := []*matrix.Tile{a, b, a, a, c, b, c}
	for _, msg := range []bool{false, true} {
		header := recHeaderLen
		if msg {
			header++
		}
		enc := checkEncodedLenExact(t, codecBucket(msg, tiles...))
		full := 3*header + a.EncodedTileLen() + b.EncodedTileLen() + c.EncodedTileLen()
		if want := full + 4*refLen; len(enc) != want {
			t.Fatalf("msg=%v: %d bytes, want %d (three tiles in full, four references)", msg, len(enc), want)
		}
	}
}

// refBucket is the encoding of a message bucket of three records that all
// carry one tile, with the references' target indices replaced by at.
func refBucket(at ...uint32) []byte {
	tile := codecTile(2, false, 9)
	enc, _ := TileCodec{}.Append(nil, codecBucket(true, tile, tile, tile))
	first := recHeaderLen + 1 + tile.EncodedTileLen()
	for i, idx := range at {
		binary.LittleEndian.PutUint32(enc[first+i*refLen+refLen-4:], idx)
	}
	return enc
}

// TestTileCodecRejectsBadReferences: a back-reference must name an
// earlier record of its bucket that carries the tile in full; anything
// else — and a record of the other bucket type — is a decode error, which
// the engine reads as a lost block (FetchFailed → recompute).
func TestTileCodecRejectsBadReferences(t *testing.T) {
	codec := TileCodec{}
	msgs := []rdd.Pair[matrix.Coord, Msg](nil)
	valid := refBucket(0, 0)
	if _, err := codec.Decode(valid, msgs); err != nil {
		t.Fatalf("valid references: %v", err)
	}
	tile := codecTile(2, true, 0)
	blockRef, _ := codec.Append(nil, codecBucket(false, tile, tile))
	blockRef[len(blockRef)-5] = 1 // the reference's role byte
	msgRec, _ := codec.Append(nil, codecBucket(true, tile))
	bad := map[string]struct {
		enc  []byte
		into rdd.Bucket
	}{
		"self":               {refBucket(1, 0), msgs},
		"forward":            {refBucket(2, 0), msgs},
		"out of range":       {refBucket(0, 1<<32-1), msgs},
		"to a reference":     {refBucket(0, 1), msgs},
		"block with a role":  {blockRef, []Block(nil)},
		"message as a block": {msgRec, []Block(nil)},
		"foreign bucket":     {msgRec, []rdd.Pair[int, int](nil)},
		"truncated":          {valid[:len(valid)-1], msgs},
	}
	for name, c := range bad {
		if _, err := codec.Decode(c.enc, c.into); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// FuzzTileCodecEncodedLen runs the size and round-trip contract over
// fuzzed shapes: a bucket of one record plus copies more records of the
// same tile. The seeds below run as plain unit tests (CI's fuzz-corpus
// step).
func FuzzTileCodecEncodedLen(f *testing.F) {
	f.Add(false, uint32(0), uint32(0), uint8(1), false, int64(1), uint8(0))
	f.Add(true, uint32(7), uint32(1<<31), uint8(8), false, int64(2), uint8(3))
	f.Add(false, uint32(1<<20), uint32(3), uint8(128), true, int64(3), uint8(1))
	f.Add(true, uint32(2), uint32(2), uint8(17), true, int64(4), uint8(2))
	f.Fuzz(func(t *testing.T, msg bool, i, j uint32, b uint8, symbolic bool, seed int64, copies uint8) {
		if b == 0 {
			t.Skip()
		}
		tile := codecTile(int(b), symbolic, seed)
		tiles := []*matrix.Tile{tile}
		for range copies % 8 {
			tiles = append(tiles, tile)
		}
		bucket := codecBucket(msg, tiles...)
		switch recs := bucket.(type) {
		case []Block:
			recs[0].Key = matrix.Coord{I: int(i), J: int(j)}
		case []rdd.Pair[matrix.Coord, Msg]:
			recs[0].Key = matrix.Coord{I: int(i), J: int(j)}
		}
		checkEncodedLenExact(t, bucket)
	})
}

// FuzzTileCodecDecode feeds arbitrary bytes to the bucket decoder: it
// must never panic, and whatever it accepts must be the canonical
// encoding — re-encoding the decoded bucket gives back the same bytes.
// The seeds hold back-reference records, valid and broken.
func FuzzTileCodecDecode(f *testing.F) {
	for _, at := range [][2]uint32{{0, 0}, {0, 1}, {1, 0}, {2, 0}, {0, 1<<32 - 1}} {
		f.Add(refBucket(at[0], at[1]), true)
		f.Add(refBucket(at[0], at[1]), false)
	}
	tile := codecTile(3, true, 0)
	blocks, _ := TileCodec{}.Append(nil, codecBucket(false, tile, codecTile(2, false, 4), tile))
	f.Add(blocks, false)
	f.Add(blocks, true)
	f.Fuzz(func(t *testing.T, enc []byte, msg bool) {
		var into rdd.Bucket = []Block(nil)
		if msg {
			into = []rdd.Pair[matrix.Coord, Msg](nil)
		}
		dec, err := TileCodec{}.Decode(enc, into)
		if err != nil {
			return
		}
		if n, _ := (TileCodec{}).EncodedLen(dec); n != len(enc) {
			t.Fatalf("decoded bucket sizes to %d bytes, was %d", n, len(enc))
		}
		if back, _ := (TileCodec{}).Append(nil, dec); !bytes.Equal(back, enc) {
			t.Fatalf("accepted a non-canonical encoding")
		}
	})
}
