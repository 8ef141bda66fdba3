package core

import (
	"encoding/binary"
	"fmt"

	"dpspark/internal/matrix"
	"dpspark/internal/rdd"
)

// TileCodec implements rdd.Codec for the buckets the DP drivers move:
// grid blocks ([]Pair[Coord, *Tile]) and the IM driver's tagged tile
// messages ([]Pair[Coord, Msg]). With it set as Conf.SpillCodec the
// engine can stage the drivers' shuffle buckets and broadcast payloads in
// the durable block store — the tile payload goes through the length-
// prefixed matrix codec, so ownership generation tags survive the round
// trip and decoded records replay bit-identically to in-memory ones.
//
// The IM driver sends one updated tile to each of its consumers, so a
// bucket often holds several records of one *Tile. The first carries the
// tile in full; every later one is a back-reference to that record's
// index in the bucket, and decoding gives them all the one decoded tile —
// the aliasing the in-place read and a run without a store already have.
//
// CombineByKey buckets (the IM driver's operand assembly) never reach
// the codec: combining shuffles stay memory-resident by design.
type TileCodec struct{}

// Record kind tags of the codec's framing.
const (
	recBlock = 0 // Pair[Coord, *Tile]: coordinate, tile
	recMsg   = 1 // Pair[Coord, Msg]: coordinate, role, tile
	// recRef is a record whose tile an earlier full record of the bucket
	// carries: coordinate, role (0 in a grid-block bucket) and the u32
	// index of that record.
	recRef = 2
)

// recHeaderLen is the record framing ahead of the tile: kind tag plus
// coordinate; a message record adds one role byte.
const recHeaderLen = 1 + 8

// refLen is the size of a back-reference record.
const refLen = recHeaderLen + 1 + 4

// blockFields and msgFields split a record of either bucket type into its
// coordinate, role and tile.
func blockFields(r Block) (matrix.Coord, Role, *matrix.Tile) { return r.Key, 0, r.Value }

func msgFields(r rdd.Pair[matrix.Coord, Msg]) (matrix.Coord, Role, *matrix.Tile) {
	return r.Key, r.Value.Role, r.Value.Tile
}

// EncodedLen implements rdd.Codec.
func (TileCodec) EncodedLen(bucket rdd.Bucket) (int, bool) {
	switch recs := bucket.(type) {
	case []Block:
		return bucketLen(recs, blockFields, recBlock)
	case []rdd.Pair[matrix.Coord, Msg]:
		return bucketLen(recs, msgFields, recMsg)
	}
	return 0, false
}

// Append implements rdd.Codec.
func (TileCodec) Append(dst []byte, bucket rdd.Bucket) ([]byte, bool) {
	switch recs := bucket.(type) {
	case []Block:
		return appendBucket(dst, recs, blockFields, recBlock)
	case []rdd.Pair[matrix.Coord, Msg]:
		return appendBucket(dst, recs, msgFields, recMsg)
	}
	return dst, false
}

// Decode implements rdd.Codec.
func (TileCodec) Decode(b []byte, into rdd.Bucket) (rdd.Bucket, error) {
	switch out := into.(type) {
	case []Block:
		return decodeBucket(b, out, recBlock, func(c matrix.Coord, _ Role, t *matrix.Tile) Block {
			return rdd.KV(c, t)
		})
	case []rdd.Pair[matrix.Coord, Msg]:
		return decodeBucket(b, out, recMsg, func(c matrix.Coord, role Role, t *matrix.Tile) rdd.Pair[matrix.Coord, Msg] {
			return rdd.KV(c, Msg{role, t})
		})
	}
	return nil, fmt.Errorf("core: tile codec: cannot decode into %T", into)
}

// carriers maps each tile of a bucket being encoded to the index of the
// first record carrying it: one lookup per record keeps a bucket of
// thousands of records linear. Nil for a one-record bucket.
type carriers map[*matrix.Tile]uint32

func newCarriers(records int) carriers {
	if records < 2 {
		return nil
	}
	return make(carriers, records)
}

// first returns the index of the earlier record carrying t, or records
// record i as t's carrier and returns ok=false.
func (c carriers) first(t *matrix.Tile, i int) (int, bool) {
	if c == nil {
		return 0, false
	}
	if at, ok := c[t]; ok {
		return int(at), true
	}
	c[t] = uint32(i)
	return 0, false
}

// bucketLen sizes a bucket whose full records are of kind; a nil tile
// declines the bucket.
func bucketLen[R any](recs []R, fields func(R) (matrix.Coord, Role, *matrix.Tile), kind byte) (int, bool) {
	header := recHeaderLen
	if kind == recMsg {
		header++
	}
	seen := newCarriers(len(recs))
	n := 0
	for i, r := range recs {
		_, _, t := fields(r)
		if t == nil {
			return 0, false
		}
		if _, dup := seen.first(t, i); dup {
			n += refLen
		} else {
			n += header + t.EncodedTileLen()
		}
	}
	return n, true
}

// appendBucket encodes recs, writing each tile in full under kind the
// first time the bucket carries it and as a back-reference after that.
func appendBucket[R any](dst []byte, recs []R, fields func(R) (matrix.Coord, Role, *matrix.Tile), kind byte) ([]byte, bool) {
	for _, r := range recs {
		if _, _, t := fields(r); t == nil {
			return dst, false
		}
	}
	seen := newCarriers(len(recs))
	for i, r := range recs {
		c, role, t := fields(r)
		if at, dup := seen.first(t, i); dup {
			dst = append(dst, recRef)
			dst = appendCoord(dst, c)
			dst = append(dst, byte(role))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(at))
			continue
		}
		dst = append(dst, kind)
		dst = appendCoord(dst, c)
		if kind == recMsg {
			dst = append(dst, byte(role))
		}
		dst = matrix.AppendTile(dst, t)
	}
	return dst, true
}

// decodeBucket decodes every record of b onto out: full records of kind
// (a message record carries its role) and back-references, which must
// name an earlier full record of the same bucket and take its tile (a
// grid block's carries role 0). mk builds a record from its fields.
func decodeBucket[R any](b []byte, out []R, kind byte, mk func(matrix.Coord, Role, *matrix.Tile) R) ([]R, error) {
	// tiles[i] is record i's tile when it carries one in full, nil for a
	// back-reference.
	var tiles []*matrix.Tile
	for i := 0; len(b) > 0; i++ {
		if len(b) < recHeaderLen {
			return nil, fmt.Errorf("core: tile codec: record %d: truncated header", i)
		}
		k := b[0]
		c, rest := decodeCoord(b[1:])
		var role Role
		if k == recMsg || k == recRef {
			if len(rest) < 1 {
				return nil, fmt.Errorf("core: tile codec: record %d: truncated role", i)
			}
			role, rest = Role(rest[0]), rest[1:]
		}
		if kind == recBlock && role != 0 {
			return nil, fmt.Errorf("core: tile codec: record %d: grid block with role %d", i, role)
		}
		var t *matrix.Tile
		switch {
		case k == kind:
			var err error
			if t, rest, err = matrix.DecodeTile(rest); err != nil {
				return nil, fmt.Errorf("core: tile codec: record %d: %w", i, err)
			}
			tiles = append(tiles, t)
		case k == recRef:
			if len(rest) < 4 {
				return nil, fmt.Errorf("core: tile codec: record %d: truncated reference", i)
			}
			at := binary.LittleEndian.Uint32(rest)
			rest = rest[4:]
			if int64(at) >= int64(i) || tiles[at] == nil {
				return nil, fmt.Errorf("core: tile codec: record %d references record %d, not an earlier full record", i, at)
			}
			t = tiles[at]
			tiles = append(tiles, nil)
		default:
			return nil, fmt.Errorf("core: tile codec: record %d: kind %d in a bucket of kind %d", i, k, kind)
		}
		out = append(out, mk(c, role, t))
		b = rest
	}
	return out, nil
}

// appendCoord encodes a grid coordinate (two little-endian u32s — grid
// dimensions are bounded well below 2³²).
func appendCoord(dst []byte, c matrix.Coord) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(c.I))
	return binary.LittleEndian.AppendUint32(dst, uint32(c.J))
}

// decodeCoord decodes appendCoord's encoding; the caller has checked the
// length.
func decodeCoord(b []byte) (matrix.Coord, []byte) {
	i := binary.LittleEndian.Uint32(b)
	j := binary.LittleEndian.Uint32(b[4:])
	return matrix.Coord{I: int(i), J: int(j)}, b[8:]
}
