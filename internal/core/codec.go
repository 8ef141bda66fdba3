package core

import (
	"encoding/binary"
	"fmt"

	"dpspark/internal/matrix"
	"dpspark/internal/rdd"
)

// TileCodec implements rdd.Codec for the records the DP drivers move:
// grid blocks (Pair[Coord, *Tile]) and the IM driver's tagged tile
// messages (Pair[Coord, Msg]). With it set as Conf.SpillCodec the engine
// can stage the drivers' shuffle buckets and broadcast payloads in the
// durable block store — the tile payload goes through the length-
// prefixed matrix codec, so ownership generation tags survive the round
// trip and decoded records replay bit-identically to in-memory ones.
//
// CombineByKey buckets (the IM driver's operand assembly) never reach
// the codec: combining shuffles stay memory-resident by design.
type TileCodec struct{}

// Record kind tags of the codec's framing.
const (
	recBlock = 0 // Pair[Coord, *Tile]
	recMsg   = 1 // Pair[Coord, Msg]
)

// recHeaderLen is the record framing ahead of the tile: kind tag plus
// coordinate; a message record adds one role byte.
const recHeaderLen = 1 + 8

// EncodedLen implements rdd.Codec.
func (TileCodec) EncodedLen(rec rdd.Record) (int, bool) {
	switch r := rec.(type) {
	case Block:
		if r.Value == nil {
			return 0, false
		}
		return recHeaderLen + r.Value.EncodedTileLen(), true
	case rdd.Pair[matrix.Coord, Msg]:
		if r.Value.Tile == nil {
			return 0, false
		}
		return recHeaderLen + 1 + r.Value.Tile.EncodedTileLen(), true
	}
	return 0, false
}

// Append implements rdd.Codec.
func (TileCodec) Append(dst []byte, rec rdd.Record) ([]byte, bool) {
	switch r := rec.(type) {
	case Block:
		if r.Value == nil {
			return dst, false
		}
		dst = append(dst, recBlock)
		dst = appendCoord(dst, r.Key)
		return matrix.AppendTile(dst, r.Value), true
	case rdd.Pair[matrix.Coord, Msg]:
		if r.Value.Tile == nil {
			return dst, false
		}
		dst = append(dst, recMsg)
		dst = appendCoord(dst, r.Key)
		dst = append(dst, byte(r.Value.Role))
		return matrix.AppendTile(dst, r.Value.Tile), true
	}
	return dst, false
}

// Decode implements rdd.Codec.
func (TileCodec) Decode(b []byte) (rdd.Record, []byte, error) {
	if len(b) < recHeaderLen {
		return nil, nil, fmt.Errorf("core: tile codec: truncated record header")
	}
	kind := b[0]
	c, rest := decodeCoord(b[1:])
	switch kind {
	case recBlock:
		t, rest, err := matrix.DecodeTile(rest)
		if err != nil {
			return nil, nil, err
		}
		return rdd.KV(c, t), rest, nil
	case recMsg:
		if len(rest) < 1 {
			return nil, nil, fmt.Errorf("core: tile codec: truncated message role")
		}
		role := Role(rest[0])
		t, rest, err := matrix.DecodeTile(rest[1:])
		if err != nil {
			return nil, nil, err
		}
		return rdd.KV(c, Msg{role, t}), rest, nil
	default:
		return nil, nil, fmt.Errorf("core: tile codec: unknown record kind %d", kind)
	}
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
