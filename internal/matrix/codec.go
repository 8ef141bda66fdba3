package matrix

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Tile codec: the length-prefixed on-disk representation of one tile,
// used by the durable block store (internal/store) for shuffle spill,
// broadcast staging and driver checkpoints. The encoding is exact — every
// float64 travels as its IEEE-754 bit pattern, so decode(encode(t)) is
// bit-identical including NaN payloads, infinities and signed zeros — and
// it preserves the engine-ownership generation tag, because a spilled
// tile read back mid-run must keep its replay semantics (a decoded tile
// that dropped its tag would be re-applied by a lineage replay and
// corrupt the result).
//
// Layout (all integers little-endian):
//
//	u32 length   — bytes that follow (the length prefix itself excluded)
//	u32 magic    — blockTileMagic, guards against foreign/shifted bytes
//	u32 b        — tile dimension
//	u32 gen      — ownership generation tag
//	u8  kind     — 0 symbolic (no payload), 1 real (b·b float64 bits)
//	... payload
//
// Decoding is defensive end to end: any truncated, oversized or
// inconsistent input returns an error — never a panic, never a short
// tile. Integrity against bit flips is the store's job (CRC32C per
// block); the codec's magic and length checks catch framing bugs.

// blockTileMagic marks the start of a length-prefixed encoded tile
// ("DPT2"; "DPT1" is io.go's header-plus-raw-floats stream format).
const blockTileMagic = 0x44505432

// tileHeaderLen is the encoded size of a tile minus its payload: the
// length prefix plus magic, dimension, gen and kind.
const tileHeaderLen = 4 + 4 + 4 + 4 + 1

const (
	tileKindSymbolic = 0
	tileKindReal     = 1
)

// maxTileDim bounds the accepted tile dimension on decode, rejecting
// absurd length claims from corrupted input before any allocation.
const maxTileDim = 1 << 16

// EncodedTileLen returns the exact encoded size of the tile.
func (t *Tile) EncodedTileLen() int {
	if t.Symbolic() {
		return tileHeaderLen
	}
	return tileHeaderLen + 8*t.B*t.B
}

// AppendTile appends the tile's encoding to dst and returns the extended
// slice (append-style, so callers batch many tiles into one block).
func AppendTile(dst []byte, t *Tile) []byte {
	body := t.EncodedTileLen() - 4
	dst = binary.LittleEndian.AppendUint32(dst, uint32(body))
	dst = binary.LittleEndian.AppendUint32(dst, blockTileMagic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(t.B))
	dst = binary.LittleEndian.AppendUint32(dst, t.gen)
	if t.Symbolic() {
		return append(dst, tileKindSymbolic)
	}
	dst = append(dst, tileKindReal)
	for _, v := range t.Data {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// EncodeTile returns the tile's encoding as a fresh slice.
func EncodeTile(t *Tile) []byte {
	return AppendTile(make([]byte, 0, t.EncodedTileLen()), t)
}

// DecodeTile decodes one tile from the front of b, returning the tile and
// the remaining bytes. Corrupted or truncated input errors; it never
// panics and never returns a tile shorter than its header claims.
func DecodeTile(b []byte) (*Tile, []byte, error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("matrix: tile truncated: %d bytes, want ≥4", len(b))
	}
	body := int(binary.LittleEndian.Uint32(b))
	rest := b[4:]
	if body < tileHeaderLen-4 {
		return nil, nil, fmt.Errorf("matrix: tile length %d shorter than header", body)
	}
	if body > len(rest) {
		return nil, nil, fmt.Errorf("matrix: tile truncated: length prefix %d, %d bytes left", body, len(rest))
	}
	if m := binary.LittleEndian.Uint32(rest); m != blockTileMagic {
		return nil, nil, fmt.Errorf("matrix: bad tile magic %#x", m)
	}
	dim := int(binary.LittleEndian.Uint32(rest[4:]))
	gen := binary.LittleEndian.Uint32(rest[8:])
	kind := rest[12]
	payload := rest[tileHeaderLen-4 : body]
	switch kind {
	case tileKindSymbolic:
		if len(payload) != 0 {
			return nil, nil, fmt.Errorf("matrix: symbolic tile carries %d payload bytes", len(payload))
		}
		if dim <= 0 || dim > maxTileDim {
			return nil, nil, fmt.Errorf("matrix: tile dimension %d out of range", dim)
		}
		t := NewSymbolicTile(dim)
		t.gen = gen
		return t, rest[body:], nil
	case tileKindReal:
		if dim <= 0 || dim > maxTileDim {
			return nil, nil, fmt.Errorf("matrix: tile dimension %d out of range", dim)
		}
		if want := 8 * dim * dim; len(payload) != want {
			return nil, nil, fmt.Errorf("matrix: tile payload %d bytes, want %d for b=%d", len(payload), want, dim)
		}
		t := NewTile(dim)
		// One reslice to the exact length, then walking data and payload
		// in step, leaves the loop body free of bounds checks.
		data := t.Data
		p := payload[:8*len(data)]
		for i := 0; i < len(data) && len(p) >= 8; i++ {
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(p))
			p = p[8:]
		}
		t.gen = gen
		return t, rest[body:], nil
	default:
		return nil, nil, fmt.Errorf("matrix: unknown tile kind %d", kind)
	}
}
