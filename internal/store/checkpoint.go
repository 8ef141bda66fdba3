package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// Driver checkpoints: each file snapshots the run at one CheckpointEvery
// boundary — a meta section (JSON: iteration cursor, problem shape,
// engine/fault-plan state) and a blocks section (every tile of the grid
// through the matrix codec). Files are written to a temp name and
// renamed into place, so a checkpoint either exists completely or not at
// all; both sections carry their own CRC32C so a file damaged after the
// rename is skipped by LatestCheckpoint rather than resumed from.
//
// Layout (little-endian):
//
//	u32 magic "DPCK"
//	u32 metaLen   | meta bytes   | u32 crc32c(meta)
//	u64 blocksLen | blocks bytes | u32 crc32c(blocks)

// ckptMagic marks a checkpoint file ("DPCK").
const ckptMagic = 0x4450434b

// ckptPrefix names checkpoint files ckpt-%06d.ck so ListCheckpoints can
// find them and sort numerically.
const (
	ckptPrefix = "ckpt-"
	ckptSuffix = ".ck"
)

// ckptFile returns the checkpoint path for id under dir.
func ckptFile(dir string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%06d%s", ckptPrefix, id, ckptSuffix))
}

// WriteCheckpoint atomically persists checkpoint id (an iteration
// boundary) under dir. An existing checkpoint with the same id is
// replaced atomically.
func WriteCheckpoint(dir string, id int, meta, blocks []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: checkpoint dir %s: %w", dir, err)
	}
	// Header + meta section + blocks length, the blocks themselves, and the
	// blocks CRC go out as three writes: the (large) blocks section is the
	// caller's buffer, never copied into a second one.
	head := make([]byte, 0, 4+4+len(meta)+4+8)
	head = binary.LittleEndian.AppendUint32(head, ckptMagic)
	head = binary.LittleEndian.AppendUint32(head, uint32(len(meta)))
	head = append(head, meta...)
	head = binary.LittleEndian.AppendUint32(head, crc32.Checksum(meta, crcTable))
	head = binary.LittleEndian.AppendUint64(head, uint64(len(blocks)))
	tail := binary.LittleEndian.AppendUint32(nil, crc32.Checksum(blocks, crcTable))

	final := ckptFile(dir, id)
	tmp, err := os.CreateTemp(dir, ".tmp-ckpt-*")
	if err != nil {
		return fmt.Errorf("store: checkpoint temp: %w", err)
	}
	for _, part := range [][]byte{head, blocks, tail} {
		if _, err := tmp.Write(part); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("store: checkpoint write: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: checkpoint rename: %w", err)
	}
	return nil
}

// ReadCheckpoint loads and verifies checkpoint id from dir. Damaged
// files return *CorruptError.
func ReadCheckpoint(dir string, id int) (meta, blocks []byte, err error) {
	key := fmt.Sprintf("checkpoint %d", id)
	raw, err := os.ReadFile(ckptFile(dir, id))
	if err != nil {
		return nil, nil, fmt.Errorf("store: %s: %w", key, err)
	}
	if len(raw) < 8 || binary.LittleEndian.Uint32(raw) != ckptMagic {
		return nil, nil, &CorruptError{Key: key}
	}
	metaLen := int64(binary.LittleEndian.Uint32(raw[4:]))
	rest := raw[8:]
	if int64(len(rest)) < metaLen+4 {
		return nil, nil, &CorruptError{Key: key, Torn: true}
	}
	meta = rest[:metaLen]
	if crc32.Checksum(meta, crcTable) != binary.LittleEndian.Uint32(rest[metaLen:]) {
		return nil, nil, &CorruptError{Key: key}
	}
	rest = rest[metaLen+4:]
	if len(rest) < 8 {
		return nil, nil, &CorruptError{Key: key, Torn: true}
	}
	blocksLen := int64(binary.LittleEndian.Uint64(rest))
	rest = rest[8:]
	if int64(len(rest)) != blocksLen+4 {
		return nil, nil, &CorruptError{Key: key, Torn: true}
	}
	blocks = rest[:blocksLen]
	if crc32.Checksum(blocks, crcTable) != binary.LittleEndian.Uint32(rest[blocksLen:]) {
		return nil, nil, &CorruptError{Key: key}
	}
	return meta, blocks, nil
}

// ListCheckpoints returns the checkpoint ids present under dir in
// ascending order (existence only — they are not verified here).
func ListCheckpoints(dir string) []int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var ids []int
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || len(name) <= len(ckptPrefix)+len(ckptSuffix) {
			continue
		}
		var id int
		if _, err := fmt.Sscanf(name, ckptPrefix+"%d"+ckptSuffix, &id); err == nil {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// GCCheckpoints enforces keep-last-K retention on dir's checkpoint
// files: the newest `keep` checkpoints that pass full verification are
// retained, and only files strictly older than the oldest retained one
// are deleted — an older file is never removed before a newer one has
// verified, so a crash at any point during GC leaves a resumable set.
// Damaged files newer than the oldest retained checkpoint also survive
// (for post-mortem; LatestCheckpoint skips them anyway). keep <= 0
// keeps everything. Returns the ids deleted.
func GCCheckpoints(dir string, keep int) []int {
	if keep <= 0 {
		return nil
	}
	ids := ListCheckpoints(dir)
	intact, oldestKept := 0, -1
	for i := len(ids) - 1; i >= 0 && intact < keep; i-- {
		if _, _, err := ReadCheckpoint(dir, ids[i]); err == nil {
			intact++
			oldestKept = ids[i]
		}
	}
	if intact < keep || oldestKept < 0 {
		return nil // fewer intact checkpoints than the retention asks for
	}
	var deleted []int
	for _, id := range ids {
		if id >= oldestKept {
			break
		}
		if os.Remove(ckptFile(dir, id)) == nil {
			deleted = append(deleted, id)
		}
	}
	return deleted
}

// LatestCheckpoint returns the newest checkpoint under dir that passes
// verification, skipping torn or corrupt files (a crash mid-write leaves
// only a temp file, but damage after rename is survivable too). ok is
// false when no usable checkpoint exists.
func LatestCheckpoint(dir string) (id int, meta, blocks []byte, ok bool) {
	ids := ListCheckpoints(dir)
	for i := len(ids) - 1; i >= 0; i-- {
		m, b, err := ReadCheckpoint(dir, ids[i])
		if err == nil {
			return ids[i], m, b, true
		}
	}
	return 0, nil, nil, false
}
