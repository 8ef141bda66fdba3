package rdd

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"slices"

	"dpspark/internal/store"
)

// Durable staging: when Conf.DurableDir is set the context owns a block
// store (internal/store) and routes the engine's storage consumers
// through it — non-combining shuffle buckets are encoded and staged as
// checksummed blocks (evicted to disk under Conf.MemoryBudget pressure),
// and broadcast payloads keep a verified durable copy. A block that
// fails verification on read is a lost block: the fetch raises
// FetchFailedError and the PR 3 recovery machinery recomputes exactly
// the indicted map partition, whose fresh Put overwrites the damaged
// file.
//
// Determinism: whether a bucket is *staged* depends only on the data
// (every record codec-encodable), never on memory pressure — the budget
// only moves blocks between the store's tiers, which changes no virtual
// charge and no record content. A staged bucket keeps its records: a read
// takes them in place while the store holds the block's bytes in memory
// (the memory tier, or pinned for the spill writer) and decodes the block
// only once it lives on disk, where the store verifies its checksum and
// where seeded corruption lands (Store.Corrupt drops the memory copy).
// Which way a read goes depends on the spill writer's timing, so the two
// must agree: decoded records are fresh copies (records of one bucket
// whose shared payload the codec wrote once share its one decoded copy),
// but the codec preserves the tiles' ownership generation tags, so the
// clone-elision replay semantics (and therefore the bits) are identical
// to the pointer-sharing in-place read.
//
// Staging is split in two: the map task that produced a bucket encodes
// it (bucketPairs — in parallel across the stage's task workers, off the
// driver goroutine and outside the shuffle's lock), and the map stage's
// merge, which runs serially in map-partition order, does the store.Put.
// Everything order-sensitive — LRU order and so the eviction counts,
// commit fencing, replacing a recomputed partition's blocks — therefore
// still happens in one deterministic sequence; the encode has no
// observable order.

// Codec serializes whole buckets for the durable block store: the unit the
// store holds, checksums and writes. A bucket is one []T of records
// behind a single interface value (Bucket); the engine is type-agnostic,
// so the consumer supplies the codec (core's TileCodec covers the DP
// drivers' pair-of-tile records). Seeing the whole bucket lets a codec
// write a payload that several records share once.
//
// EncodedLen and Append must agree: for every bucket EncodedLen accepts,
// Append accepts it too and appends exactly that many bytes. The engine
// sizes a bucket with EncodedLen first, allocates once and panics if
// Append's output disagrees — a codec bug, not a data condition. All
// three may be called from many task goroutines at once.
type Codec interface {
	// EncodedLen returns the exact number of bytes Append writes for
	// bucket; ok=false means the codec does not handle one of its records
	// (or its record type), which leaves the whole bucket (or broadcast)
	// memory-resident.
	EncodedLen(bucket Bucket) (n int, ok bool)
	// Append encodes bucket onto dst and reports whether the codec
	// handles it.
	Append(dst []byte, bucket Bucket) ([]byte, bool)
	// Decode decodes every byte of b, one encoded bucket, appending its
	// records to into — a []T of the encoded bucket's record type — and
	// returns the extended slice. Corrupted input must error, never panic.
	Decode(b []byte, into Bucket) (Bucket, error)
}

// Store exposes the context's durable block store (nil when
// Conf.DurableDir is unset).
func (c *Context) Store() *store.Store { return c.store }

// Close retires every shuffle the context still stages, handing their
// arrays and bucket slabs to the next context, then drains and stops the
// durable store's spill writer (store.Close), so a caller may remove
// DurableDir afterwards. Idempotent. Call it once no stage is running and
// no RDD of the context will be computed again.
func (c *Context) Close() {
	c.retireShuffles(0)
	if c.store != nil {
		c.store.Close()
	}
}

// StoreStats returns the block store's tier sizes and spill/eviction/
// corruption counters; the zero value when no store is configured.
func (c *Context) StoreStats() store.Stats {
	if c.store == nil {
		return store.Stats{}
	}
	return c.store.Stats()
}

// shuffleBlockKey names the staged block of one (map partition, reduce
// partition) bucket.
func shuffleBlockKey(shuffleID, mapPart, reduce int) string {
	return fmt.Sprintf("shuffle/%d/m%d/r%d", shuffleID, mapPart, reduce)
}

// shufflePrefix is the key prefix of every block of one shuffle.
func shufflePrefix(shuffleID int) string {
	return fmt.Sprintf("shuffle/%d/", shuffleID)
}

// encodeExact serializes bucket into one exactly sized buffer. EncodedLen
// sizes it and makes the all-or-nothing decision — ok=false if the codec
// declines any record — before a byte is written.
func encodeExact(codec Codec, bucket Bucket) ([]byte, bool) {
	size, ok := codec.EncodedLen(bucket)
	if !ok {
		return nil, false
	}
	dst, ok := codec.Append(make([]byte, 0, size), bucket)
	if !ok {
		panic(fmt.Sprintf("rdd: codec %T sized a bucket but declined to encode it", codec))
	}
	if len(dst) != size {
		panic(fmt.Sprintf("rdd: codec %T wrote %d bytes, EncodedLen promised %d", codec, len(dst), size))
	}
	return dst, true
}

// onDisk reports whether a read of ref must decode it: a staged bucket
// whose bytes the store no longer holds in memory. Resident refreshes a
// memory-tier block's LRU slot exactly as the Get it replaces would.
func (c *Context) onDisk(ref bucketRef) bool {
	return ref.stored && !c.store.Resident(ref.key)
}

// readStoredBucket appends one staged bucket's records, decoded from the
// block store and verified on the way, to out. Any verification or decode
// failure means the block is lost: the read panics with a
// FetchFailedError indicting the bucket's map partition, and the recovery
// path recomputes it (the recompute's Put overwrites the damaged block).
// Called with st.mu read-held, like the in-place path.
func readStoredBucket[K comparable, V any](c *Context, st *shuffleState, ref bucketRef, out []Pair[K, V]) []Pair[K, V] {
	blob, err := c.store.Get(ref.key)
	if err != nil {
		panic(st.fetchFailed(ref, true))
	}
	dec, err := c.conf.SpillCodec.Decode(blob, out)
	recs, ok := dec.([]Pair[K, V])
	if err != nil || !ok || len(recs)-len(out) != ref.n {
		panic(st.fetchFailed(ref, true))
	}
	return recs
}

// EngineState is the restartable slice of a context's scheduler state: a
// driver checkpoint persists it alongside the data so a resumed run
// continues the global stage/shuffle numbering (fault plans key on stage
// IDs) and does not re-fire plan events that already fired before the
// checkpoint. Blacklist expiry timers are deliberately NOT carried — a
// restarted driver forgets them, as Spark's would — but crash strikes
// are, so repeated crashes keep doubling the backoff.
type EngineState struct {
	NextStage   int `json:"next_stage"`
	NextShuffle int `json:"next_shuffle"`
	// Fired[i] is set once FaultPlan.Events[i] has fired.
	Fired   []bool `json:"fired,omitempty"`
	Strikes []int  `json:"strikes,omitempty"`
}

// UnmarshalJSON refuses keys EngineState does not have: dropping an older
// format's per-kind fired arrays would re-fire events that already fired.
func (es *EngineState) UnmarshalJSON(b []byte) error {
	type plain EngineState
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode((*plain)(es))
}

// EngineState snapshots the context's restartable scheduler state for a
// driver checkpoint.
func (c *Context) EngineState() EngineState {
	c.mu.Lock()
	es := EngineState{NextStage: c.nextStage, NextShuffle: c.nextShuffle}
	c.mu.Unlock()
	if fs := c.faults; fs != nil {
		fs.mu.Lock()
		es.Fired = slices.Clone(fs.fired)
		es.Strikes = slices.Clone(fs.strikes)
		fs.mu.Unlock()
	}
	return es
}

// restoreEngineState applies a checkpointed EngineState to a fresh
// context (validated by Conf.normalize).
func (c *Context) restoreEngineState(es *EngineState) {
	c.mu.Lock()
	c.nextStage = es.NextStage
	c.nextShuffle = es.NextShuffle
	c.mu.Unlock()
	if fs := c.faults; fs != nil {
		fs.mu.Lock()
		copy(fs.fired, es.Fired)
		copy(fs.strikes, es.Strikes)
		fs.mu.Unlock()
	}
}

// validateRestore checks a Restore snapshot against the Conf's plan and
// cluster (part of Conf.normalize).
func validateRestore(es *EngineState, plan *FaultPlan, nodes int) error {
	if es.NextStage < 0 || es.NextShuffle < 0 {
		return fmt.Errorf("rdd: Conf.Restore has negative stage/shuffle cursor (%d, %d)", es.NextStage, es.NextShuffle)
	}
	check := func(name string, got, want int) error {
		if got != 0 && got != want {
			return fmt.Errorf("rdd: Conf.Restore.%s has %d entries, FaultPlan has %d — restore with the run's original plan", name, got, want)
		}
		return nil
	}
	events := 0
	if plan != nil {
		events = len(plan.Events)
	}
	return cmp.Or(check("Fired", len(es.Fired), events), check("Strikes", len(es.Strikes), nodes))
}
