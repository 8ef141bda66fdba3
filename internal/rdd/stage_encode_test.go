package rdd

import (
	"bytes"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
)

// In-task staging tests: the map task encodes its buckets, the merge only
// Puts them. What must hold is the codec contract (EncodedLen is exact),
// the all-or-nothing staging decision per bucket, byte-identical block
// payloads, and that a task killed after it encoded leaves nothing behind.

func TestIntPairCodecEncodedLenExact(t *testing.T) {
	codec := intPairCodec{}
	for _, bucket := range []Bucket{[]Pair[int, int]{KV(0, 0)}, []Pair[int, int]{KV(0, 0), KV(-1, 1<<40)}} {
		n, ok := codec.EncodedLen(bucket)
		enc, aok := codec.Append(nil, bucket)
		if !ok || !aok || n != len(enc) {
			t.Fatalf("%v: EncodedLen = %d, %v; Append wrote %d bytes, %v", bucket, n, ok, len(enc), aok)
		}
	}
	for _, bucket := range []Bucket{[]Pair[string, int]{KV("a", 1)}, []int{7}, nil} {
		if _, ok := codec.EncodedLen(bucket); ok {
			t.Fatalf("EncodedLen accepted %#v", bucket)
		}
		if _, ok := codec.Append(nil, bucket); ok {
			t.Fatalf("Append accepted %#v", bucket)
		}
	}
}

// hookCodec is intPairCodec with two test hooks: a bucket holding a
// record whose key is decline is refused, and the first Append of a
// bucket holding the record whose key is kill panics right after encoding
// it — a map task dying with encoded buckets in hand.
type hookCodec struct {
	intPairCodec
	decline int
	kill    int
	killed  *atomic.Bool
}

// holds reports whether bucket has a record with the given key.
func (hookCodec) holds(bucket Bucket, key int) bool {
	recs, _ := bucket.([]Pair[int, int])
	return slices.ContainsFunc(recs, func(p Pair[int, int]) bool { return p.Key == key })
}

func (c hookCodec) EncodedLen(bucket Bucket) (int, bool) {
	if c.holds(bucket, c.decline) {
		return 0, false
	}
	return c.intPairCodec.EncodedLen(bucket)
}

func (c hookCodec) Append(dst []byte, bucket Bucket) ([]byte, bool) {
	if c.holds(bucket, c.decline) {
		return dst, false
	}
	dst, ok := c.intPairCodec.Append(dst, bucket)
	if ok && c.holds(bucket, c.kill) && c.killed.CompareAndSwap(false, true) {
		panic("hookCodec: task killed after encoding")
	}
	return dst, ok
}

// stagedBlocks returns shuffle 0's staged blocks by key.
func stagedBlocks(t *testing.T, ctx *Context) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, key := range ctx.Store().Keys(shufflePrefix(0)) {
		blob, err := ctx.Store().Get(key)
		if err != nil {
			t.Fatalf("Get(%q): %v", key, err)
		}
		out[key] = blob
	}
	return out
}

// TestStagingAllOrNothingPerBucket: a codec that declines the LAST record
// of one bucket leaves that whole bucket memory-resident — decided before
// a byte is written — while every other bucket is staged with exactly the
// bytes a plain Append loop produces.
func TestStagingAllOrNothingPerBucket(t *testing.T) {
	base := newContext(t, durableConf(t, 0))
	want := collectPairs(t, shuffledDoubles(base, 4))
	all := stagedBlocks(t, base)

	// Pick a bucket with several records and decline its last one.
	victim, decline := "", 0
	for _, key := range base.Store().Keys(shufflePrefix(0)) {
		dec, err := intPairCodec{}.Decode(all[key], []Pair[int, int](nil))
		if err != nil {
			t.Fatalf("decode %q: %v", key, err)
		}
		recs := dec.([]Pair[int, int])
		var naive []byte
		for _, rec := range recs {
			naive, _ = intPairCodec{}.Append(naive, []Pair[int, int]{rec})
		}
		if !bytes.Equal(naive, all[key]) {
			t.Fatalf("block %q is not the plain concatenation of its records", key)
		}
		if victim == "" && len(recs) > 1 {
			victim, decline = key, recs[len(recs)-1].Key
		}
	}
	if victim == "" {
		t.Fatal("no bucket with more than one record")
	}

	conf := durableConf(t, 0)
	conf.SpillCodec = hookCodec{decline: decline, kill: -1, killed: new(atomic.Bool)}
	ctx := newContext(t, conf)
	if got := collectPairs(t, shuffledDoubles(ctx, 4)); !reflect.DeepEqual(got, want) {
		t.Fatalf("declined record changed results: %v vs %v", got, want)
	}
	got := stagedBlocks(t, ctx)
	if _, staged := got[victim]; staged {
		t.Fatalf("bucket %q was staged although its last record was declined", victim)
	}
	delete(all, victim)
	if !reflect.DeepEqual(got, all) {
		t.Fatalf("the other buckets must be staged unchanged: got %d blocks, want %d", len(got), len(all))
	}
}

// TestKilledMapTaskLeavesNoBlobs: a map task that dies after encoding is
// retried from scratch; the attempt's encodings are dropped with it, so
// the store ends up with exactly the clean run's blocks, bytes included.
func TestKilledMapTaskLeavesNoBlobs(t *testing.T) {
	base := newContext(t, durableConf(t, 0))
	want := collectPairs(t, shuffledDoubles(base, 4))

	conf := durableConf(t, 0)
	killed := new(atomic.Bool)
	conf.SpillCodec = hookCodec{decline: -1, kill: 13, killed: killed}
	ctx := newContext(t, conf)
	if got := collectPairs(t, shuffledDoubles(ctx, 4)); !reflect.DeepEqual(got, want) {
		t.Fatalf("killed map task changed results: %v vs %v", got, want)
	}
	if !killed.Load() {
		t.Fatal("the kill never fired")
	}
	if rs := ctx.RecoveryStats(); rs.TaskRetries != 1 {
		t.Fatalf("TaskRetries = %d, want 1: %+v", rs.TaskRetries, rs)
	}
	if got, clean := stagedBlocks(t, ctx), stagedBlocks(t, base); !reflect.DeepEqual(got, clean) {
		t.Fatalf("retry leaked or lost staged blocks: got %d, want %d", len(got), len(clean))
	}
	if got, clean := ctx.StoreStats(), base.StoreStats(); got.MemBlocks != clean.MemBlocks || got.MemBytes != clean.MemBytes {
		t.Fatalf("store holds %d blocks / %d bytes, clean run %d / %d", got.MemBlocks, got.MemBytes, clean.MemBlocks, clean.MemBytes)
	}
	if got, clean := ctx.Breakdown().ShuffleWriteBytes, base.Breakdown().ShuffleWriteBytes; got != clean {
		t.Fatalf("ShuffleWriteBytes = %d, clean run %d", got, clean)
	}
}
