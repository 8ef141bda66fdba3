package rdd

import (
	"bytes"
	"reflect"
	"sync/atomic"
	"testing"
)

// In-task staging tests: the map task encodes its buckets, the merge only
// Puts them. What must hold is the codec contract (EncodedLen is exact),
// the all-or-nothing staging decision per bucket, byte-identical block
// payloads, and that a task killed after it encoded leaves nothing behind.

func TestIntPairCodecEncodedLenExact(t *testing.T) {
	codec := intPairCodec{}
	for _, rec := range []Record{KV(0, 0), KV(-1, 1<<40)} {
		n, ok := codec.EncodedLen(rec)
		enc, aok := codec.Append(nil, rec)
		if !ok || !aok || n != len(enc) {
			t.Fatalf("%v: EncodedLen = %d, %v; Append wrote %d bytes, %v", rec, n, ok, len(enc), aok)
		}
	}
	for _, rec := range []Record{KV("a", 1), 7, nil} {
		if _, ok := codec.EncodedLen(rec); ok {
			t.Fatalf("EncodedLen accepted %#v", rec)
		}
		if _, ok := codec.Append(nil, rec); ok {
			t.Fatalf("Append accepted %#v", rec)
		}
	}
}

// hookCodec is intPairCodec with two test hooks: records whose key is
// decline are refused, and the first Append of the record whose key is
// kill panics right after encoding it — a map task dying with encoded
// buckets in hand.
type hookCodec struct {
	intPairCodec
	decline int
	kill    int
	killed  *atomic.Bool
}

func (c hookCodec) EncodedLen(rec Record) (int, bool) {
	if p, ok := rec.(Pair[int, int]); ok && p.Key == c.decline {
		return 0, false
	}
	return c.intPairCodec.EncodedLen(rec)
}

func (c hookCodec) Append(dst []byte, rec Record) ([]byte, bool) {
	p, ok := rec.(Pair[int, int])
	if ok && p.Key == c.decline {
		return dst, false
	}
	dst, ok = c.intPairCodec.Append(dst, rec)
	if ok && p.Key == c.kill && c.killed.CompareAndSwap(false, true) {
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
		var recs []Pair[int, int]
		var naive []byte
		for rest := all[key]; len(rest) > 0; {
			rec, r, err := intPairCodec{}.Decode(rest)
			if err != nil {
				t.Fatalf("decode %q: %v", key, err)
			}
			recs = append(recs, rec.(Pair[int, int]))
			naive, _ = intPairCodec{}.Append(naive, rec)
			rest = r
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
