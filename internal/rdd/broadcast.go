package rdd

import (
	"fmt"
	"sync"

	"dpspark/internal/obs"
	"dpspark/internal/simtime"
)

// Broadcast distributes driver-held items to the executors through the
// shared persistent filesystem — the mechanism of the Collect-Broadcast
// driver (Listing 2): the driver collects blocks and writes them "tofile";
// each executor then reads the file once per stage it needs it in.
//
// Creating a Broadcast charges the driver-side shared-storage write.
// Get charges the shared-storage read the first time each (executor,
// stage) touches the handle, matching per-executor broadcast fetches.
type Broadcast[T any] struct {
	ctx   *Context
	items []T
	bytes int64
	// key names the broadcast's durable block when staged is true: the
	// payload's encoded, checksummed copy in the context's block store.
	// The driver-held items stay the source of truth — the durable copy
	// is verified on each first-per-(node,stage) fetch and re-written
	// from items when damaged (the driver self-heals its own file, like
	// Spark's driver re-serving a lost broadcast block).
	key    string
	staged bool

	mu      sync.Mutex
	fetched map[[2]int]bool // (node, stage) → already read
}

// NewBroadcast stages items on the shared filesystem.
func NewBroadcast[T any](ctx *Context, items []T) *Broadcast[T] {
	bytes := sizeAll(items)
	start := ctx.Clock()
	ctx.AdvanceDriver(ctx.model.SharedWriteTime(bytes), simtime.SharedFS)
	ctx.addBroadcastBytes(bytes)
	ctx.Observer().Metrics().
		Counter("dpspark_broadcast_bytes_total", obs.Labels{"phase": ctx.CurrentPhase()}).
		Add(bytes)
	ctx.EmitDriverSpan("broadcast write", "broadcast", start,
		map[string]string{"bytes": fmt.Sprintf("%d", bytes)})
	b := &Broadcast[T]{
		ctx:     ctx,
		items:   items,
		bytes:   bytes,
		fetched: make(map[[2]int]bool),
	}
	if ctx.store != nil && ctx.conf.SpillCodec != nil {
		if blob, ok := encodeExact(ctx.conf.SpillCodec, items); ok {
			ctx.mu.Lock()
			id := ctx.nextBroadcast
			ctx.nextBroadcast++
			ctx.mu.Unlock()
			b.key = fmt.Sprintf("bc/%d", id)
			if err := ctx.store.Put(b.key, blob); err == nil {
				b.staged = true
			}
		}
	}
	return b
}

// Get returns the broadcast items inside a task, charging the executor's
// shared-filesystem fetch on first access per (node, stage). When the
// payload is durably staged, the first fetch also verifies the block's
// checksum and re-writes it from the driver-held items on damage.
func (b *Broadcast[T]) Get(tc *TaskContext) []T {
	key := [2]int{tc.Node, tc.StageID}
	b.mu.Lock()
	first := !b.fetched[key]
	if first {
		b.fetched[key] = true
	}
	b.mu.Unlock()
	if first {
		tc.ChargeSharedRead(b.bytes)
		if b.staged {
			if _, err := b.ctx.store.Get(b.key); err != nil {
				if blob, ok := encodeExact(b.ctx.conf.SpillCodec, b.items); ok {
					b.ctx.store.Put(b.key, blob)
				}
			}
		}
	}
	return b.items
}

// Bytes returns the staged payload size.
func (b *Broadcast[T]) Bytes() int64 { return b.bytes }
