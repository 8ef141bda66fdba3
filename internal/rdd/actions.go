package rdd

import (
	"fmt"
	"slices"

	"dpspark/internal/obs"
	"dpspark/internal/simtime"
)

// Collect runs a job computing every partition and gathers the records at
// the driver, charging the transfer across the driver's network link.
// It returns the engine's failure state (staging disk full, executor
// memory exceeded) alongside the data.
func (r *RDD[T]) Collect() ([]T, error) {
	ctx := r.ds.ctx
	out := slices.Concat(unboxAll[T](ctx.runJob(r.ds))...)
	bytes := sizeAll(out)
	start := ctx.Clock()
	ctx.AdvanceDriver(ctx.model.NetTime(bytes), simtime.Network)
	ctx.AdvanceDriver(ctx.model.SerializeTime(bytes), simtime.Overhead)
	ctx.Observer().Metrics().
		Counter("dpspark_collect_bytes_total", obs.Labels{"phase": ctx.CurrentPhase()}).
		Add(bytes)
	ctx.EmitDriverSpan("collect", "collect", start,
		map[string]string{"bytes": fmt.Sprintf("%d", bytes)})
	return out, ctx.Err()
}

// Count runs a job and returns the total number of records. Only the
// counts travel to the driver.
func (r *RDD[T]) Count() (int, error) {
	ctx := r.ds.ctx
	parts := ctx.runJob(r.ds)
	n := 0
	for _, p := range parts {
		n += len(unbox[T](p))
	}
	ctx.AdvanceDriver(ctx.model.NetTime(int64(8*r.ds.parts)), simtime.Network)
	return n, ctx.Err()
}

// CollectMap collects a pair RDD into a driver-side map. Duplicate keys
// keep the last record (like collectAsMap).
func CollectMap[K comparable, V any](r *RDD[Pair[K, V]]) (map[K]V, error) {
	recs, err := r.Collect()
	out := make(map[K]V, len(recs))
	for _, p := range recs {
		out[p.Key] = p.Value
	}
	return out, err
}
