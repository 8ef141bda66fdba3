package rdd

import "math/rand"

// Distinct returns the unique records of an RDD of comparable type,
// deduplicating within partitions first (map-side) and globally through
// a shuffle by record value.
func Distinct[T comparable](r *RDD[T], part Partitioner) *RDD[T] {
	keyed := Map(r, func(_ *TaskContext, v T) Pair[T, struct{}] {
		return KV(v, struct{}{})
	})
	reduced := ReduceByKey(keyed, func(a, _ struct{}) struct{} { return a }, part)
	return Keys(reduced)
}

// Sample returns a Bernoulli sample of the RDD: each record is kept with
// probability fraction. Deterministic for a given seed (each partition
// derives its own stream), narrow, partitioner-preserving is not claimed
// (records are unchanged but Spark also drops the partitioner here).
func Sample[T any](r *RDD[T], fraction float64, seed int64) *RDD[T] {
	if fraction < 0 || fraction > 1 {
		panic("rdd: Sample fraction must be in [0,1]")
	}
	return narrow[T, T](r, "sample", nil, func(_ *TaskContext, split int, in []T) partition {
		if len(in) == 0 {
			return nil
		}
		rng := rand.New(rand.NewSource(seed + int64(split)*0x9e3779b9))
		var out []T
		for i := range in {
			if rng.Float64() < fraction {
				out = append(out, in[i])
			}
		}
		return box(out)
	})
}

// Take returns up to n records (driver-side; computes the whole RDD, as
// this engine has no partial-job support).
func (r *RDD[T]) Take(n int) ([]T, error) {
	recs, err := r.Collect()
	if err != nil {
		return nil, err
	}
	if len(recs) > n {
		recs = recs[:n]
	}
	return recs, nil
}

// Reduce folds all records with an associative, commutative op; errors on
// an empty RDD.
func Reduce[T any](r *RDD[T], op func(a, b T) T) (T, error) {
	var zero T
	recs, err := r.Collect()
	if err != nil {
		return zero, err
	}
	if len(recs) == 0 {
		return zero, errEmptyReduce
	}
	acc := recs[0]
	for _, v := range recs[1:] {
		acc = op(acc, v)
	}
	return acc, nil
}

// errEmptyReduce reports Reduce on an empty RDD.
var errEmptyReduce = errorString("rdd: Reduce of empty RDD")

type errorString string

func (e errorString) Error() string { return string(e) }
