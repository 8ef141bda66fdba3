package main

import (
	"math"
	"testing"
)

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		samples int
		want    float64
		ok      bool
	}{
		{5, 0, false},
		{39, 0, false}, // p75 of 39 leaves 9.75 beyond
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := highestPercentile(c.samples)
		if got != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.samples, got, ok, c.want, c.ok)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(v, n=4) of these inputs, from CPython.
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 5, 5}, 5, 5},
	} {
		q1, q3, ok := quartiles(c.v)
		if !ok || math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.v, q1, q3, ok, c.q1, c.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("one value has no quartiles")
	}
}

func TestMedianPercentileSpread(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // 1..100, unsorted
	}
	if p := percentile(v, 99); p != 99 {
		t.Errorf("p99 of 1..100 = %v", p)
	}
	if p := percentile(v, 50); p != 50 {
		t.Errorf("p50 of 1..100 = %v", p)
	}
	sp, ok := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !ok || math.Abs(sp-1) > 1e-12 { // (8.25 - 2.75) / 5.5
		t.Errorf("spread = %v, %v", sp, ok)
	}
}
