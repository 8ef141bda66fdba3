package main

import (
	"math"
	"sort"
)

// median returns the middle of the values (mean of the two middle ones
// for an even count); 0 for none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailPermille are the candidates of the reporting rule, highest first,
// in thousandths so that the rule is exact in integers.
var tailPermille = []int{999, 990, 950, 900, 750}

// highestPercentile applies the reporting rule for a tail: the highest
// percentile that still has at least ten samples beyond it. Below forty
// samples no tail percentile qualifies, and ok is false.
func highestPercentile(samples int) (p float64, ok bool) {
	for _, pm := range tailPermille {
		if samples*(1000-pm) >= 10*1000 {
			return float64(pm) / 10, true
		}
	}
	return 0, false
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) (the default exclusive method) does,
// so spreads computed here match the driver's. It needs two values.
func quartiles(v []float64) (q1, q3 float64, ok bool) {
	if len(v) < 2 {
		return 0, 0, false
	}
	s := sorted(v)
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3), true
}

// spread is the quartile distance as a share of the median: the driver's
// steadiness measure for one metric over repeated runs.
func spread(v []float64) (float64, bool) {
	q1, q3, ok := quartiles(v)
	med := median(v)
	if !ok || med == 0 {
		return 0, false
	}
	return math.Abs(q3-q1) / math.Abs(med), true
}
