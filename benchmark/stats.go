package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile (0 ≤ p ≤ 1) of values by linear
// interpolation between order statistics. It does not modify values.
// An empty input yields NaN, so a phase that produced no samples shows
// up as a broken number instead of a plausible zero.
func quantile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(values []float64) float64 { return quantile(values, 0.5) }

func mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method: positions
// (n+1)/4 and 3(n+1)/4, clamped to the sample), because that is the
// function the acceptance check is specified with.
func quartiles(values []float64) (q1, q3 float64) {
	n := len(values)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return values[0], values[0]
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th quartile cut, k in 1..3
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure every bound is judged against.
func spread(values []float64) float64 {
	q1, q3 := quartiles(values)
	return (q3 - q1) / median(values)
}
