package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail estimate resting on fewer is one or two unlucky requests.
const minBeyond = 10

// quantile is one percentile of a sample, with the sample count it
// rests on.
type quantile struct {
	Value float64
	N     int
}

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs.
// ok is false when fewer than minBeyond samples lie above that rank,
// so the value would not be supported by the sample.
func percentile(xs []float64, q float64) (quantile, bool) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return quantile{N: n}, false
	}
	rank := int(math.Ceil(q*float64(n)-1e-9)) - 1 // 0-based nearest rank; 1e-9 absorbs q's rounding
	if n-1-rank < minBeyond {
		return quantile{N: n}, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile{Value: s[rank], N: n}, true
}

// mustPercentile is percentile for a metric the benchmark promises to
// print: an unsupported percentile is an error naming the sample size
// that fell short.
func mustPercentile(name string, xs []float64, q float64) (float64, error) {
	p, ok := percentile(xs, q)
	if !ok {
		need := int(math.Ceil(minBeyond/(1-q) - 1e-9))
		return 0, fmt.Errorf("%s: p%g needs about %d samples with %d beyond it, have %d",
			name, q*100, need, minBeyond, p.N)
	}
	return p.Value, nil
}

// mean is the arithmetic mean (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median of xs (0 for no samples); used where a handful of repeats is
// summarized, so it carries no tail-support rule.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
