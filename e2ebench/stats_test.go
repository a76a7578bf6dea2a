package main

import (
	"math"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the helper must sort
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{1000, 0.99, true, 990}, // exactly 10 samples above rank 990
		{999, 0.99, false, 0},   // 9 above
		{200, 0.95, true, 190},
		{199, 0.95, false, 0},
		{20, 0.5, true, 10},
		{19, 0.5, false, 0},
		{0, 0.5, false, 0},
	}
	for _, c := range cases {
		p, ok := percentile(seq(c.n), c.q)
		if ok != c.ok || p.N != c.n || (ok && p.Value != c.want) {
			t.Errorf("percentile(n=%d, q=%v) = %+v, %v; want %v, %v", c.n, c.q, p, ok, c.want, c.ok)
		}
	}
}

func TestPercentileDoesNotReorderInput(t *testing.T) {
	xs := seq(50)
	if _, ok := percentile(xs, 0.5); !ok {
		t.Fatal("median of 50 unsupported")
	}
	if xs[0] != 50 || xs[49] != 1 {
		t.Fatalf("input reordered: %v", xs)
	}
}

func TestMustPercentileStatesSampleSize(t *testing.T) {
	_, err := mustPercentile("latency_p95_ms", seq(120), 0.95)
	if err == nil {
		t.Fatal("p95 of 120 samples reported")
	}
	for _, want := range []string{"latency_p95_ms", "have 120", "200 samples"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	v, err := mustPercentile("x", seq(400), 0.95)
	if err != nil || v != 380 {
		t.Fatalf("p95 of 400 = %v, %v; want 380", v, err)
	}
}

func TestMedianAndMean(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if m := mean([]float64{1, 2, 6}); m != 3 {
		t.Errorf("mean = %v", m)
	}
	if r := ratio(1, 0); r != 0 || math.IsNaN(r) {
		t.Errorf("ratio(1, 0) = %v", r)
	}
}
