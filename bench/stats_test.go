package main

import (
	"math"
	"testing"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	// 1000 samples put exactly ten beyond the p99, at rank 990.
	v, err := percentile(ramp(1000), 0.99)
	if err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(ramp(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples has only 9 beyond it; want an error")
	}
	if v, err := percentile(ramp(20), 0.5); err != nil || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples succeeded")
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {19, 0}, {20, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {100000, 0.99}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(ramp(10))
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
	q1, q2, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || q2 != 2 || q3 != 3.5 {
		t.Fatalf("quartiles(1,3) = %v %v %v", q1, q2, q3)
	}
	if s := spread(ramp(10)); math.Abs(s-5.5/5.5) > 1e-12 {
		t.Fatalf("spread(1..10) = %v, want 1", s)
	}
}

func TestBoundCheck(t *testing.T) {
	lower := metric{Name: "latency", Better: "lower", Bound: 0.10}
	higher := metric{Name: "rate", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		m          metric
		base, cand float64
		want       bool
	}{
		{lower, 100, 109, false},
		{lower, 100, 111, true},
		{lower, 100, 50, false},
		{higher, 100, 91, false},
		{higher, 100, 89, true},
		{higher, 100, 150, false},
	} {
		if got := exceedsBound(c.m, c.base, c.cand); got != c.want {
			t.Errorf("%s %v -> %v: exceeds = %v, want %v", c.m.Better, c.base, c.cand, got, c.want)
		}
	}
}
