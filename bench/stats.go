package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile for
// it to say anything about the tail.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of ascending samples. It
// fails when fewer than minBeyond samples lie beyond the rank, so a run too
// short to support its p99 is caught instead of reported.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, errors.New("no samples")
	}
	rank := int(math.Ceil(p*float64(n) - 1e-9)) // 1-based; the epsilon keeps float error from bumping an exact rank
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*p, n, beyond, minBeyond)
	}
	return sorted[rank-1], nil
}

// percentileLadder is the set of item-latency percentiles the benchmark
// reports, lowest first.
var percentileLadder = []float64{0.5, 0.9, 0.99}

// highestPercentile returns the highest ladder percentile that n samples
// support with minBeyond samples beyond it, or 0 when not even the median
// does.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if n-int(math.Ceil(p*float64(n)-1e-9)) >= minBeyond {
			best = p
		}
	}
	return best
}

// sortedCopy returns the samples in ascending order without touching the
// caller's slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is statistics.median.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles is Python's statistics.quantiles(xs, n=4) with its default
// exclusive method, so spreads computed here and by a script over the JSON
// results agree. With one sample every quartile is that sample.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const groups = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < groups; i++ {
		j := i * m / groups
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*groups
		out[i-1] = (s[j-1]*float64(groups-delta) + s[j]*float64(delta)) / groups
	}
	return out[0], out[1], out[2]
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise a bound has to clear.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// worsening is the fraction by which cand is worse than base in the
// metric's direction; negative means better.
func worsening(m metric, base, cand float64) float64 {
	if base == 0 {
		if cand == base {
			return 0
		}
		if (m.Better == "lower") == (cand > base) {
			return math.Inf(1)
		}
		return math.Inf(-1)
	}
	d := (cand - base) / math.Abs(base)
	if m.Better == "higher" {
		d = -d
	}
	return d
}

// exceedsBound reports whether cand regresses base by more than the
// metric's bound.
func exceedsBound(m metric, base, cand float64) bool {
	return worsening(m, base, cand) > m.Bound
}
