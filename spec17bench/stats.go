package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile; a tail with fewer is noise, not a measurement.
const minBeyond = 10

// median returns the median of xs (NaN for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the nearest-rank q-quantile of xs. It refuses (returns
// an error) unless at least minBeyond samples lie beyond that rank, so
// a p99 needs 1000 samples and a p90 needs 100.
func tail(xs []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("quantile %v outside (0, 1)", q)
	}
	n := len(xs)
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, beyond, minBeyond)
	}
	return sorted(xs)[rank-1], nil
}

// mean returns the arithmetic mean of xs (NaN for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// fitLine returns the least-squares intercept and slope of y over x.
func fitLine(x, y []float64) (intercept, slope float64, err error) {
	if len(x) != len(y) || len(x) < 2 {
		return 0, 0, fmt.Errorf("fit needs two or more paired points, have %d and %d", len(x), len(y))
	}
	mx, my := mean(x), mean(y)
	var sxx, sxy float64
	for i := range x {
		sxx += (x[i] - mx) * (x[i] - mx)
		sxy += (x[i] - mx) * (y[i] - my)
	}
	if sxx == 0 {
		return 0, 0, fmt.Errorf("fit needs at least two distinct x values")
	}
	slope = sxy / sxx
	return my - slope*mx, slope, nil
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
