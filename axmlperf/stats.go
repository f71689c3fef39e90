package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of sorted by linear interpolation
// between the two closest order statistics: rank h = q·(n−1), value
// x[⌊h⌋] + (h−⌊h⌋)·(x[⌊h⌋+1] − x[⌊h⌋]). This is the "type 7" estimator
// (numpy's default) and is exact on the raw samples — no histogram
// buckets are involved. sorted must be in ascending order; an empty
// slice yields NaN.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return math.NaN()
	case q <= 0:
		return sorted[0]
	case q >= 1:
		return sorted[n-1]
	}
	h := q * float64(n-1)
	lo := int(h)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// dist summarises one sample population: its size, median and p95, and
// how many samples lie strictly above the p95 (a p95 is only worth
// reporting when that tail holds at least ten samples).
type dist struct {
	N        int
	P50, P95 float64
	Beyond95 int
	Mean     float64
}

// summarize computes the exact distribution summary of xs (xs is not
// modified).
func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{N: len(s), P50: quantile(s, 0.50), P95: quantile(s, 0.95)}
	var sum float64
	for _, x := range s {
		sum += x
		if x > d.P95 {
			d.Beyond95++
		}
	}
	if d.N > 0 {
		d.Mean = sum / float64(d.N)
	}
	return d
}

// median is the exact 0.5-quantile of xs.
func median(xs []float64) float64 { return summarize(xs).P50 }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
