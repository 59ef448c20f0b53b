package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailBeyond = 10

// tailCandidates are the percentiles tailPercentile considers, highest
// first.
var tailCandidates = []float64{0.999, 0.99, 0.9, 0.5}

// percentile returns the nearest-rank p-quantile of xs (p in (0,1]): the
// smallest sample with at least p·n samples at or below it. 0 for no
// samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of quantile p among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// median is the 0.5 quantile, averaging the two middle samples for an even
// count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPercentile returns the highest candidate percentile that has at least
// tailBeyond samples strictly beyond its nearest rank, with its value.
// ok is false when even the median lacks that many.
func tailPercentile(xs []float64) (p, v float64, ok bool) {
	n := len(xs)
	for _, c := range tailCandidates {
		if n-rank(n, c) >= tailBeyond {
			return c, percentile(xs, c), true
		}
	}
	return 0, 0, false
}
