package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: with fewer, the percentile is an accident of one or two samples.
const minBeyond = 10

// failed is the latency a failed or refused operation counts as: it misses
// every latency limit.
var failed = math.Inf(1)

// percentile returns the q-quantile (0 < q < 1) of samples by nearest rank,
// and ok=false unless at least minBeyond samples rank above it. A p50 needs
// 20 samples, a p90 100 and a p95 200. samples is not modified.
func percentile(samples []float64, q float64) (v float64, ok bool) {
	n := len(samples)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], true
}

// median is the middle value (the mean of the two middle values for an even
// count) of a non-empty sample; it is how repeated measurements inside one
// run are summarized.
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

// durMedian is median over durations, in seconds.
func durMedian(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
