package main

import (
	"math"
	"slices"
	"time"

	"mergepath/internal/stats"
)

// minBeyond is how many samples must lie above a percentile before it
// is reported: a tail figure resting on fewer is mostly noise.
const minBeyond = 10

// percentile returns the interpolated q-quantile of ds, as
// stats.Sample computes it, and whether the sample supports it: at
// least minBeyond samples must lie beyond the quantile's position.
func percentile(ds []time.Duration, q float64) (time.Duration, bool) {
	n := len(ds)
	if n == 0 || n-1-int(math.Floor(q*float64(n-1))) < minBeyond {
		return 0, false
	}
	return stats.Sample{Durations: ds}.Percentile(q), true
}

// medianDur is the median of ds, 0 when empty.
func medianDur(ds []time.Duration) time.Duration {
	return stats.Sample{Durations: ds}.Median()
}

// median is the median of plain numbers (throughputs, heap sizes),
// which stats.Sample, holding durations, does not take; 0 when empty.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}
