package main

import (
	"math"
	"slices"
)

// failedLat is the latency recorded for an op that was shed, timed
// out, errored or returned a wrong reply: it misses every limit, so it
// sorts beyond every real sample.
const failedLat = math.MaxInt64

// quantile is one percentile of a set of raw latency samples, with the
// size of the set and the number of samples beyond the ones it was
// computed from, so a reader can see whether the tail has support.
type quantile struct {
	ns     float64
	n      int
	beyond int
}

func (q quantile) us() float64 { return q.ns / 1e3 }

// sortedCopy returns the samples in ascending order, leaving the
// caller's arrival-ordered slice intact (the traced run compares it
// sample for sample).
func sortedCopy(samples []int64) []int64 {
	s := append([]int64(nil), samples...)
	slices.Sort(s)
	return s
}

// quantileOf returns the q-quantile of ascending raw samples: the mean
// of the order statistics around the nearest rank ceil(q*n), half the
// quantile's tail on either side, at most 6.25 % of the samples. With
// t = min(q, 1-q) that is ranks r-k..r+k, k = ceil(n*min(t/2, 1/16)):
// p50 averages the samples between the 43.75th and 56.25th
// percentiles, p99 those between the 98.5th and 99.5th, p99.9 those
// between the 99.85th and 99.95th.
//
// It is computed from the samples themselves, never from buckets, so
// it is linear: make every sample 10 % faster and it reads 10 % lower
// (obs.Histogram.Quantile, log2 buckets with rank interpolation, reads
// the same before and after). The window exists because virtual time
// is exact and the stack's slow paths are discrete. The uncontended
// latency of an op is a constant, thousands of samples share each
// nanosecond value, and a single order statistic reads the same
// integer on every seed. And a tail is a staircase: on fleet 2 % of
// ops are shed once (+100 us), 0.4 % twice (+300 us), 0.08 % three
// times (+700 us), whatever the rate, so the single sample at the
// 99.9th percentile is a coin flip between 450 us and 800 us. The
// window reads the step's position instead of which side of it one
// rank fell. +Inf when the window reaches a failed op.
func quantileOf(sorted []int64, q float64) quantile {
	n := len(sorted)
	if n == 0 {
		return quantile{}
	}
	rank := int(math.Ceil(q * float64(n)))
	rank = max(1, min(rank, n))
	k := int(math.Ceil(float64(n)*min(min(q, 1-q)/2, 1.0/16) - 1e-9)) // 1-0.999 is not exactly 0.001
	k = min(k, rank-1, n-rank)                                        // stay symmetric at the edges
	if sorted[rank+k-1] == failedLat {
		return quantile{ns: math.Inf(1), n: n, beyond: n - rank - k}
	}
	var sum float64
	for _, v := range sorted[rank-k-1 : rank+k] {
		sum += float64(v)
	}
	return quantile{ns: sum / float64(2*k+1), n: n, beyond: n - rank - k}
}
