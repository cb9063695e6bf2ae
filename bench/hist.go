package main

import (
	"math"
	"math/bits"
)

// Log-linear latency histogram: every power-of-two octave is cut into
// histSub equal sub-buckets, so a bucket is never wider than 1/histSub
// of its lower bound and a sample reported from inside its bucket is off
// by at most 1/histSub = 3.1 % at the worst and 1.6 % from the middle —
// quantiles, interpolated by rank within the bucket, stay inside the
// 2 % the harness promises (hist_test.go checks it against exact order
// statistics). Values below 2*histSub ns are exact. The table is a fixed array: recording a
// sample is an index computation and an increment, no allocation, so
// the measured loop's allocations stay the program's own.
const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	histMaxExp  = 36 // 2^36 ns ≈ 69 s; anything longer lands in the last bucket
	histBuckets = (histMaxExp - histSubBits + 1) * histSub
)

type hist struct {
	counts [histBuckets]uint32
	n      int64
	max    int64
}

func bucketOf(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1
	if e >= histMaxExp {
		return histBuckets - 1
	}
	sub := int(v>>(e-histSubBits)) & (histSub - 1)
	return (e-histSubBits+1)*histSub + sub
}

// bucketBounds returns bucket i's lower bound and width.
func bucketBounds(i int) (lower, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	shift := i/histSub - 1
	return float64(int64(histSub+i%histSub) << shift), float64(int64(1) << shift)
}

func (h *hist) add(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile (0 < q <= 1): the ceil(q*n)-th
// smallest sample, placed inside its bucket by its rank among the
// bucket's samples (so the answer moves continuously instead of
// jumping a bucket at a time, and two runs do not report the same
// bucket edge to the last digit). 0 on an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := min(max(int64(math.Ceil(q*float64(h.n))), 1), h.n)
	var cum int64
	for i, c := range h.counts {
		if cum+int64(c) >= rank {
			lower, width := bucketBounds(i)
			if width == 1 {
				return lower
			}
			return min(lower+width*(float64(rank-cum)-0.5)/float64(c), float64(h.max))
		}
		cum += int64(c)
	}
	return float64(h.max)
}
