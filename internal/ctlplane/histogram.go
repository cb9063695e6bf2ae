package ctlplane

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Histogram is a lock-free, log-bucketed latency/size distribution.
//
// The record path is Observe: one binary search over an immutable bound
// slice plus two atomic adds — no locks, no allocations, no branches
// that depend on scrape activity. That keeps the control-plane promise
// the counters and gauges already make (the hot path never pays for
// observability) while adding the one thing monotone atomics cannot
// express: the shape of a distribution, so tail latency is visible.
//
// Observations are raw int64 units (nanoseconds for durations, plain
// counts for e.g. attempts); Scale divides them back into the exposed
// unit at scrape time, so a latency histogram records ns and exposes
// seconds without any floating point on the record path.
//
// Bounds are inclusive upper bounds in ascending order. An implicit
// +Inf bucket catches everything above the last bound, so no value is
// ever dropped. Bounds are fixed at construction — log-spaced bounds
// (see ExpBuckets) cover µs..tens-of-seconds in ~26 buckets with a
// constant relative error, which is why the buckets are logarithmic
// rather than linear.
type Histogram struct {
	bounds []int64        // ascending inclusive upper bounds, immutable
	scale  float64        // exposed value = recorded value / scale
	counts []atomic.Int64 // len(bounds)+1; last slot is the +Inf bucket
	sum    atomic.Int64   // total of raw observed values
}

// NewHistogram builds a histogram over the given ascending upper bounds.
// scale divides raw observations into the exposed unit (1e9 turns
// recorded nanoseconds into exposed seconds; 1 exposes raw counts).
// Malformed bounds are programmer errors and panic, matching the
// registry's registration contract.
func NewHistogram(scale float64, bounds ...int64) *Histogram {
	if len(bounds) == 0 {
		panic("ctlplane: histogram needs at least one bucket bound")
	}
	if !(scale > 0) {
		panic(fmt.Sprintf("ctlplane: histogram scale %v must be positive", scale))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("ctlplane: histogram bounds not strictly ascending at %d (%d <= %d)",
				i, bounds[i], bounds[i-1]))
		}
	}
	return &Histogram{
		bounds: append([]int64(nil), bounds...),
		scale:  scale,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// ExpBuckets returns n upper bounds growing geometrically from start by
// factor (each step at least +1, so bounds stay strictly ascending even
// when the factor rounds to a no-op at small values).
func ExpBuckets(start int64, factor float64, n int) []int64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic("ctlplane: ExpBuckets needs start > 0, factor > 1, n > 0")
	}
	out := make([]int64, n)
	cur := start
	for i := 0; i < n; i++ {
		out[i] = cur
		next := int64(float64(cur) * factor)
		if next <= cur {
			next = cur + 1
		}
		cur = next
	}
	return out
}

// LatencyBuckets is the standard bound set for wire latency histograms:
// power-of-two nanosecond bounds from 1µs to ~34s (26 buckets + the
// implicit +Inf). Factor-2 spacing bounds the relative quantile error
// at 2x, which is plenty to tell a 100µs RTT from a retry-induced
// multi-second stall.
func LatencyBuckets() []int64 { return append([]int64(nil), latencyBounds...) }

// latencyBounds is LatencyBuckets computed once. Every latency histogram
// shares it: bounds are immutable after construction, so the slice is
// never written.
var latencyBounds = ExpBuckets(1024, 2, 26) // 2^10 ns .. 2^35 ns

// NewLatencyHistogram returns a histogram recording nanoseconds over
// LatencyBuckets and exposing seconds.
func NewLatencyHistogram() *Histogram {
	return &Histogram{bounds: latencyBounds, scale: 1e9, counts: make([]atomic.Int64, len(latencyBounds)+1)}
}

// Observe records one raw value. Lock-free and allocation-free: a
// binary search over the immutable bounds plus two atomic adds.
func (h *Histogram) Observe(v int64) {
	// sort.Search is inlined-friendly but takes a func; open-code the
	// binary search so the record path provably never allocates.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.sum.Add(v)
}

// HistBucket is one cumulative bucket of a snapshot: the count of
// observations <= LE (in exposed units; the final bucket's LE is +Inf).
type HistBucket struct {
	LE    float64
	Count int64
}

// HistSnapshot is one consistent-enough reading of a histogram, the
// unit Gather attaches to histogram Samples and WritePrometheus
// renders.
//
// Count is derived from the bucket counts (not a separate atomic), so
// the +Inf bucket always equals Count exactly, even when the snapshot
// races concurrent Observes, and both are monotone across successive
// snapshots. Sum is read separately and may lead or trail Count by the
// observations in flight during the snapshot — the same torn-read
// window every Prometheus client library accepts.
type HistSnapshot struct {
	Buckets []HistBucket // ascending LE, cumulative; last entry is +Inf
	Sum     float64      // total of observations, in exposed units
	Count   int64        // == Buckets[len-1].Count
}

// Snapshot evaluates the histogram into cumulative exposed-unit form.
// This is the scrape path; it allocates, Observe never does.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Buckets: make([]HistBucket, len(h.counts))}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := math.Inf(1)
		if i < len(h.bounds) {
			le = float64(h.bounds[i]) / h.scale
		}
		s.Buckets[i] = HistBucket{LE: le, Count: cum}
	}
	s.Count = cum
	s.Sum = float64(h.sum.Load()) / h.scale
	return s
}

// Count returns the total number of observations so far.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) in
// exposed units: the smallest bucket bound whose cumulative count
// covers q of the observations. Returns NaN on an empty histogram and
// +Inf when the quantile lands in the overflow bucket — a log-bucketed
// histogram can bound a quantile only to within one bucket's width.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	i := sort.Search(len(s.Buckets), func(i int) bool { return s.Buckets[i].Count >= rank })
	if i >= len(s.Buckets) {
		return math.Inf(1)
	}
	return s.Buckets[i].LE
}
