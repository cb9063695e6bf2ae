package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile is the order statistic hist.quantile approximates.
func exactQuantile(sorted []int64, q float64) float64 {
	rank := min(max(int(math.Ceil(q*float64(len(sorted)))), 1), len(sorted))
	return float64(sorted[rank-1])
}

func checkQuantiles(t *testing.T, name string, samples []int64) {
	t.Helper()
	var h hist
	for _, v := range samples {
		h.add(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.01, 0.25, 0.50, 0.90, 0.99, 0.999, 1} {
		want, got := exactQuantile(samples, q), h.quantile(q)
		if rel := math.Abs(got-want) / want; rel > 0.02 {
			t.Errorf("%s q=%v: histogram %v, exact %v (off by %.2f%%, limit 2%%)", name, q, got, want, 100*rel)
		}
	}
	if h.n != int64(len(samples)) || h.max != samples[len(samples)-1] {
		t.Errorf("%s: n=%d max=%d, want %d and %d", name, h.n, h.max, len(samples), samples[len(samples)-1])
	}
}

func TestHistQuantilesMatchOrderStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	random := make([]int64, 200_000)
	for i := range random {
		random[i] = int64(math.Exp(rng.NormFloat64()*1.5 + 9)) // log-normal around 8µs, ns to ms
	}
	checkQuantiles(t, "log-normal", random)

	// Two narrow modes three decades apart, the slow one holding 2% of
	// the samples so p99 sits inside it: a 1.9µs op and a 4.2ms tick.
	bimodal := make([]int64, 100_000)
	for i := range bimodal {
		if i%50 == 0 {
			bimodal[i] = 4_200_000 + rng.Int63n(150_000)
		} else {
			bimodal[i] = 1_900 + rng.Int63n(200)
		}
	}
	checkQuantiles(t, "bimodal", bimodal)
}

func TestHistBucketsCoverTheRange(t *testing.T) {
	for _, v := range []int64{-5, 0, 1, 31, 32, 63, 64, 65, 1000, 1 << 20, 1<<36 - 1, 1 << 36, math.MaxInt64} {
		i := bucketOf(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("bucketOf(%d) = %d, outside [0,%d)", v, i, histBuckets)
		}
		lower, width := bucketBounds(i)
		if v >= 0 && v < 1<<36 && (float64(v) < lower || float64(v) >= lower+width) {
			t.Errorf("value %d landed in bucket %d = [%v, %v)", v, i, lower, lower+width)
		}
	}
}

func TestHistMergeAddsUp(t *testing.T) {
	var a, b, both hist
	for v := int64(1); v < 5000; v += 7 {
		a.add(v)
		both.add(v)
	}
	for v := int64(100_000); v < 900_000; v += 333 {
		b.add(v)
		both.add(v)
	}
	a.merge(&b)
	if a != both {
		t.Fatal("merging two histograms differs from recording every sample into one")
	}
}
