package main

import (
	"math"
	"testing"
)

// A run in which the host stalled the guest for a minority of the
// slices must still report the undisturbed figure, where a mean would
// not.
func TestSliceMedianIgnoresAMinorityOfStalledSlices(t *testing.T) {
	tokens, lat := make([]float64, 30), make([]float64, 30)
	var cleanMean float64
	for i := range tokens {
		tokens[i] = 450_000 + float64(i%5)*1000 // 450k–454k tokens/s
		lat[i] = 2.00 + float64(i%5)*0.01       // 2.00–2.04 µs
		cleanMean += tokens[i] / 30
	}
	cleanTokens, cleanLat := median(tokens), median(lat)
	for i := 0; i < 12; i++ { // 12 of 30 slices stalled: slowed by a third, or stolen outright
		tokens[i], lat[i] = 300_000, 3.1
		if i%4 == 0 {
			tokens[i], lat[i] = 0, math.NaN() // no op completed: no latency sample at all
		}
	}
	if got := median(tokens); math.Abs(got-cleanTokens)/cleanTokens > 0.005 {
		t.Errorf("throughput with 12 stalled slices = %v, undisturbed %v", got, cleanTokens)
	}
	if got := median(lat); math.Abs(got-cleanLat)/cleanLat > 0.005 {
		t.Errorf("latency with 12 stalled slices = %v, undisturbed %v", got, cleanLat)
	}
	var mean float64
	for _, x := range tokens {
		mean += x / 30
	}
	if math.Abs(mean-cleanMean)/cleanMean < 0.1 {
		t.Errorf("test is vacuous: the mean (%v) did not move", mean)
	}
}

func TestMedianEvenOddEmpty(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{math.NaN()}, 0},
		{[]float64{3}, 3},
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// The spreads -agree prints must be the ones Python's
// statistics.quantiles(xs, n=4) gives; the expected values below were
// computed with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{5, 9}, 4, 10},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 9},
	} {
		q1, q3 := quartiles(tc.in)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := iqrRatio([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrRatio(1..10) = %v, want 5.5/5.5", got)
	}
}
