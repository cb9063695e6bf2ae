package main

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// median is the harness's estimator for every timing metric: a run is
// cut into one-second slices, the figure is computed per slice, and the
// run reports the middle slice (mean of the two middles for an even
// count), so a second the host stole is one outvoted sample, not a
// shifted mean. NaN entries — slices in which the quantity is
// undefined, e.g. CPU per token of a slice that completed no token —
// are left out. 0 when nothing is left.
func median(xs []float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	return stats.Percentile(s, 50)
}

func sorted(xs []float64) []float64 {
	s := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			s = append(s, x)
		}
	}
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the default "exclusive" method),
// so the spreads -agree prints are the ones the benchmark's driver
// computes. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	at := func(i int) float64 { // i-th of 4 cut points, i in {1,3}
		j := min(max(i*(n+1)/4, 1), n-1)
		d := i*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// iqrRatio is the interquartile range of xs as a share of its median:
// the run-to-run (or slice-to-slice) spread figure used throughout.
func iqrRatio(xs []float64) float64 {
	if len(sorted(xs)) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}
