package main

import (
	"math"
	"sort"
)

// Estimators. Host-time metrics take the fastest sample of a run:
// interference on a shared machine only ever adds time to deterministic
// single-thread work, so the minimum is the sample least touched by it.
// Median and inter-quartile range of the same samples are reported beside
// it so a reader can tell a slow-phase run from a slow program.

// fastest returns the smallest sample (NaN for none).
func fastest(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqr is the distance between the first and third quartile.
func iqr(xs []float64) float64 { return quantile(xs, 0.75) - quantile(xs, 0.25) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

// segmentFloor takes rows of n segment durations each (one row per pass,
// segments in the same order) and returns per segment the fastest
// reading. Interference on a shared host only ever adds time to
// deterministic single-thread work; a whole pass needs seconds of quiet
// to show its true time, one segment only milliseconds, so the floor of
// each segment is reached in runs whose every pass was disturbed
// somewhere. Rows of another length (a pass cut short by a failure) are
// left out; with no usable row every segment is NaN.
func segmentFloor(n int, rows [][]float64) []float64 {
	floor := make([]float64, n)
	for i := range floor {
		floor[i] = math.NaN()
	}
	for _, row := range rows {
		if len(row) != n {
			continue
		}
		for i, v := range row {
			if math.IsNaN(floor[i]) || v < floor[i] {
				floor[i] = v
			}
		}
	}
	return floor
}

// relDiff is the disagreement of two readings of one metric as a share
// of the smaller one.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Min(math.Abs(a), math.Abs(b))
}
