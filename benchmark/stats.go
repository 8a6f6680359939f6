package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of an ascending slice
// by linear interpolation between closest ranks. An empty slice gives 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	if lo < 0 {
		return sorted[0]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// relIQR is the distance between the first and third quartile as a share
// of the median: the run-to-run spread every bound is compared against.
// Fewer than two values, or a zero median, give 0.
func relIQR(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sortedCopy(xs)
	med := percentile(s, 50)
	if med == 0 {
		return 0
	}
	return math.Abs((percentile(s, 75) - percentile(s, 25)) / med)
}

// medianSpread estimates how far the median of xs may be off, as a share
// of it: the values' relative IQR shrunk by √n, as the standard error of
// a median is. A run has 10–100 short windows, so the spread between
// single windows says little; this is what -compare holds against the
// bound before it calls a difference resolved.
func medianSpread(xs []float64) float64 {
	return relIQR(xs) / math.Sqrt(float64(max(len(xs), 1)))
}

// decimate keeps at most keep evenly spaced elements of an ascending
// slice. Picking by rank preserves every quantile of the input to within
// 1/keep, so windows can be pooled without holding every sample.
func decimate(sorted []int64, keep int) []int64 {
	n := len(sorted)
	if n <= keep {
		return sorted
	}
	out := make([]int64, keep)
	for i := range out {
		out[i] = sorted[int((int64(i)*int64(n-1))/int64(keep-1))]
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
