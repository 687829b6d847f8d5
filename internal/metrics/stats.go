package metrics

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of vs, or 0 for an empty slice.
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Variance returns the population variance of vs.
func Variance(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	m := Mean(vs)
	var acc float64
	for _, v := range vs {
		d := v - m
		acc += d * d
	}
	return acc / float64(len(vs))
}

// StdDev returns the population standard deviation of vs.
func StdDev(vs []float64) float64 { return math.Sqrt(Variance(vs)) }

// SortedCopy copies vs into buf, reusing buf's storage when it is large
// enough, sorts the copy ascending and returns it. vs is left untouched.
func SortedCopy(buf, vs []float64) []float64 {
	buf = append(buf[:0], vs...)
	sort.Float64s(buf)
	return buf
}

// PercentileSorted returns the p'th percentile (0..100) of an ascending
// sample — SortedCopy's result — using linear interpolation between
// closest ranks. To read several percentiles of one sample, sort once with
// SortedCopy and read each from the sorted copy. An empty sample reads 0.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
