package main

import (
	"math"
	"sort"
)

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of v, the mean of the two middle
// values when len(v) is even, and 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rank returns the nearest rank of the p-th percentile among n sorted
// samples: the least count of samples that holds p percent of them.
func rank(p float64, n int) int {
	// The small subtraction keeps 99.9 % of 1000 at rank 999 though the
	// product is a hair above it in floating point.
	return max(int(math.Ceil(p*float64(n)/100-1e-9)), 1)
}

// percentile returns the nearest-rank p-th percentile of v: the smallest
// value with at least p percent of the samples at or below it.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sorted(v)[rank(p, len(v))-1]
}

// iqrShare returns the distance between the first and third quartile of
// v as a share of its median, with the quartiles Python's
// statistics.quantiles(v, n=4) gives — the spread the acceptance rule of
// BENCHMARK.json is stated in. It needs two values and a non-zero median.
func iqrShare(v []float64) float64 {
	med := median(v)
	if len(v) < 2 || med == 0 {
		return 0
	}
	s := sorted(v)
	quartile := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (quartile(3) - quartile(1)) / med
}

// middleHalf returns the indexes of the values of v that rank between
// its quartiles: the middle half, at least one value of a non-empty v.
func middleHalf(v []float64) []int {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	return idx[len(v)/4 : len(v)-len(v)/4]
}
