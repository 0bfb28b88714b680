package mat

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

// AddVec returns a + b element-wise.
func AddVec(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("mat: AddVec length mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// SubVec returns a - b element-wise.
func SubVec(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("mat: SubVec length mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// ScaleVec returns a * s element-wise.
func ScaleVec(a []float64, s float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] * s
	}
	return out
}

// Sum returns the sum of all elements of v.
func Sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of v, or 0 for an empty slice.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return Sum(v) / float64(len(v))
}

// Variance returns the sample variance of v (n-1 denominator), or 0 when v
// has fewer than two elements.
func Variance(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := Mean(v)
	var s float64
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return s / float64(len(v)-1)
}

// Std returns the sample standard deviation of v.
func Std(v []float64) float64 { return math.Sqrt(Variance(v)) }

// Median returns the median of v, or 0 for an empty slice. v is not modified.
func Median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := slices.Clone(v)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// PrefixSum returns p with p[0] = 0 and p[i] = v[0] + ... + v[i-1], so a
// range sum over v[lo:hi] is p[hi] - p[lo]. This is the preprocessing step
// for the factorised left-multiplication operator (Algorithm 3).
func PrefixSum(v []float64) []float64 {
	p := make([]float64, len(v)+1)
	for i, x := range v {
		p[i+1] = p[i] + x
	}
	return p
}

// RangeSum returns the sum of v[lo:hi] given the prefix sums p = PrefixSum(v).
func RangeSum(p []float64, lo, hi int) float64 { return p[hi] - p[lo] }

// Standardize returns (v - mean) / std element-wise. A zero-variance vector
// standardizes to all zeros.
func Standardize(v []float64) []float64 {
	m, s := Mean(v), Std(v)
	out := make([]float64, len(v))
	if s == 0 {
		return out
	}
	for i, x := range v {
		out[i] = (x - m) / s
	}
	return out
}

// PearsonCorr returns the Pearson correlation coefficient of a and b, or 0
// when either vector has zero variance.
func PearsonCorr(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		panic("mat: PearsonCorr length mismatch")
	}
	ma, mb := Mean(a), Mean(b)
	var num, da, db float64
	for i := range a {
		x, y := a[i]-ma, b[i]-mb
		num += x * y
		da += x * x
		db += y * y
	}
	if da == 0 || db == 0 {
		return 0
	}
	return num / math.Sqrt(da*db)
}
