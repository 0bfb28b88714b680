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
	c := make([]float64, len(v))
	copy(c, v)
	return sortedMedian(c)
}

// sortedMedian sorts v (non-empty) and returns its middle: the definition of
// the median every other path must reproduce.
func sortedMedian(v []float64) float64 {
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// MedianInPlace returns Median(v), bit for bit, reordering v instead of
// copying it. Where v is totally ordered by its bits — it holds no NaN, which
// compares with nothing, and no -0, which ties with +0 — the middle order
// statistics are fixed by value alone and a selection finds them; otherwise
// it runs the same sort as Median, on the same input order.
func MedianInPlace(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	for _, x := range v {
		if x != x || (x == 0 && math.Signbit(x)) {
			return sortedMedian(v)
		}
	}
	hi := selectKth(v, n/2)
	if n%2 == 1 {
		return hi
	}
	return (slices.Max(v[:n/2]) + hi) / 2
}

// selectKth reorders v so that v[k] is its k-th smallest element with nothing
// larger before it and nothing smaller after it, and returns it (Hoare's
// quickselect, median-of-three pivots). v must hold no NaN.
func selectKth(v []float64, k int) float64 {
	lo, hi := 0, len(v)-1
	for hi-lo > 12 {
		mid := lo + (hi-lo)/2
		if v[mid] < v[lo] {
			v[mid], v[lo] = v[lo], v[mid]
		}
		if v[hi] < v[lo] {
			v[hi], v[lo] = v[lo], v[hi]
		}
		if v[hi] < v[mid] {
			v[hi], v[mid] = v[mid], v[hi]
		}
		pivot := v[mid]
		i, j := lo, hi
		for i <= j {
			for v[i] < pivot {
				i++
			}
			for v[j] > pivot {
				j--
			}
			if i <= j {
				v[i], v[j] = v[j], v[i]
				i++
				j--
			}
		}
		// v[lo..j] ≤ pivot ≤ v[i..hi], and anything between j and i equals it.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return v[k]
		}
	}
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
	return v[k]
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

// Ranks returns the fractional ranks of v (ties averaged), 1-based.
func Ranks(v []float64) []float64 {
	n := len(v)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && v[idx[j+1]] == v[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// SpearmanCorr returns the Spearman rank correlation of a and b.
func SpearmanCorr(a, b []float64) float64 {
	return PearsonCorr(Ranks(a), Ranks(b))
}
