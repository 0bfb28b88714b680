package mat

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
}

func TestVecArith(t *testing.T) {
	a, b := []float64{1, 2}, []float64{3, 5}
	if got := AddVec(a, b); got[0] != 4 || got[1] != 7 {
		t.Errorf("AddVec = %v", got)
	}
	if got := SubVec(b, a); got[0] != 2 || got[1] != 3 {
		t.Errorf("SubVec = %v", got)
	}
	if got := ScaleVec(a, 2); got[0] != 2 || got[1] != 4 {
		t.Errorf("ScaleVec = %v", got)
	}
}

func TestSummaryStats(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(v); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Sample variance with n-1 = 32/7.
	if got := Variance(v); !almostEq(got, 32.0/7, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7)
	}
	if got := Std(v); !almostEq(got, math.Sqrt(32.0/7), 1e-12) {
		t.Errorf("Std = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
	if got := Variance([]float64{1}); got != 0 {
		t.Errorf("Variance(singleton) = %v", got)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd Median = %v", got)
	}
	if got := Median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even Median = %v", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("Median(nil) = %v", got)
	}
	// Input must not be modified.
	v := []float64{3, 1, 2}
	Median(v)
	if v[0] != 3 {
		t.Error("Median modified its input")
	}
}

func TestPrefixAndRangeSum(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	p := PrefixSum(v)
	if got := RangeSum(p, 1, 3); got != 5 {
		t.Errorf("RangeSum(1,3) = %v, want 5", got)
	}
	if got := RangeSum(p, 0, 4); got != 10 {
		t.Errorf("RangeSum(0,4) = %v, want 10", got)
	}
	if got := RangeSum(p, 2, 2); got != 0 {
		t.Errorf("empty RangeSum = %v", got)
	}
}

func TestPrefixSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		v := make([]float64, n)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		p := PrefixSum(v)
		lo := r.Intn(n)
		hi := lo + r.Intn(n-lo+1)
		var want float64
		for i := lo; i < hi; i++ {
			want += v[i]
		}
		return almostEq(RangeSum(p, lo, hi), want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStandardize(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	s := Standardize(v)
	if !almostEq(Mean(s), 0, 1e-12) || !almostEq(Std(s), 1, 1e-12) {
		t.Errorf("Standardize mean=%v std=%v", Mean(s), Std(s))
	}
	z := Standardize([]float64{7, 7, 7})
	for _, x := range z {
		if x != 0 {
			t.Errorf("zero-variance Standardize = %v", z)
		}
	}
}

func TestPearsonCorr(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{2, 4, 6, 8}
	if got := PearsonCorr(a, b); !almostEq(got, 1, 1e-12) {
		t.Errorf("perfect corr = %v", got)
	}
	c := []float64{8, 6, 4, 2}
	if got := PearsonCorr(a, c); !almostEq(got, -1, 1e-12) {
		t.Errorf("perfect anticorr = %v", got)
	}
	if got := PearsonCorr(a, []float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("zero-variance corr = %v", got)
	}
}

// Ranks returns the fractional ranks of v (ties averaged), 1-based; with
// SpearmanCorr, a test helper: no shipped code ranks.
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

func TestRanksWithTies(t *testing.T) {
	r := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", r, want)
		}
	}
}

func TestSpearmanCorrMonotone(t *testing.T) {
	// A monotone nonlinear map preserves Spearman correlation exactly.
	a := []float64{1, 2, 3, 4, 5}
	b := make([]float64, len(a))
	for i, x := range a {
		b[i] = math.Exp(x)
	}
	if got := SpearmanCorr(a, b); !almostEq(got, 1, 1e-12) {
		t.Errorf("Spearman = %v, want 1", got)
	}
}
