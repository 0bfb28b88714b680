package mlm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// countingBackend counts the whole-matrix operators EM asks a backend for
// (X·w in either form counts as a MulVec).
type countingBackend struct {
	Backend
	gram, mulVec, tMulVec int
}

func (c *countingBackend) Gram() *mat.Matrix { c.gram++; return c.Backend.Gram() }

func (c *countingBackend) MulVec(w []float64) []float64 {
	c.mulVec++
	return c.Backend.MulVec(w)
}

func (c *countingBackend) MulVecTo(dst, w []float64) {
	c.mulVec++
	c.Backend.MulVecTo(dst, w)
}

func (c *countingBackend) TMulVec(v []float64) []float64 {
	c.tMulVec++
	return c.Backend.TMulVec(v)
}

// One FitEMZ of I iterations asks the X backend for one Gram, I+1 MulVec and
// I+1 TMulVec on either EM path: the residual that closes an M-step is
// carried into the next E-step, not recomputed.
func TestFitEMZOperatorCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y, starts, _ := clusteredData(rng, 9, 7)
	d, err := NewDense(x, starts)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 7
	for _, tc := range []struct {
		name    string
		general bool
		z       func(bx Backend) Backend
	}{
		{"scalar", false, func(bx Backend) Backend { return NewInterceptZ(bx) }},
		{"general q=1", true, func(bx Backend) Backend { return NewInterceptZ(bx) }},
		{"general Z=X", false, func(bx Backend) Backend { return d }},
	} {
		bx := &countingBackend{Backend: d}
		disableScalarFastPath = tc.general
		_, err := FitEMZ(bx, tc.z(bx), y, Options{Iterations: iters})
		disableScalarFastPath = false
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if bx.gram != 1 || bx.mulVec != iters+1 || bx.tMulVec != iters+1 {
			t.Errorf("%s: %d Gram, %d MulVec, %d TMulVec; want 1, %d, %d",
				tc.name, bx.gram, bx.mulVec, bx.tMulVec, iters+1, iters+1)
		}
	}
}

// The scalar path allocates a small constant per iteration — the operators'
// result vectors — and nothing per cluster: twenty more iterations cost the
// same number of allocations for 10 clusters as for 1,000.
func TestScalarEMAllocationsIndependentOfClusters(t *testing.T) {
	perIteration := func(G int) float64 {
		rng := rand.New(rand.NewSource(5))
		x, y, starts, _ := clusteredData(rng, G, 3)
		d, err := NewDense(x, starts)
		if err != nil {
			t.Fatal(err)
		}
		iz := NewInterceptZ(d)
		allocs := func(iters int) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := FitEMZ(d, iz, y, Options{Iterations: iters}); err != nil {
					t.Fatal(err)
				}
			})
		}
		return (allocs(40) - allocs(20)) / 20
	}
	few, many := perIteration(10), perIteration(1000)
	// A stray runtime allocation moves a count by 1 in 20 iterations; a
	// per-cluster term would move it by hundreds.
	if math.Abs(few-many) > 0.5 || few > 4 {
		t.Errorf("allocations per iteration: %v with 10 clusters, %v with 1,000; want equal and at most 4", few, many)
	}
}
