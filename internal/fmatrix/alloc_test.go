package fmatrix

import (
	"math/rand"
	"testing"
)

// MulVec allocates its result (and the odometer's few counters) and nothing
// per row.
func TestMulVecAllocations(t *testing.T) {
	m := randomMatrix(rand.New(rand.NewSource(3)))
	w := make([]float64, len(m.Cols))
	for i := range w {
		w[i] = float64(i + 1)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := m.MulVec(w); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("MulVec over %v rows allocates %v times, want at most 2", m.N(), allocs)
	}
}
