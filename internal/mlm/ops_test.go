package mlm

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mat"
)

// countingBackend counts the whole-matrix operators EM asks a backend for
// (X·w in either form counts as a MulVec).
type countingBackend struct {
	Backend
	gram, mulVec, tMulVec, colSums int
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

func (c *countingBackend) ClusterColSums() *mat.Matrix {
	c.colSums++
	return c.Backend.ClusterColSums()
}

// A q = 1 fit asks the X backend for one Gram, one X·w, two Xᵀv and one
// ClusterColSums whether it runs 1 iteration or 80: the rows are read at
// set-up and the loop runs on the cluster table. The general loop asks for
// I + 1 X·w and Xᵀv — its residual is carried from the M-step into the next
// E-step, not recomputed — and never for the table.
func TestFitEMZOperatorCounts(t *testing.T) {
	fm, yf := buildFactorMatrix(rand.New(rand.NewSource(4)))
	fb, db := denseTwin(t, fm)
	for _, bk := range []struct {
		name string
		b    Backend
	}{{"dense", db}, {"factorised", fb}} {
		for _, iters := range []int{1, 7, 20, 80} {
			for _, tc := range []struct {
				name string
				loop func(*emStart) *MultiLevel
				z    func(bx Backend) Backend
				want [4]int // Gram, MulVec, TMulVec, ClusterColSums
			}{
				{"cluster-level", emClusterLevel, func(bx Backend) Backend { return NewInterceptZ(bx) }, [4]int{1, 1, 2, 1}},
				{"general q=1", emGeneral, func(bx Backend) Backend { return NewInterceptZ(bx) }, [4]int{1, iters + 1, iters + 1, 0}},
				{"general Z=X", emGeneral, func(Backend) Backend { return bk.b }, [4]int{1, iters + 1, iters + 1, 0}},
			} {
				bx := &countingBackend{Backend: bk.b}
				if _, err := fitEM(bx, tc.z(bx), yf, Options{Iterations: iters}, tc.loop); err != nil {
					t.Fatalf("%s/%s: %v", bk.name, tc.name, err)
				}
				if got := [4]int{bx.gram, bx.mulVec, bx.tMulVec, bx.colSums}; got != tc.want {
					t.Errorf("%s/%s, %d iterations: Gram, MulVec, TMulVec, ClusterColSums = %v, want %v",
						bk.name, tc.name, iters, got, tc.want)
				}
			}
		}
	}
}

// The cluster-level loop allocates nothing per iteration, per cluster or per
// size class: a fit makes the same number of allocations for 5 iterations as
// for 80, for 10 clusters as for 1,000, and for clusters of one size as for
// clusters of 1, 2, 3, … rows (7 size classes at 30 rows, 76 at 3,000). The
// tables it builds are a fixed number of them, their sizes aside.
func TestScalarEMAllocationsIndependentOfClusters(t *testing.T) {
	allocs := func(G, iters int, ragged bool) float64 {
		rng := rand.New(rand.NewSource(5))
		x, y, starts, _ := clusteredData(rng, G, 3)
		if ragged {
			starts = starts[:0]
			for s, size := 0, 1; s < len(y); s, size = s+size, size+1 {
				starts = append(starts, s)
			}
		}
		d, err := NewDense(x, starts)
		if err != nil {
			t.Fatal(err)
		}
		iz := NewInterceptZ(d)
		return testing.AllocsPerRun(5, func() {
			if _, err := FitEMZ(d, iz, y, Options{Iterations: iters}); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := allocs(10, 5, false)
	for _, c := range []struct {
		G, iters int
		ragged   bool
	}{{10, 80, false}, {1000, 5, false}, {1000, 80, false}, {10, 5, true}, {1000, 5, true}, {1000, 80, true}} {
		// A stray runtime allocation moves a count by a fraction; a
		// per-iteration, per-cluster or per-class term would move it by tens.
		if got := allocs(c.G, c.iters, c.ragged); math.Abs(got-base) > 0.5 {
			t.Errorf("%d×3 rows, %d iterations, ragged %v: %v allocations per fit, %v with 10 equal clusters and 5 iterations",
				c.G, c.iters, c.ragged, got, base)
		}
	}
	if base > 40 {
		t.Errorf("%v allocations per fit, want at most 40", base)
	}
}

// ClusterColSums of the factorised backend equals that of its materialized
// dense twin bit for bit on every golden design (their column values sit on a
// half-integer grid, so each sum is exact; fmatrix's property test covers
// random shapes), and the table the cluster-level loop assembles through
// ClusterOps for the intercept column cut out of X is that same table.
func TestClusterColSumsFactorisedMatchesDense(t *testing.T) {
	for _, s := range goldenShapes {
		fm, y := s.build(t)
		fb, db := denseTwin(t, fm)
		want := db.ClusterColSums()
		if got := fb.ClusterColSums(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: factorised ClusterColSums %v, dense %v", s.name, got.Data, want.Data)
		}
		for _, bx := range []Backend{db, fb} {
			sub0 := zDesigns(t, bx, db.X)[1].bz
			if c, _, _ := (&emStart{bx: bx, bz: sub0, starts: db.starts, sizes: NewInterceptZ(db).clusterN, r: y}).clusterTable(); !reflect.DeepEqual(c, want) {
				t.Errorf("%s: %T table through ClusterOps %v, ClusterColSums %v", s.name, bx, c.Data, want.Data)
			}
		}
	}
}
