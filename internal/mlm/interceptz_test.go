package mlm

import (
	"math"
	"math/rand"
	"testing"
)

// The closed-form InterceptZ backend must behave exactly like subsetting the
// design matrix to its (constant-1) intercept column.
func TestInterceptZMatchesSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y, starts, _ := clusteredData(rng, 8, 12)
	d, err := NewDense(x, starts)
	if err != nil {
		t.Fatal(err)
	}
	zmask := make([]bool, x.Cols)
	zmask[0] = true
	sub, err := d.SubsetCols(zmask)
	if err != nil {
		t.Fatal(err)
	}
	iz := NewInterceptZ(d)

	if iz.NumRows() != sub.NumRows() || iz.NumCols() != 1 || iz.NumClusters() != sub.NumClusters() {
		t.Fatal("InterceptZ shape mismatch")
	}
	if g1, g2 := iz.Gram().At(0, 0), sub.Gram().At(0, 0); math.Abs(g1-g2) > 1e-9 {
		t.Errorf("Gram %v vs %v", g1, g2)
	}
	v := make([]float64, iz.NumRows())
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	if a, b := iz.TMulVec(v)[0], sub.TMulVec(v)[0]; math.Abs(a-b) > 1e-9 {
		t.Errorf("TMulVec %v vs %v", a, b)
	}
	mv1, mv2 := iz.MulVec([]float64{2.5}), sub.MulVec([]float64{2.5})
	for i := range mv1 {
		if math.Abs(mv1[i]-mv2[i]) > 1e-12 {
			t.Fatalf("MulVec[%d] %v vs %v", i, mv1[i], mv2[i])
		}
	}
	for c := 0; c < iz.NumClusters(); c++ {
		c1, c2 := iz.Cluster(c), sub.Cluster(c)
		s1, n1 := iz.ClusterRows(c)
		s2, n2 := sub.ClusterRows(c)
		if s1 != s2 || n1 != n2 {
			t.Fatalf("cluster %d rows (%d,%d) vs (%d,%d)", c, s1, n1, s2, n2)
		}
		if a, b := c1.Gram().At(0, 0), c2.Gram().At(0, 0); math.Abs(a-b) > 1e-9 {
			t.Fatalf("cluster %d gram %v vs %v", c, a, b)
		}
		r := make([]float64, n1)
		for i := range r {
			r[i] = rng.NormFloat64()
		}
		if a, b := c1.TMulVec(r)[0], c2.TMulVec(r)[0]; math.Abs(a-b) > 1e-9 {
			t.Fatalf("cluster %d TMulVec %v vs %v", c, a, b)
		}
	}

	// End to end: EM with InterceptZ equals EM with the subset backend.
	m1, err := FitEMZ(d, iz, y, Options{Iterations: 12})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := FitEMZ(d, sub, y, Options{Iterations: 12})
	if err != nil {
		t.Fatal(err)
	}
	for j := range m1.Beta {
		if math.Abs(m1.Beta[j]-m2.Beta[j]) > 1e-9*(1+math.Abs(m2.Beta[j])) {
			t.Fatalf("beta[%d] %v vs %v", j, m1.Beta[j], m2.Beta[j])
		}
	}
	if math.Abs(m1.Sigma2-m2.Sigma2) > 1e-9*(1+m2.Sigma2) {
		t.Fatalf("sigma2 %v vs %v", m1.Sigma2, m2.Sigma2)
	}
}

// The factorised backend also supports the intercept design.
func TestInterceptZOverFactorised(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	fm, y := buildFactorMatrix(rng)
	fb, err := NewFactorised(fm)
	if err != nil {
		t.Fatal(err)
	}
	iz := NewInterceptZ(fb)
	m1, err := FitEMZ(fb, iz, y, Options{Iterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Reference: dense over the materialized matrix with the same clusters.
	x, err := fm.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	starts := make([]int, fb.NumClusters())
	for i := range starts {
		starts[i], _ = fb.ClusterRows(i)
	}
	db, err := NewDense(x, starts)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := FitEMZ(db, NewInterceptZ(db), y, Options{Iterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	for j := range m1.Beta {
		if math.Abs(m1.Beta[j]-m2.Beta[j]) > 1e-6*(1+math.Abs(m2.Beta[j])) {
			t.Fatalf("beta[%d] factorised %v dense %v", j, m1.Beta[j], m2.Beta[j])
		}
	}
}
