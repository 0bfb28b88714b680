package mlm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/factor"
	"repro/internal/fmatrix"
	"repro/internal/mat"
)

func TestFitLinearRecoversCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 200
	x := mat.New(n, 3)
	y := make([]float64, n)
	want := []float64{2, -1, 0.5}
	for i := 0; i < n; i++ {
		x.Set(i, 0, 1)
		x.Set(i, 1, rng.NormFloat64())
		x.Set(i, 2, rng.NormFloat64())
		y[i] = want[0]*x.At(i, 0) + want[1]*x.At(i, 1) + want[2]*x.At(i, 2) + rng.NormFloat64()*0.01
	}
	l, err := FitLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if math.Abs(l.Beta[j]-want[j]) > 0.01 {
			t.Errorf("beta[%d] = %v, want %v", j, l.Beta[j], want[j])
		}
	}
	if l.AIC() >= 0 {
		// Tiny noise → strongly negative AIC; just sanity-check finiteness.
		t.Logf("AIC = %v", l.AIC())
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear(mat.New(2, 1), []float64{1}); err == nil {
		t.Error("expected shape error")
	}
	if _, err := FitLinear(mat.New(0, 0), nil); err == nil {
		t.Error("expected empty design error")
	}
}

// clusteredData generates G clusters of size each, with cluster-specific
// intercept shifts — the regime multi-level models are designed for.
func clusteredData(rng *rand.Rand, G, size int) (*mat.Matrix, []float64, []int, []float64) {
	n := G * size
	x := mat.New(n, 2)
	y := make([]float64, n)
	starts := make([]int, G)
	shifts := make([]float64, G)
	for g := 0; g < G; g++ {
		starts[g] = g * size
		shifts[g] = rng.NormFloat64() * 5
		for j := 0; j < size; j++ {
			i := g*size + j
			f := rng.NormFloat64()
			x.Set(i, 0, 1)
			x.Set(i, 1, f)
			y[i] = 3 + 2*f + shifts[g] + rng.NormFloat64()*0.3
		}
	}
	return x, y, starts, shifts
}

func TestFitEMCapturesClusterEffects(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, y, starts, shifts := clusteredData(rng, 12, 25)
	d, err := NewDense(x, starts)
	if err != nil {
		t.Fatal(err)
	}
	model, err := FitEMZ(d, d, y, Options{Iterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	// The fitted values should track y much better than OLS.
	fitted := model.Fitted(d, d)
	var mseEM float64
	for i := range y {
		dlt := fitted[i] - y[i]
		mseEM += dlt * dlt
	}
	mseEM /= float64(len(y))
	l, _ := FitLinear(x, y)
	lf := l.Fitted(x)
	var mseOLS float64
	for i := range y {
		dlt := lf[i] - y[i]
		mseOLS += dlt * dlt
	}
	mseOLS /= float64(len(y))
	if mseEM > mseOLS/4 {
		t.Errorf("EM mse %v not much better than OLS mse %v", mseEM, mseOLS)
	}
	// Random intercepts should correlate strongly with the true shifts.
	b0 := make([]float64, len(model.B))
	for g := range model.B {
		b0[g] = model.B[g][0]
	}
	if corr := mat.PearsonCorr(b0, shifts); corr < 0.95 {
		t.Errorf("random intercept corr = %v, want > 0.95", corr)
	}
}

func TestFitEMErrors(t *testing.T) {
	d, _ := NewDense(mat.New(4, 1), []int{0, 2})
	if _, err := FitEMZ(d, d, []float64{1}, Options{}); err == nil {
		t.Error("expected length error")
	}
	if _, err := NewDense(mat.New(4, 1), []int{1}); err == nil {
		t.Error("expected starts-begin-at-0 error")
	}
	if _, err := NewDense(mat.New(4, 1), []int{0, 2, 2}); err == nil {
		t.Error("expected non-increasing starts error")
	}
	if _, err := NewDense(mat.New(4, 1), []int{0, 9}); err == nil {
		t.Error("expected out-of-range start error")
	}
}

// buildFactorMatrix builds a small random factorised matrix and y.
func buildFactorMatrix(r *rand.Rand) (*fmatrix.Matrix, []float64) {
	// Two hierarchies: one flat (4 values), one 2-level (3 parents, 2-3
	// children each).
	var paths [][]string
	for i := 0; i < 4; i++ {
		paths = append(paths, []string{fmt.Sprintf("t%d", i)})
	}
	src1, err := factor.NewSource("time", []string{"T"}, paths)
	if err != nil {
		panic(err)
	}
	var geo [][]string
	leaf := 0
	for p := 0; p < 3; p++ {
		kids := 2 + r.Intn(2)
		for k := 0; k < kids; k++ {
			geo = append(geo, []string{fmt.Sprintf("d%d", p), fmt.Sprintf("v%d", leaf)})
			leaf++
		}
	}
	src2, err := factor.NewSource("geo", []string{"D", "V"}, geo)
	if err != nil {
		panic(err)
	}
	f, err := factor.New([]*factor.Source{src1, src2}, []int{1, 2})
	if err != nil {
		panic(err)
	}
	var cols []fmatrix.Column
	for ai := 0; ai < f.NumAttrs(); ai++ {
		vals := f.CountVals(ai)
		fv := make([]float64, len(vals))
		for i := range fv {
			fv[i] = r.NormFloat64()
		}
		cols = append(cols, fmatrix.Column{Name: fmt.Sprintf("c%d", ai), Attr: ai, Vals: fv})
	}
	// Intercept.
	ivals := f.CountVals(0)
	ones := make([]float64, len(ivals))
	for i := range ones {
		ones[i] = 1
	}
	cols = append([]fmatrix.Column{{Name: "intercept", Attr: 0, Vals: ones}}, cols...)
	m, err := fmatrix.New(f, cols)
	if err != nil {
		panic(err)
	}
	n, _ := f.RowCount()
	y := make([]float64, n)
	for i := range y {
		y[i] = r.NormFloat64() * 3
	}
	return m, y
}

// The factorised and dense backends must produce identical EM trajectories.
func TestEMFactorisedMatchesDense(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		fm, y := buildFactorMatrix(r)
		fb, err := NewFactorised(fm)
		if err != nil {
			t.Fatal(err)
		}
		x, err := fm.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		// Dense cluster starts from the factorised partition.
		starts := make([]int, fb.NumClusters())
		for i := range starts {
			s, _ := fb.ClusterRows(i)
			starts[i] = s
		}
		db, err := NewDense(x, starts)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Iterations: 8}
		mf, err := FitEMZ(fb, fb, y, opts)
		if err != nil {
			t.Fatal(err)
		}
		md, err := FitEMZ(db, db, y, opts)
		if err != nil {
			t.Fatal(err)
		}
		for j := range mf.Beta {
			if math.Abs(mf.Beta[j]-md.Beta[j]) > 1e-6 {
				t.Fatalf("trial %d: beta[%d] factorised %v dense %v", trial, j, mf.Beta[j], md.Beta[j])
			}
		}
		if math.Abs(mf.Sigma2-md.Sigma2) > 1e-6*(1+md.Sigma2) {
			t.Fatalf("trial %d: sigma2 factorised %v dense %v", trial, mf.Sigma2, md.Sigma2)
		}
		for g := range mf.B {
			for j := range mf.B[g] {
				if math.Abs(mf.B[g][j]-md.B[g][j]) > 1e-6 {
					t.Fatalf("trial %d: b[%d][%d] mismatch", trial, g, j)
				}
			}
		}
		// Log-likelihoods agree too.
		if math.Abs(mf.LogLik(fb, fb, y)-md.LogLik(db, db, y)) > 1e-4 {
			t.Fatalf("trial %d: loglik mismatch %v vs %v", trial, mf.LogLik(fb, fb, y), md.LogLik(db, db, y))
		}
	}
}

// LogLik via Woodbury must match the direct dense-covariance computation.
func TestLogLikMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y, starts, _ := clusteredData(rng, 4, 6)
	d, _ := NewDense(x, starts)
	model, err := FitEMZ(d, d, y, Options{Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	got := model.LogLik(d, d, y)
	// Direct: per cluster build V = XΣXᵀ + σ²I and evaluate the Gaussian.
	xb := d.MulVec(model.Beta)
	var want float64
	for i := 0; i < d.NumClusters(); i++ {
		start, cn := d.ClusterRows(i)
		sub := mat.New(cn, x.Cols)
		copy(sub.Data, x.Data[start*x.Cols:(start+cn)*x.Cols])
		v := sub.Mul(model.Sigma).Mul(sub.T()).Add(mat.Identity(cn).Scale(model.Sigma2))
		vinv, err := v.Inverse()
		if err != nil {
			t.Fatal(err)
		}
		r := make([]float64, cn)
		for j := 0; j < cn; j++ {
			r[j] = y[start+j] - xb[start+j]
		}
		quad := mat.Dot(r, vinv.MulVec(r))
		want += -0.5 * (float64(cn)*math.Log(2*math.Pi) + math.Log(v.Det()) + quad)
	}
	if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
		t.Errorf("LogLik = %v, direct = %v", got, want)
	}
}

func TestAICPrefersMultiLevelOnClusteredData(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x, y, starts, _ := clusteredData(rng, 15, 20)
	d, _ := NewDense(x, starts)
	model, err := FitEMZ(d, d, y, Options{Iterations: 20})
	if err != nil {
		t.Fatal(err)
	}
	l, err := FitLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if model.AIC(d, d, y) >= l.AIC() {
		t.Errorf("multi-level AIC %v should beat linear AIC %v on clustered data", model.AIC(d, d, y), l.AIC())
	}
}

func TestClusterOf(t *testing.T) {
	m := &MultiLevel{Starts: []int{0, 5, 9}}
	cases := map[int]int{0: 0, 4: 0, 5: 1, 8: 1, 9: 2, 20: 2}
	for row, want := range cases {
		if got := m.ClusterOf(row); got != want {
			t.Errorf("ClusterOf(%d) = %d, want %d", row, got, want)
		}
	}
}

func TestDenseClusterOps(t *testing.T) {
	x := mat.FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	d, err := NewDense(x, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumClusters() != 2 {
		t.Fatal("NumClusters wrong")
	}
	s, n := d.ClusterRows(0)
	if s != 0 || n != 2 {
		t.Errorf("cluster 0 rows = %d,%d", s, n)
	}
	c1 := d.Cluster(1)
	s, n = d.ClusterRows(1)
	if s != 2 || n != 1 {
		t.Errorf("cluster 1 rows = %d,%d", s, n)
	}
	got := c1.MulVec([]float64{1, 1})
	if len(got) != 1 || got[0] != 11 {
		t.Errorf("cluster MulVec = %v", got)
	}
}
