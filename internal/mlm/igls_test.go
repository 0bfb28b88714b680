package mlm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

func TestIGLSRecoversClusterStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x, y, starts, shifts := clusteredData(rng, 15, 20)
	d, err := NewDense(x, starts)
	if err != nil {
		t.Fatal(err)
	}
	model, err := FitIGLS(d, NewInterceptZ(d), y, Options{Iterations: 15})
	if err != nil {
		t.Fatal(err)
	}
	// Fixed effects near the truth (3 and 2 with cluster noise on the
	// intercept).
	if math.Abs(model.Beta[1]-2) > 0.1 {
		t.Errorf("slope = %v, want ≈2", model.Beta[1])
	}
	// Random intercepts track the true shifts.
	b0 := make([]float64, len(model.B))
	for g := range model.B {
		b0[g] = model.B[g][0]
	}
	if corr := mat.PearsonCorr(b0, shifts); corr < 0.95 {
		t.Errorf("intercept corr = %v, want > 0.95", corr)
	}
	// Variance components: residual σ ≈ 0.3, intercept σ_b ≈ 5.
	if model.Sigma2 < 0.05 || model.Sigma2 > 0.2 {
		t.Errorf("sigma2 = %v, want ≈0.09", model.Sigma2)
	}
	if sb := model.Sigma.At(0, 0); sb < 5 || sb > 60 {
		t.Errorf("sigma_b = %v, want ≈25", sb)
	}
}

// IGLS and EM are different estimators of the same model; on well-separated
// data their fixed effects and predictions must agree closely.
func TestIGLSAgreesWithEM(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x, y, starts, _ := clusteredData(rng, 12, 25)
	d, _ := NewDense(x, starts)
	iz := NewInterceptZ(d)
	em, err := FitEMZ(d, iz, y, Options{Iterations: 40})
	if err != nil {
		t.Fatal(err)
	}
	igls, err := FitIGLS(d, iz, y, Options{Iterations: 40})
	if err != nil {
		t.Fatal(err)
	}
	for j := range em.Beta {
		if math.Abs(em.Beta[j]-igls.Beta[j]) > 0.05*(1+math.Abs(em.Beta[j])) {
			t.Errorf("beta[%d]: EM %v IGLS %v", j, em.Beta[j], igls.Beta[j])
		}
	}
	fe := em.Fitted(d, iz)
	fi := igls.Fitted(d, iz)
	var mse float64
	for i := range fe {
		dlt := fe[i] - fi[i]
		mse += dlt * dlt
	}
	mse /= float64(len(fe))
	if mse > 0.05 {
		t.Errorf("EM vs IGLS fitted mse = %v", mse)
	}
}

func TestIGLSErrors(t *testing.T) {
	d, _ := NewDense(mat.FromRows([][]float64{{1, 0}, {1, 1}}), []int{0})
	if _, err := FitIGLS(d, d, []float64{1, 2}, Options{}); err == nil {
		t.Error("expected error for multi-column Z")
	}
	iz := NewInterceptZ(d)
	if _, err := FitIGLS(d, iz, []float64{1}, Options{}); err == nil {
		t.Error("expected length error")
	}
}

// IGLS must run identically over the factorised backend.
func TestIGLSOverFactorised(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	fm, y := buildFactorMatrix(rng)
	fb, err := NewFactorised(fm)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := FitIGLS(fb, NewInterceptZ(fb), y, Options{Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	x, _ := fm.Materialize()
	starts := make([]int, fb.NumClusters())
	for i := range starts {
		starts[i], _ = fb.ClusterRows(i)
	}
	db, _ := NewDense(x, starts)
	m2, err := FitIGLS(db, NewInterceptZ(db), y, Options{Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	for j := range m1.Beta {
		if math.Abs(m1.Beta[j]-m2.Beta[j]) > 1e-6*(1+math.Abs(m2.Beta[j])) {
			t.Fatalf("beta[%d] factorised %v dense %v", j, m1.Beta[j], m2.Beta[j])
		}
	}
}
