package mlm

import (
	"fmt"
	"testing"

	"repro/internal/mat"
)

// The two loops are the same estimator: on every q = 1 input of the tolerance
// harness the general loop meets the bound the cluster-level loop is held to
// (TestKernelWithinToleranceOfReference), against the same reference. They
// agreed bit for bit only while both made the same passes over the rows.
func TestScalarFastPathMatchesGeneral(t *testing.T) {
	const iters = 7
	for _, c := range harnessCases(t) {
		fb, db := denseTwin(t, c.fm)
		lambda := harnessRidge(db.Gram())
		for _, bk := range []struct {
			name string
			bx   Backend
		}{{"dense", db}, {"factorised", fb}} {
			for _, zd := range zDesigns(t, bk.bx, db.X) {
				label := fmt.Sprintf("%s/%s/%s", c.name, bk.name, zd.name)
				ref := referenceEM(db.X, db.starts, zd.z, c.y, iters, lambda)
				if ref.sigma2Start > 1e10 {
					// Outside the general loop's stated range (package
					// comment): its pivots of zᵢᵀzᵢ/σ² + Σ⁻¹ fall under
					// mat.Inverse's absolute 1e-12 and get ridged.
					continue
				}
				m, err := fitEM(bk.bx, zd.bz, c.y, Options{Iterations: iters}, emGeneral)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				d := deviate(c, db.X, ref, m, m.Fitted(bk.bx, zd.bz))
				if bound := harnessBound(ref); !(d.max() <= bound) {
					t.Errorf("%s: general loop deviates %+v, bound %.1e", label, d, bound)
				}
			}
		}
	}
}

// A q = 1 fit is equivariant in y's units: FitEMZ(X, c·y) is c·FitEMZ(X, y) in
// β, b̂ and the fitted values and c² times it in Σ and σ², to the harness bound,
// for c = 1e-9 and 1e9 — the variance floors are relative to σ²₀, not 1e-12
// whatever the measure's scale. Constant y is left out: with no residual
// variance to be relative to, Σ and σ² sit at the absolute floor.
func TestFitScalesWithY(t *testing.T) {
	opts := Options{Iterations: 7}
	for _, c := range harnessCases(t) {
		if c.noVariance {
			continue
		}
		fb, db := denseTwin(t, c.fm)
		for _, bk := range []struct {
			name string
			bx   Backend
		}{{"dense", db}, {"factorised", fb}} {
			for _, zd := range zDesigns(t, bk.bx, db.X) {
				base, err := FitEMZ(bk.bx, zd.bz, c.y, opts)
				if err != nil {
					t.Fatal(err)
				}
				baseFitted := base.Fitted(bk.bx, zd.bz)
				// One reference iteration, for σ²₀ (deviate's scale for Σ and
				// σ²) and the condition number in the bound.
				ref := referenceEM(db.X, db.starts, zd.z, c.y, 1, harnessRidge(db.Gram()))
				for _, k := range []float64{1e-9, 1e9} {
					scaled := harnessCase{name: c.name, fm: c.fm, y: mat.ScaleVec(c.y, k)}
					want := refFit{
						beta:   mat.ScaleVec(base.Beta, k),
						fitted: mat.ScaleVec(baseFitted, k),
						sigma:  base.Sigma.At(0, 0) * k * k,
						sigma2: base.Sigma2 * k * k,

						sigma2Start: ref.sigma2Start * k * k,
					}
					for _, b := range base.B {
						want.b = append(want.b, b[0]*k)
					}
					m, err := FitEMZ(bk.bx, zd.bz, scaled.y, opts)
					if err != nil {
						t.Fatal(err)
					}
					d := deviate(scaled, db.X, want, m, m.Fitted(bk.bx, zd.bz))
					if bound := harnessBound(ref); !(d.max() <= bound) {
						t.Errorf("%s/%s/%s × %g: %+v from %g × the unscaled fit, bound %.1e", c.name, bk.name, zd.name, k, d, k, bound)
					}
				}
			}
		}
	}
}
