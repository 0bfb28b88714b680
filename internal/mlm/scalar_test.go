package mlm

import (
	"fmt"
	"testing"
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
