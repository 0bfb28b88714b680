package mlm

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// Linear is an ordinary-least-squares linear regression model — the baseline
// the multi-level model is compared against in Appendix K.
type Linear struct {
	Beta   []float64
	Sigma2 float64 // maximum-likelihood residual variance (RSS/n)
	N      int
}

// FitLinear fits y = Xβ + ε by least squares with a small ridge guard.
func FitLinear(x *mat.Matrix, y []float64) (*Linear, error) {
	if x.Rows != len(y) {
		return nil, fmt.Errorf("mlm: X has %d rows, y has %d", x.Rows, len(y))
	}
	if x.Rows == 0 || x.Cols == 0 {
		return nil, fmt.Errorf("mlm: empty design (%dx%d)", x.Rows, x.Cols)
	}
	gramInv := x.Gram().RidgeInverse(1e-8)
	beta := gramInv.MulVec(x.TMulVec(y))
	r := mat.SubVec(y, x.MulVec(beta))
	sigma2 := mat.Dot(r, r) / float64(len(y))
	if sigma2 < 1e-12 {
		sigma2 = 1e-12
	}
	return &Linear{Beta: beta, Sigma2: sigma2, N: len(y)}, nil
}

// Fitted returns Xβ for every row of x.
func (l *Linear) Fitted(x *mat.Matrix) []float64 { return x.MulVec(l.Beta) }

// LogLik returns the Gaussian log-likelihood at the ML variance estimate.
func (l *Linear) LogLik() float64 {
	n := float64(l.N)
	return -0.5 * n * (math.Log(2*math.Pi*l.Sigma2) + 1)
}

// NumParams returns the parameter count (coefficients + variance).
func (l *Linear) NumParams() int { return len(l.Beta) + 1 }

// AIC returns the Akaike information criterion 2k − 2·loglik.
func (l *Linear) AIC() float64 { return 2*float64(l.NumParams()) - 2*l.LogLik() }
