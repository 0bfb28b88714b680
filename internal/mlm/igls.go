package mlm

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// FitIGLS fits the multi-level model by iterative generalized least squares
// (Goldstein [19]) — the §4.1 alternative to EM that Reptile's factorised
// operations equally support. Each iteration solves the GLS normal equations
// for β under the current variance components (σ²_b for the random-effect
// scale, σ² for the residual), then re-estimates the components from the
// residuals. It uses the same Backend operations as EM (gram, cluster gram,
// TMulVec, MulVec), so it runs over dense or factorised representations.
//
// The implementation targets the random-intercept design (bz must have one
// column, e.g. mlm.NewInterceptZ); the per-cluster covariance is then
// V_i = σ²I + σ²_b··Z_iZ_iᵀ and the Woodbury identity keeps every solve at
// scalar cost per cluster.
func FitIGLS(bx, bz Backend, y []float64, opts Options) (*MultiLevel, error) {
	opts = opts.withDefaults()
	n, m := bx.NumRows(), bx.NumCols()
	if len(y) != n {
		return nil, fmt.Errorf("mlm: y has %d values, X has %d rows", len(y), n)
	}
	if bz.NumCols() != 1 {
		return nil, fmt.Errorf("mlm: FitIGLS requires a single random-effect column, got %d", bz.NumCols())
	}
	if bz.NumRows() != n || bz.NumClusters() != bx.NumClusters() {
		return nil, fmt.Errorf("mlm: Z backend shape mismatch")
	}
	G := bx.NumClusters()

	gram := bx.Gram()
	gramInv := gram.RidgeInverse(opts.Ridge)
	starts, sizes := clusterExtents(bz)
	zg, dotZ, _ := scalarZ(bz, sizes)

	// Xᵢᵀzᵢ per cluster. The cluster operators of the X backend would
	// materialize Xᵢ; with zᵢ = 1 (the intercept design) Xᵢᵀzᵢ is the column
	// sums over the cluster's rows, obtained through TMulVec with an
	// indicator vector. It does not depend on the iteration, so the G
	// vectors are computed once.
	clusterXZ := make([][]float64, G)
	ind := make([]float64, n)
	for i, start := range starts {
		rows := ind[start : start+sizes[i]]
		for j := range rows {
			rows[j] = 1
		}
		clusterXZ[i] = bx.TMulVec(ind)
		for j := range rows {
			rows[j] = 0
		}
	}

	// Start from OLS.
	beta := gramInv.MulVec(bx.TMulVec(y))
	r := make([]float64, n)
	residual(r, bx, beta, y)
	sigma2 := mat.Dot(r, r) / float64(n)
	if sigma2 < 1e-12 {
		sigma2 = 1e-12
	}
	sigmaB := sigma2 / 2

	for iter := 0; iter < opts.Iterations; iter++ {
		// GLS normal equations: (XᵀV⁻¹X)β = XᵀV⁻¹y with
		// V⁻¹ = (1/σ²)(I − Σ_i w_i Z_iZ_iᵀ restricted per cluster), where
		// w_i = σ²_b / (σ² + σ²_b·g_i) by Woodbury for the intercept design.
		// Rather than materialize V⁻¹, build XᵀV⁻¹X and XᵀV⁻¹y from the
		// whole-matrix gram plus per-cluster rank-one corrections.
		xtvx := gram.Scale(1 / sigma2)
		xtvy := mat.ScaleVec(bx.TMulVec(y), 1/sigma2)
		for i, start := range starts {
			w := sigmaB / (sigma2 * (sigma2 + sigmaB*zg[i]))
			xz := clusterXZ[i]
			yz := 0.0
			for j := start; j < start+sizes[i]; j++ {
				yz += y[j]
			}
			for a := 0; a < m; a++ {
				for b := 0; b < m; b++ {
					xtvx.Data[a*m+b] -= w * xz[a] * xz[b]
				}
				xtvy[a] -= w * xz[a] * yz
			}
		}
		var err error
		beta, err = xtvx.SolveVec(xtvy)
		if err != nil {
			beta = xtvx.RidgeInverse(opts.Ridge).MulVec(xtvy)
		}

		// Variance components from the residuals: method-of-moments split
		// between the between-cluster and within-cluster variation.
		residual(r, bx, beta, y)
		var between, within float64
		for i, start := range starts {
			cn := sizes[i]
			var s float64
			for j := start; j < start+cn; j++ {
				s += r[j]
			}
			meanR := s / float64(cn)
			between += meanR * meanR
			for j := start; j < start+cn; j++ {
				d := r[j] - meanR
				within += d * d
			}
		}
		denWithin := float64(n - G)
		if denWithin < 1 {
			denWithin = 1
		}
		sigma2 = within / denWithin
		if sigma2 < 1e-12 || math.IsNaN(sigma2) {
			sigma2 = 1e-12
		}
		// E[mean residual²] = σ²_b + σ²/n_i; subtract the residual share.
		var avgInv float64
		for _, cn := range sizes {
			avgInv += 1 / float64(cn)
		}
		sigmaB = between/float64(G) - sigma2*avgInv/float64(G)
		if sigmaB < 1e-12 || math.IsNaN(sigmaB) {
			sigmaB = 1e-12
		}
	}

	// BLUP random intercepts under the final variance components.
	residual(r, bx, beta, y)
	b := make([][]float64, G)
	for i, start := range starts {
		ztr := dotZ(i, r[start:start+sizes[i]])
		b[i] = []float64{sigmaB * ztr / (sigma2 + sigmaB*zg[i])}
	}
	return &MultiLevel{
		Beta:   beta,
		B:      b,
		Sigma:  mat.FromRows([][]float64{{sigmaB}}),
		Sigma2: sigma2,
		Starts: starts,
		N:      n,
	}, nil
}
