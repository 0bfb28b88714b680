package mlm

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// Options configures EM training.
type Options struct {
	// Iterations is the number of EM iterations (the paper's experiments
	// use 20).
	Iterations int
	// Ridge is the regularization added to gram matrices before inversion
	// to guard against singular designs.
	Ridge float64
}

// disableScalarFastPath forces the general matrix EM path even for q = 1
// designs; tests flip it to assert the two paths agree.
var disableScalarFastPath = false

func (o Options) withDefaults() Options {
	if o.Iterations <= 0 {
		o.Iterations = 20
	}
	if o.Ridge <= 0 {
		o.Ridge = 1e-8
	}
	return o
}

// MultiLevel is a fitted multi-level linear model (Equation 6):
// yᵢ = Xᵢβ + Zᵢbᵢ + εᵢ with bᵢ ~ N(0, Σ) and εᵢ ~ N(0, σ²I). By default the
// random-effects design is Z = X; FitEMZ accepts a separate (typically
// column-subset) Z backend, the §3.3.4 tuning.
type MultiLevel struct {
	Beta   []float64   // global (fixed-effect) coefficients
	B      [][]float64 // per-cluster random-effect coefficients (Z columns)
	Sigma  *mat.Matrix // random-effect covariance Σ
	Sigma2 float64     // residual variance σ²
	Starts []int       // cluster start rows (cluster i covers Starts[i]..)
	N      int         // number of rows
}

// ClusterOf returns the cluster index containing row r.
func (m *MultiLevel) ClusterOf(r int) int {
	lo, hi := 0, len(m.Starts)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if m.Starts[mid] <= r {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// FitEMZ trains the multi-level model by maximum likelihood using the EM
// updates of Appendix D. bx supplies the fixed-effects design X and bz the
// random-effects design Z (usually a column subset of X, §3.3.4); both must
// partition rows into the same clusters. The backends supply every matrix
// operation, so the same code path runs over dense or factorised
// representations.
//
// A fit of I iterations asks bx for one Gram, I+1 X·β and I+1 Xᵀv: the
// residual r = y − Xβ that closes an M-step (Equation 14) is the one the next
// E-step starts from, so it is carried over instead of recomputed, and the
// n-vectors (r, Zb̂, y − Zb̂) are allocated once per fit.
func FitEMZ(bx, bz Backend, y []float64, opts Options) (*MultiLevel, error) {
	opts = opts.withDefaults()
	n, m := bx.NumRows(), bx.NumCols()
	q := bz.NumCols()
	if len(y) != n {
		return nil, fmt.Errorf("mlm: y has %d values, X has %d rows", len(y), n)
	}
	if n == 0 || m == 0 || q == 0 {
		return nil, fmt.Errorf("mlm: empty design (X %dx%d, Z cols %d)", n, m, q)
	}
	if bz.NumRows() != n || bz.NumClusters() != bx.NumClusters() {
		return nil, fmt.Errorf("mlm: Z backend shape mismatch (%d rows, %d clusters; want %d, %d)",
			bz.NumRows(), bz.NumClusters(), n, bx.NumClusters())
	}
	G := bx.NumClusters()
	starts, sizes := clusterExtents(bz)
	covered := 0
	for _, cn := range sizes {
		covered += cn
	}
	if covered != n {
		return nil, fmt.Errorf("mlm: Z clusters cover %d of %d rows", covered, n)
	}

	// XᵀX once. Only the Z-side cluster operators are needed by the EM
	// updates (the X-side appears through the whole-matrix operations).
	gramInv := bx.Gram().RidgeInverse(opts.Ridge)

	// Initialize β by (ridge) OLS, σ² by the residual variance and Σ by a
	// scaled identity.
	beta := gramInv.MulVec(bx.TMulVec(y))
	r := make([]float64, n)
	residual(r, bx, beta, y)
	sigma2 := mat.Dot(r, r) / float64(n)
	if sigma2 < 1e-12 {
		sigma2 = 1e-12
	}

	model := &MultiLevel{Starts: starts, N: n}
	if q == 1 && !disableScalarFastPath {
		// With a single random-effect column (e.g. random intercepts) every
		// per-cluster matrix op degenerates to scalar arithmetic.
		fitEMScalarZ(model, bx, bz, y, opts, gramInv, sizes, beta, r, sigma2)
		return model, nil
	}

	zClusters := make([]ClusterOps, G)
	zClusterGram := make([]*mat.Matrix, G) // ZᵢᵀZᵢ
	for i := range zClusters {
		zClusters[i] = bz.Cluster(i)
		zClusterGram[i] = zClusters[i].Gram()
	}
	sigma := mat.Identity(q).Scale(sigma2)
	bi := make([][]float64, G)
	ebb := make([]*mat.Matrix, G) // E[bᵢbᵢᵀ] = Vᵢ + μᵢμᵢᵀ
	zb := make([]float64, n)
	ymzb := make([]float64, n)

	for iter := 0; iter < opts.Iterations; iter++ {
		// E-step (Equations 8–11), from the carried residual r = y − Xβ.
		sigmaInv := sigma.RidgeInverse(opts.Ridge)
		for i, start := range starts {
			vi := zClusterGram[i].Scale(1 / sigma2).Add(sigmaInv).RidgeInverse(opts.Ridge)
			ztr := zClusters[i].TMulVec(r[start : start+sizes[i]])
			mu := mat.ScaleVec(vi.MulVec(ztr), 1/sigma2)
			bi[i] = mu
			muMat := mat.ColVec(mu)
			ebb[i] = vi.Add(muMat.Mul(muMat.T()))
		}

		// M-step (Equations 12–14).
		// Z·b̂ by vertical concatenation (the Appendix D sparsity trick).
		for i, start := range starts {
			copy(zb[start:start+sizes[i]], zClusters[i].MulVec(bi[i]))
		}
		// β = (XᵀX)⁻¹ · (Xᵀ(y - Zb̂)), multiplied in the Appendix D order to
		// avoid the m×n intermediate.
		for j := range ymzb {
			ymzb[j] = y[j] - zb[j]
		}
		beta = gramInv.MulVec(bx.TMulVec(ymzb))
		// Σ = (1/G) Σᵢ E[bᵢbᵢᵀ].
		sigma = mat.New(q, q)
		for i := 0; i < G; i++ {
			sigma.AddInPlace(ebb[i])
		}
		sigma = sigma.Scale(1 / float64(G))
		// σ² per Equation 14.
		residual(r, bx, beta, y)
		s := mat.Dot(r, r)
		for i := 0; i < G; i++ {
			s += zClusterGram[i].Mul(ebb[i]).Trace()
		}
		s -= 2 * mat.Dot(r, zb)
		sigma2 = s / float64(n)
		if sigma2 < 1e-12 || math.IsNaN(sigma2) {
			sigma2 = 1e-12
		}
	}

	model.Beta, model.B, model.Sigma, model.Sigma2 = beta, bi, sigma, sigma2
	return model, nil
}

// clusterExtents reads every cluster's row range [start, start+size) once.
func clusterExtents(b Backend) (starts, sizes []int) {
	starts, sizes = make([]int, b.NumClusters()), make([]int, b.NumClusters())
	for i := range starts {
		starts[i], sizes[i] = b.ClusterRows(i)
	}
	return starts, sizes
}

// residual writes y − Xβ into r.
func residual(r []float64, bx Backend, beta, y []float64) {
	bx.MulVecTo(r, beta)
	for i, xb := range r {
		r[i] = y[i] - xb
	}
}

// scalarZ prepares a single-column random-effects design for scalar
// arithmetic: the per-cluster grams zᵢᵀzᵢ and the two per-cluster operators,
// dot (zᵢᵀr) and fill (dst = zᵢ·b). The intercept design has closed forms — a
// cluster's size, the sum of r left to right, a constant fill — and is served
// from the cluster extents alone; any other column goes through its
// ClusterOps, built once here.
func scalarZ(bz Backend, sizes []int) (zg []float64, dot func(i int, r []float64) float64, fill func(i int, b float64, dst []float64)) {
	zg = make([]float64, len(sizes))
	if _, ok := bz.(*InterceptZ); ok {
		for i, cn := range sizes {
			zg[i] = float64(cn)
		}
		dot = func(_ int, r []float64) float64 { return mat.Sum(r) }
		fill = func(_ int, b float64, dst []float64) {
			for j := range dst {
				dst[j] = b
			}
		}
		return zg, dot, fill
	}
	ops := make([]ClusterOps, len(sizes))
	for i := range ops {
		ops[i] = bz.Cluster(i)
		zg[i] = ops[i].Gram().At(0, 0)
	}
	w := make([]float64, 1)
	dot = func(i int, r []float64) float64 { return ops[i].TMulVec(r)[0] }
	fill = func(i int, b float64, dst []float64) {
		w[0] = b
		copy(dst, ops[i].MulVec(w))
	}
	return zg, dot, fill
}

// fitEMScalarZ runs the EM iterations for the q = 1 random-effects design
// with scalar per-cluster arithmetic and fills in the model. It mirrors
// FitEMZ's general loop exactly (the tests assert the two paths agree on
// q = 1 inputs); r arrives as the residual of the initial β.
func fitEMScalarZ(model *MultiLevel, bx, bz Backend, y []float64, opts Options,
	gramInv *mat.Matrix, sizes []int, beta, r []float64, sigma2 float64) {

	n, G := len(y), len(sizes)
	starts := model.Starts
	zg, dotZ, fillZ := scalarZ(bz, sizes)
	sigma := sigma2 // Σ is a scalar variance
	bi := make([]float64, G)
	ebb := make([]float64, G)
	zb := make([]float64, n)
	ymzb := make([]float64, n)

	for iter := 0; iter < opts.Iterations; iter++ {
		// E-step.
		sigmaInv := 1 / math.Max(sigma, 1e-12)
		for i, start := range starts {
			vi := 1 / (zg[i]/sigma2 + sigmaInv)
			mu := vi * dotZ(i, r[start:start+sizes[i]]) / sigma2
			bi[i] = mu
			ebb[i] = vi + mu*mu
		}
		// M-step.
		for i, start := range starts {
			fillZ(i, bi[i], zb[start:start+sizes[i]])
		}
		for j := range ymzb {
			ymzb[j] = y[j] - zb[j]
		}
		beta = gramInv.MulVec(bx.TMulVec(ymzb))
		var sAcc float64
		for i := 0; i < G; i++ {
			sAcc += ebb[i]
		}
		sigma = sAcc / float64(G)
		residual(r, bx, beta, y)
		s := mat.Dot(r, r)
		for i := 0; i < G; i++ {
			s += zg[i] * ebb[i]
		}
		s -= 2 * mat.Dot(r, zb)
		sigma2 = s / float64(n)
		if sigma2 < 1e-12 || math.IsNaN(sigma2) {
			sigma2 = 1e-12
		}
	}

	b := make([][]float64, G)
	for i := range b {
		b[i] = bi[i : i+1 : i+1]
	}
	model.Beta, model.B, model.Sigma, model.Sigma2 = beta, b, mat.FromRows([][]float64{{sigma}}), sigma2
}

// Fitted returns the conditional fitted values Xβ + Zb̂ for every row. With
// the default Z = X design pass the same backend twice.
func (m *MultiLevel) Fitted(bx, bz Backend) []float64 {
	out := bx.MulVec(m.Beta)
	_, intercept := bz.(*InterceptZ)
	for i := 0; i < bz.NumClusters(); i++ {
		start, cn := bz.ClusterRows(i)
		rows := out[start : start+cn]
		if intercept {
			for j := range rows {
				rows[j] += m.B[i][0]
			}
			continue
		}
		for j, v := range bz.Cluster(i).MulVec(m.B[i]) {
			rows[j] += v
		}
	}
	return out
}

// LogLik returns the marginal log-likelihood of y under the fitted model:
// yᵢ ~ N(Xᵢβ, ZᵢΣZᵢᵀ + σ²I), evaluated per cluster with the Woodbury
// identity and the matrix determinant lemma so only q×q inverses are needed.
func (m *MultiLevel) LogLik(bx, bz Backend, y []float64) float64 {
	xb := bx.MulVec(m.Beta)
	r := mat.SubVec(y, xb)
	var ll float64
	q := bz.NumCols()
	for i := 0; i < bz.NumClusters(); i++ {
		c := bz.Cluster(i)
		start, cn := bz.ClusterRows(i)
		ri := r[start : start+cn]
		gramI := c.Gram()
		// ln det(σ²I + ZΣZᵀ) = cn·ln σ² + ln det(I_q + (ZᵀZ)Σ/σ²).
		inner := mat.Identity(q).Add(gramI.Mul(m.Sigma).Scale(1 / m.Sigma2))
		det := inner.Det()
		if det <= 0 {
			det = 1e-300
		}
		logDet := float64(cn)*math.Log(m.Sigma2) + math.Log(det)
		// Quadratic form via Woodbury:
		// rᵀ(σ²I + ZΣZᵀ)⁻¹r = (rᵀr − rᵀZ(σ²Σ⁻¹ + ZᵀZ)⁻¹Zᵀr)/σ².
		ztr := c.TMulVec(ri)
		mid := m.Sigma.RidgeInverse(1e-10).Scale(m.Sigma2).Add(gramI).RidgeInverse(1e-10)
		quad := (mat.Dot(ri, ri) - mat.Dot(ztr, mid.MulVec(ztr))) / m.Sigma2
		ll += -0.5 * (float64(cn)*math.Log(2*math.Pi) + logDet + quad)
	}
	return ll
}

// NumParams returns the parameter count for information criteria:
// m fixed effects + q(q+1)/2 covariance terms + 1 residual variance.
func (m *MultiLevel) NumParams() int {
	k := len(m.Beta)
	q := 0
	if len(m.B) > 0 {
		q = len(m.B[0])
	}
	return k + q*(q+1)/2 + 1
}

// AIC returns the Akaike information criterion 2k − 2·loglik.
func (m *MultiLevel) AIC(bx, bz Backend, y []float64) float64 {
	return 2*float64(m.NumParams()) - 2*m.LogLik(bx, bz, y)
}
