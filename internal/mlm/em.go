package mlm

import (
	"fmt"
	"math"
	"slices"

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
// A single random-effect column (q = 1: random intercepts, what the engine
// fits whenever clusters are small) runs on cluster-level sufficient
// statistics: the fit asks bx for one Gram, one X·β, two Xᵀv and one table of
// per-cluster column sums whatever Options.Iterations is. Set-up folds that
// table into one set of sums per cluster-size class in O(clusters·p²), and an
// iteration costs O(classes·p²), independent of the number of clusters. q > 1
// runs Appendix D's loop as written, I + 1 X·β and Xᵀv for I iterations.
func FitEMZ(bx, bz Backend, y []float64, opts Options) (*MultiLevel, error) {
	if bz.NumCols() == 1 {
		return fitEM(bx, bz, y, opts, emClusterLevel)
	}
	return fitEM(bx, bz, y, opts, emGeneral)
}

// emStart is what either loop starts from: the validated inputs, XᵀX and its
// ridge inverse, the OLS solution β₀, its residual r₀ = y − Xβ₀ with
// ρ₀ = r₀ᵀr₀, the residual variance σ²₀ = ρ₀/n, and the floor under σ² and Σ:
// 1e-12·σ²₀, in y's own units, so that a fit of c·y is c times the fit of y;
// 1e-12 outright only when y leaves no residual but rounding (constant y).
type emStart struct {
	bx, bz        Backend
	y             []float64
	opts          Options
	starts, sizes []int
	gram, gramInv *mat.Matrix
	beta, r       []float64
	rho0, sigma2  float64
	floor         float64
}

// fitEM validates the inputs, initializes β by (ridge) OLS and σ² by the
// residual variance, and hands over to one of the two loops (the tests run
// the general one on q = 1 inputs too).
func fitEM(bx, bz Backend, y []float64, opts Options, loop func(*emStart) *MultiLevel) (*MultiLevel, error) {
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
	s := &emStart{bx: bx, bz: bz, y: y, opts: opts}
	s.starts, s.sizes = clusterExtents(bz)
	covered := 0
	for _, cn := range s.sizes {
		covered += cn
	}
	if covered != n {
		return nil, fmt.Errorf("mlm: Z clusters cover %d of %d rows", covered, n)
	}

	s.gram = bx.Gram()
	s.gramInv = s.gram.RidgeInverse(opts.Ridge)
	xty := bx.TMulVec(y)
	s.beta = s.gramInv.MulVec(xty)
	s.r = make([]float64, n)
	residual(s.r, bx, s.beta, y)
	s.rho0 = mat.Dot(s.r, s.r)
	s.floor = 1e-12 * s.rho0 / float64(n)
	// β₀ᵀXᵀy = ‖Xβ₀‖²: a residual under 1e-9 of the fit is the rounding of y
	// and of the Gram inverse, not variance.
	if !(s.rho0 > 1e-18*mat.Dot(s.beta, xty)) {
		s.floor = 1e-12
	}
	s.sigma2 = math.Max(s.rho0/float64(n), s.floor)
	model := loop(s)
	model.Starts, model.N = s.starts, n
	return model, nil
}

// emGeneral is Appendix D's loop for any q, Σ initialized to σ²₀·I. It keeps
// three n-vectors for the whole fit and carries the residual r = y − Xβ that
// closes an M-step (Equation 14) into the next E-step.
func emGeneral(s *emStart) *MultiLevel {
	bx, bz, y, opts := s.bx, s.bz, s.y, s.opts
	n, G, q := len(y), len(s.starts), bz.NumCols()
	starts, sizes, r := s.starts, s.sizes, s.r
	beta, sigma2 := s.beta, s.sigma2

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
		beta = s.gramInv.MulVec(bx.TMulVec(ymzb))
		// Σ = (1/G) Σᵢ E[bᵢbᵢᵀ].
		sigma = mat.New(q, q)
		for i := 0; i < G; i++ {
			sigma.AddInPlace(ebb[i])
		}
		sigma = sigma.Scale(1 / float64(G))
		// σ² per Equation 14.
		residual(r, bx, beta, y)
		sum := mat.Dot(r, r)
		for i := 0; i < G; i++ {
			sum += zClusterGram[i].Mul(ebb[i]).Trace()
		}
		sum -= 2 * mat.Dot(r, zb)
		sigma2 = sum / float64(n)
		if sigma2 < s.floor || math.IsNaN(sigma2) {
			sigma2 = s.floor
		}
	}
	return &MultiLevel{Beta: beta, B: bi, Sigma: sigma, Sigma2: sigma2}
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

// clusterTable reads the rows for the last time in a q = 1 fit: C = ZᵀX, one
// row zᵢᵀXᵢ per cluster, with zᵢᵀzᵢ and u₀ᵢ = zᵢᵀr₀ beside it. The intercept
// design has them in closed form — the backend's per-cluster column sums, the
// cluster's size, the sum of r₀ left to right; any other column goes through
// the two backends' ClusterOps.
func (s *emStart) clusterTable() (c *mat.Matrix, zg, u0 []float64) {
	G, p := len(s.starts), s.bx.NumCols()
	zg, u0 = make([]float64, G), make([]float64, G)
	if _, ok := s.bz.(*InterceptZ); ok {
		for i, start := range s.starts {
			zg[i] = float64(s.sizes[i])
			u0[i] = mat.Sum(s.r[start : start+s.sizes[i]])
		}
		return s.bx.ClusterColSums(), zg, u0
	}
	c = mat.New(G, p)
	one := []float64{1}
	for i, start := range s.starts {
		zc := s.bz.Cluster(i)
		zg[i] = zc.Gram().At(0, 0)
		u0[i] = zc.TMulVec(s.r[start : start+s.sizes[i]])[0]
		copy(c.Data[i*p:(i+1)*p], s.bx.Cluster(i).TMulVec(zc.MulVec(one)))
	}
	return c, zg, u0
}

// emClusterLevel is the same EM for a single random-effect column z, on
// cluster-level sufficient statistics anchored at the OLS solution, so that
// neither the rows nor y's magnitude enter the loop. With β = β₀ + d every
// quantity an iteration needs follows from the set-up's C, zᵢᵀzᵢ, u₀ = Zᵀr₀,
// ρ₀ and g = Xᵀr₀ (zero but for the ridge and rounding):
//
//	zᵢᵀr = u₀ᵢ − Cᵢ·d            Xᵀ(y − Zμ) = Xᵀy − Cᵀμ, so d = −(XᵀX + λI)⁻¹Cᵀμ
//	rᵀZμ = Σᵢ μᵢ·zᵢᵀr            rᵀr = ρ₀ − 2dᵀg + dᵀ(XᵀX)d
//
// The last is a sum of non-negative terms up to g, not the difference of
// large ones that expanding yᵀy − 2βᵀXᵀy + βᵀXᵀXβ would be.
//
// A cluster's E-step weight vᵢ = (zᵢᵀzᵢ/σ² + 1/Σ)⁻¹ depends on it only through
// zᵢᵀzᵢ (for random intercepts, its size), so clusters of equal zᵢᵀzᵢ form a
// size class s sharing wₛ = vₛ/σ², μᵢ = wₛ·zᵢᵀr. Set-up sums each class's
// count, Σu₀ᵢ², aₛ = Σu₀ᵢCᵢ and Mₛ = ΣCᵢCᵢᵀ, and an iteration costs
// O(classes·p²), in the anchored form rᵀr takes (d′ is the E-step's d):
//
//	Cᵀμ = Σₛ wₛ(aₛ − Mₛd)        Σ_{i∈s} (zᵢᵀr)² = Σu₀ᵢ² − 2aₛ·d + dᵀMₛd
//	rᵀZμ = Σₛ wₛ(Σu₀ᵢ² − aₛ·(d′ + d) + d′ᵀMₛd)
//
// μᵢ itself is formed once, after the last E-step.
func emClusterLevel(s *emStart) *MultiLevel {
	n, G, p := float64(len(s.y)), len(s.starts), s.bx.NumCols()
	c, zg, u0 := s.clusterTable()
	g := s.bx.TMulVec(s.r)

	// The classes are the distinct zᵢᵀzᵢ, ascending. Mₛ is summed as its
	// lower triangle and mirrored, so that an iteration adds its rows.
	sizes := slices.Clone(zg)
	slices.Sort(sizes)
	sizes = slices.Compact(sizes)
	classes, class := make([]sizeClass, len(sizes)), make([]int32, G)
	a, m, md := make([]float64, len(sizes)*p), make([]float64, len(sizes)*p*p), make([]float64, len(sizes)*p) // md holds Mₛd
	for i, z := range zg {
		k, _ := slices.BinarySearch(sizes, z)
		class[i], classes[k].n, classes[k].u0sq = int32(k), classes[k].n+1, classes[k].u0sq+u0[i]*u0[i]
		ci, ak, mk := c.Data[i*p:(i+1)*p], a[k*p:(k+1)*p], m[k*p*p:(k+1)*p*p]
		for j, x := range ci {
			ak[j] += u0[i] * x
			for l, xl := range ci[:j+1] {
				mk[j*p+l] += x * xl
			}
		}
	}
	for x := range m { // entry (j, l) of block k, above the diagonal
		if k, j, l := x/(p*p), x/p%p, x%p; l > j {
			m[x] = m[k*p*p+l*p+j]
		}
	}

	sigma, sigma2 := s.sigma2, s.sigma2 // Σ is a scalar variance
	d, dE := make([]float64, p), make([]float64, p)
	ctmu, gd := make([]float64, p), make([]float64, p) // ctmu holds −Cᵀμ
	for iter := 0; iter < s.opts.Iterations; iter++ {
		// E-step, with Σ's and σ²'s sums over the clusters in each class.
		sigmaInv, sigma2Inv := 1/math.Max(sigma, s.floor), 1/sigma2
		clear(ctmu)
		var sAcc, zge float64
		for k := range classes {
			cl, ak, mdk := &classes[k], a[k*p:(k+1)*p], md[k*p:(k+1)*p]
			v := 1 / (sizes[k]*sigma2Inv + sigmaInv)
			cl.w = v * sigma2Inv
			ebb := cl.n*v + cl.w*cl.w*max(cl.u0sq-2*cl.ad+mat.Dot(d, mdk), 0) // Σ E[bᵢ²]
			sAcc += ebb
			zge += sizes[k] * ebb
			for j, x := range ak {
				ctmu[j] -= cl.w * (x - mdk[j])
			}
		}
		// M-step.
		copy(dE, d)
		s.gramInv.MulVecTo(d, ctmu)
		var rzb float64
		for k := range classes {
			cl, ak, mk, mdk := &classes[k], a[k*p:(k+1)*p], m[k*p*p:(k+1)*p*p], md[k*p:(k+1)*p]
			clear(mdk)
			for l, dl := range d { // add Mₛ's rows, d[l] times row l
				for j, v := range mk[l*p : (l+1)*p] {
					mdk[j] += v * dl
				}
			}
			ad := mat.Dot(ak, d)
			rzb += cl.w * (cl.u0sq - cl.ad - ad + mat.Dot(dE, mdk))
			cl.ad = ad
		}
		sigma = sAcc / float64(G)
		s.gram.MulVecTo(gd, d)
		sigma2 = (s.rho0 - 2*mat.Dot(d, g) + mat.Dot(d, gd) + zge - 2*rzb) / n
		if sigma2 < s.floor || math.IsNaN(sigma2) {
			sigma2 = s.floor
		}
	}

	mu, b := make([]float64, G), make([][]float64, G)
	for i, k := range class {
		mu[i] = classes[k].w * (u0[i] - mat.Dot(c.Data[i*p:(i+1)*p], dE))
		b[i] = mu[i : i+1 : i+1]
	}
	return &MultiLevel{Beta: mat.AddVec(s.beta, d), B: b, Sigma: mat.FromRows([][]float64{{sigma}}), Sigma2: sigma2}
}

// sizeClass is one size class of emClusterLevel: its count and Σu₀ᵢ², and per
// iteration aₛ·d and the E-step weight wₛ.
type sizeClass struct{ n, u0sq, ad, w float64 }

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
