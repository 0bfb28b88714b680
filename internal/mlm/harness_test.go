package mlm

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/fmatrix"
	"repro/internal/mat"
)

// The tolerance harness: every q = 1 kernel configuration against a
// reference small enough to be obviously right. TestGoldenBits says "the bits
// did not move"; this says "the numbers are the model's", which is what holds
// a change that is meant to move the bits.

const refPrec = 256 // bits of mantissa in the reference's arithmetic

func bf(x float64) *big.Float         { return new(big.Float).SetPrec(refPrec).SetFloat64(x) }
func badd(a, b *big.Float) *big.Float { return new(big.Float).SetPrec(refPrec).Add(a, b) }
func bsub(a, b *big.Float) *big.Float { return new(big.Float).SetPrec(refPrec).Sub(a, b) }
func bmul(a, b *big.Float) *big.Float { return new(big.Float).SetPrec(refPrec).Mul(a, b) }
func bquo(a, b *big.Float) *big.Float { return new(big.Float).SetPrec(refPrec).Quo(a, b) }
func f64(a *big.Float) float64        { v, _ := a.Float64(); return v }

// refFit is the reference's answer, rounded to float64 once at the end.
type refFit struct {
	beta, b, fitted []float64
	sigma, sigma2   float64
	sigma2Start     float64 // σ² of the initial OLS residual
	cond            float64 // ‖XᵀX + λI‖₁·‖(XᵀX + λI)⁻¹‖₁
}

// referenceEM is Appendix D for one random-effect column z, transcribed row
// by row in 256-bit arithmetic: β by OLS, σ² by its residual variance, Σ = σ²;
// then per iteration Equations 8–11 per cluster (vᵢ = (zᵢᵀzᵢ/σ² + 1/Σ)⁻¹,
// μᵢ = vᵢ·zᵢᵀrᵢ/σ², E[bᵢ²] = vᵢ + μᵢ²) and Equations 12–14
// (β = (XᵀX + λI)⁻¹Xᵀ(y − Zμ), Σ = mean E[bᵢ²],
// σ² = (rᵀr + Σᵢ zᵢᵀzᵢ·E[bᵢ²] − 2rᵀZμ)/n with r = y − Xβ). λ is the ridge the
// kernel puts on a singular Gram (harnessRidge), 0 otherwise. There is no
// variance floor: the harness only feeds it inputs on which the kernel needs
// none.
func referenceEM(x *mat.Matrix, starts []int, z, y []float64, iters int, lambda float64) refFit {
	n, p, G := x.Rows, x.Cols, len(starts)
	zero := bf(0)
	X := make([]*big.Float, n*p)
	for i, v := range x.Data {
		X[i] = bf(v)
	}
	Z, Y := make([]*big.Float, n), make([]*big.Float, n)
	for i := range Y {
		Z[i], Y[i] = bf(z[i]), bf(y[i])
	}
	end := func(i int) int {
		if i+1 < G {
			return starts[i+1]
		}
		return n
	}

	// (XᵀX + λI)⁻¹ by Gauss–Jordan with partial pivoting.
	gram := make([]*big.Float, p*p)
	for a := 0; a < p; a++ {
		for b := 0; b < p; b++ {
			s := zero
			for r := 0; r < n; r++ {
				s = badd(s, bmul(X[r*p+a], X[r*p+b]))
			}
			gram[a*p+b] = s
		}
		gram[a*p+a] = badd(gram[a*p+a], bf(lambda))
	}
	aug := make([]*big.Float, p*p)
	copy(aug, gram)
	inv := make([]*big.Float, p*p)
	for a := 0; a < p; a++ {
		for b := 0; b < p; b++ {
			inv[a*p+b] = zero
		}
		inv[a*p+a] = bf(1)
	}
	for col := 0; col < p; col++ {
		pivot := col
		for r := col + 1; r < p; r++ {
			if new(big.Float).Abs(aug[r*p+col]).Cmp(new(big.Float).Abs(aug[pivot*p+col])) > 0 {
				pivot = r
			}
		}
		for j := 0; j < p; j++ {
			aug[col*p+j], aug[pivot*p+j] = aug[pivot*p+j], aug[col*p+j]
			inv[col*p+j], inv[pivot*p+j] = inv[pivot*p+j], inv[col*p+j]
		}
		d := aug[col*p+col]
		for j := 0; j < p; j++ {
			aug[col*p+j], inv[col*p+j] = bquo(aug[col*p+j], d), bquo(inv[col*p+j], d)
		}
		for r := 0; r < p; r++ {
			if r == col {
				continue
			}
			f := aug[r*p+col]
			for j := 0; j < p; j++ {
				aug[r*p+j] = bsub(aug[r*p+j], bmul(f, aug[col*p+j]))
				inv[r*p+j] = bsub(inv[r*p+j], bmul(f, inv[col*p+j]))
			}
		}
	}
	norm1 := func(m []*big.Float) float64 {
		var worst float64
		for b := 0; b < p; b++ {
			var s float64
			for a := 0; a < p; a++ {
				s += math.Abs(f64(m[a*p+b]))
			}
			worst = math.Max(worst, s)
		}
		return worst
	}

	// ols returns (XᵀX + λI)⁻¹Xᵀv and residual returns y − Xβ.
	ols := func(v []*big.Float) []*big.Float {
		xtv := make([]*big.Float, p)
		for a := 0; a < p; a++ {
			s := zero
			for r := 0; r < n; r++ {
				s = badd(s, bmul(X[r*p+a], v[r]))
			}
			xtv[a] = s
		}
		beta := make([]*big.Float, p)
		for a := 0; a < p; a++ {
			s := zero
			for b := 0; b < p; b++ {
				s = badd(s, bmul(inv[a*p+b], xtv[b]))
			}
			beta[a] = s
		}
		return beta
	}
	xb := make([]*big.Float, n)
	residual := func(beta []*big.Float) []*big.Float {
		r := make([]*big.Float, n)
		for i := 0; i < n; i++ {
			s := zero
			for a := 0; a < p; a++ {
				s = badd(s, bmul(X[i*p+a], beta[a]))
			}
			xb[i], r[i] = s, bsub(Y[i], s)
		}
		return r
	}
	dot := func(a, b []*big.Float) *big.Float {
		s := zero
		for i := range a {
			s = badd(s, bmul(a[i], b[i]))
		}
		return s
	}

	beta := ols(Y)
	r := residual(beta)
	nf, Gf := bf(float64(n)), bf(float64(G))
	sigma2 := bquo(dot(r, r), nf)
	sigma := sigma2
	out := refFit{sigma2Start: f64(sigma2), cond: norm1(gram) * norm1(inv)}

	zg := make([]*big.Float, G)
	for i := range zg {
		zg[i] = dot(Z[starts[i]:end(i)], Z[starts[i]:end(i)])
	}
	mu, ebb := make([]*big.Float, G), make([]*big.Float, G)
	zb, ymzb := make([]*big.Float, n), make([]*big.Float, n)
	for iter := 0; iter < iters; iter++ {
		for i := range mu {
			rows := r[starts[i]:end(i)]
			vi := bquo(bf(1), badd(bquo(zg[i], sigma2), bquo(bf(1), sigma)))
			mu[i] = bquo(bmul(vi, dot(Z[starts[i]:end(i)], rows)), sigma2)
			ebb[i] = badd(vi, bmul(mu[i], mu[i]))
		}
		for i := range mu {
			for j := starts[i]; j < end(i); j++ {
				zb[j] = bmul(Z[j], mu[i])
				ymzb[j] = bsub(Y[j], zb[j])
			}
		}
		beta = ols(ymzb)
		r = residual(beta)
		s, sAcc := dot(r, r), zero
		for i := range ebb {
			sAcc = badd(sAcc, ebb[i])
			s = badd(s, bmul(zg[i], ebb[i]))
		}
		sigma = bquo(sAcc, Gf)
		sigma2 = bquo(bsub(s, bmul(bf(2), dot(r, zb))), nf)
	}

	for _, v := range beta {
		out.beta = append(out.beta, f64(v))
	}
	for _, v := range mu {
		out.b = append(out.b, f64(v))
	}
	for i := range xb {
		out.fitted = append(out.fitted, f64(badd(xb[i], zb[i])))
	}
	out.sigma, out.sigma2 = f64(sigma), f64(sigma2)
	return out
}

// harnessCase is one input: a factorised design (its dense twin is
// Materialize()d from it, so both backends see the same numbers) and y.
type harnessCase struct {
	name string
	fm   *fmatrix.Matrix
	y    []float64
	// noVariance marks y without residual variance at its own magnitude
	// (constant y): β, b̂ and the fitted values are held to the reference, Σ
	// and σ² only to being zero on the scale of y².
	noVariance bool
}

// harnessCases are the golden inputs and the sweeps over a seeded
// internal/synth base: y scaled and shifted, the degenerate cluster shapes,
// and designs that stress the Gram inverse. Scaling y down stops at 1e-3: the
// variance floors are absolute (1e-12) below that, the reference has none,
// and what a small-scale measure should get is the equivariance test's
// subject.
func harnessCases(t testing.TB) []harnessCase {
	var cases []harnessCase
	for _, s := range goldenShapes {
		fm, y := s.build(t)
		cases = append(cases, harnessCase{name: "golden/" + s.name, fm: fm, y: y, noVariance: s.constY})
	}
	// The sweep base: a well-conditioned two-hierarchy design (≈ 180 rows,
	// ragged clusters) with a cluster effect added to the synth group means,
	// so Σ is a real variance component and not a vanishing one.
	base := goldenShape{seed: 31, hiers: [][]int{{6}, {5, 6}}, jitter: true}
	withEffects := func(s goldenShape) (*fmatrix.Matrix, []float64) {
		fm, y := s.build(t)
		fb, err := NewFactorised(fm)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(s.seed + 100))
		for i := 0; i < fb.NumClusters(); i++ {
			start, cn := fb.ClusterRows(i)
			shift := 8 * rng.NormFloat64()
			for j := start; j < start+cn; j++ {
				y[j] += shift
			}
		}
		return fm, y
	}
	clustered := func() (*fmatrix.Matrix, []float64) { return withEffects(base) }
	mapY := func(name string, s goldenShape, f func(v float64) float64) {
		fm, y := withEffects(s)
		for i := range y {
			y[i] = f(y[i])
		}
		cases = append(cases, harnessCase{name: name, fm: fm, y: y})
	}
	mapY("sweep/clustered", base, func(v float64) float64 { return v })
	mapY("sweep/y*1e12", base, func(v float64) float64 { return v * 1e12 })
	mapY("sweep/y*1e-3", base, func(v float64) float64 { return v * 1e-3 })
	mapY("sweep/y+1e9", base, func(v float64) float64 { return v + 1e9 })
	// Cluster-size classes (clusters of equal zᵢᵀzᵢ share their E-step
	// weights): every cluster the same size, as at a leaf drill state; every
	// cluster a different size; three ragged classes. Each also with y scaled
	// and shifted.
	for _, s := range []goldenShape{
		{name: "classes/one", seed: 41, hiers: [][]int{{5}, {6, 4}}},
		{name: "classes/every", seed: 42, hiers: [][]int{{9, 0}}, children: []int{1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{name: "classes/ragged", seed: 43, hiers: [][]int{{4}, {7, 0}}, children: []int{2, 5, 2, 3, 5, 3, 2}},
	} {
		mapY(s.name, s, func(v float64) float64 { return v })
		mapY(s.name+"/y*1e12", s, func(v float64) float64 { return v * 1e12 })
		mapY(s.name+"/y+1e9", s, func(v float64) float64 { return v + 1e9 })
	}
	for _, s := range []goldenShape{
		{name: "sweep/single-row-clusters", seed: 21, hiers: [][]int{{6}, {7, 1}}},
		{name: "sweep/one-cluster", seed: 22, hiers: [][]int{{40}}},
	} {
		fm, y := s.build(t)
		cases = append(cases, harnessCase{name: s.name, fm: fm, y: y})
	}
	withCols := func(name string, edit func(cols []fmatrix.Column, rng *rand.Rand) []fmatrix.Column) {
		fm, y := clustered()
		cols := make([]fmatrix.Column, len(fm.Cols))
		for i, c := range fm.Cols {
			cols[i] = fmatrix.Column{Name: c.Name, Attr: c.Attr, Vals: append([]float64(nil), c.Vals...)}
		}
		m, err := fmatrix.New(fm.F, edit(cols, rand.New(rand.NewSource(base.seed+200))))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, harnessCase{name: name, fm: m, y: y})
	}
	withCols("sweep/near-collinear", func(cols []fmatrix.Column, rng *rand.Rand) []fmatrix.Column {
		last := cols[len(cols)-1]
		twin := fmatrix.Column{Name: "twin", Attr: last.Attr, Vals: append([]float64(nil), last.Vals...)}
		for i := range twin.Vals {
			twin.Vals[i] += 1e-5 * rng.NormFloat64()
		}
		return append(cols, twin)
	})
	for _, off := range []float64{1e3, 1e6} { // cond(XᵀX) ≈ 10¹² and 10²⁴
		withCols(fmt.Sprintf("sweep/column+%.0e", off), func(cols []fmatrix.Column, _ *rand.Rand) []fmatrix.Column {
			for i := range cols[1].Vals {
				cols[1].Vals[i] += off
			}
			return cols
		})
	}
	return cases
}

// deviation is the harness's measure, per quantity: the largest absolute
// difference from the reference over the quantity's natural scale. β is
// weighed by its column's root mean square (a coefficient matters as much as
// it moves the prediction) and, like b̂ and the fitted values, is in y's units:
// scale max|y|. Σ and σ² are squared units and carry the error 2·r·δr of a
// residual r known to δr ≈ ε·max|y|: scale max|y|·√σ²₀ — or max|y|² when y has
// no variance to speak of.
type deviation struct{ beta, b, sigma, sigma2, fitted float64 }

func rms(x *mat.Matrix, j int) float64 {
	var ss float64
	for r := 0; r < x.Rows; r++ {
		ss += x.Data[r*x.Cols+j] * x.Data[r*x.Cols+j]
	}
	return math.Sqrt(ss / float64(x.Rows))
}

func (d deviation) max() float64 {
	return math.Max(math.Max(d.beta, d.b), math.Max(math.Max(d.sigma, d.sigma2), d.fitted))
}

func deviate(c harnessCase, x *mat.Matrix, ref refFit, m *MultiLevel, fitted []float64) deviation {
	var yMax float64
	for _, v := range c.y {
		yMax = math.Max(yMax, math.Abs(v))
	}
	vScale := yMax * math.Sqrt(ref.sigma2Start)
	if c.noVariance {
		vScale = yMax * yMax
	}
	var d deviation
	bScale := yMax // or the largest single term of Xβ, when collinear columns trade off
	for j, b := range ref.beta {
		bScale = math.Max(bScale, math.Abs(b)*rms(x, j))
	}
	for j, b := range ref.beta {
		d.beta = math.Max(d.beta, math.Abs(m.Beta[j]-b)*rms(x, j)/bScale)
	}
	for i := range ref.b {
		d.b = math.Max(d.b, math.Abs(m.B[i][0]-ref.b[i])/yMax)
	}
	for i := range ref.fitted {
		d.fitted = math.Max(d.fitted, math.Abs(fitted[i]-ref.fitted[i])/yMax)
	}
	d.sigma = math.Abs(m.Sigma.At(0, 0)-ref.sigma) / vScale
	d.sigma2 = math.Abs(m.Sigma2-ref.sigma2) / vScale
	return d
}

// harnessBound is what a kernel must meet: 1e-11 of the natural scale on a
// well-conditioned design — four orders above float64's resolution, two below
// the 1e-9 a reader of a recommendation could notice — and 64·ε·cond(XᵀX + λI)
// where that is larger (cond ≳ 10³): an explicit inverse by elimination
// promises a small multiple of ε·cond and no float64 kernel on the normal
// equations beats it. Past cond ≈ 10¹² that is no promise at all, so it is
// capped at 1 % of the scale, which the fitted values (the projection of y,
// well-determined however the columns trade off) keep even at cond 10²⁴.
func harnessBound(ref refFit) float64 {
	const eps = 0x1p-52
	return math.Min(math.Max(1e-11, 64*eps*ref.cond), 1e-2)
}

// harnessRidge is the λ the kernel's RidgeInverse ends up adding to XᵀX: none
// when the Gram inverts as it is, else Options' default 1e-8 growing tenfold
// until it does.
func harnessRidge(gram *mat.Matrix) float64 {
	if _, err := gram.Inverse(); err == nil {
		return 0
	}
	for lambda := 1e-8; ; lambda *= 10 {
		if _, err := gram.Add(mat.Identity(gram.Rows).Scale(lambda)).Inverse(); err == nil {
			return lambda
		}
	}
}

// zDesigns are the single-column random-effects designs a case is fit with:
// the closed-form intercept, the intercept column cut out of X, and a column
// of X that varies within clusters.
func zDesigns(t testing.TB, bx Backend, x *mat.Matrix) []struct {
	name string
	bz   Backend
	z    []float64
} {
	subset := func(j int) (Backend, []float64) {
		mask := make([]bool, bx.NumCols())
		mask[j] = true
		var bz Backend
		var err error
		switch b := bx.(type) {
		case *Dense:
			bz, err = b.SubsetCols(mask)
		case *Factorised:
			bz, err = b.SubsetCols(mask)
		}
		if err != nil {
			t.Fatal(err)
		}
		z := make([]float64, x.Rows)
		for r := range z {
			z[r] = x.Data[r*x.Cols+j]
		}
		return bz, z
	}
	sub0, ones := subset(0)
	subLast, last := subset(x.Cols - 1)
	return []struct {
		name string
		bz   Backend
		z    []float64
	}{
		{"interceptZ", NewInterceptZ(bx), ones},
		{"subset0", sub0, ones},
		{"subsetLast", subLast, last},
	}
}

// denseTwin materializes a case's design with the factorised partition.
func denseTwin(t testing.TB, fm *fmatrix.Matrix) (*Factorised, *Dense) {
	t.Helper()
	fb, err := NewFactorised(fm)
	if err != nil {
		t.Fatal(err)
	}
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
	return fb, db
}

// TestKernelWithinToleranceOfReference holds FitEMZ and Fitted — dense and
// factorised X × the three single-column Z designs — to referenceEM on every
// harness case, and logs the deviation table (go test -v) CHANGES.md quotes.
func TestKernelWithinToleranceOfReference(t *testing.T) {
	const iters = 7
	for _, c := range harnessCases(t) {
		fb, db := denseTwin(t, c.fm)
		lambda := harnessRidge(db.Gram())
		refs := map[string]refFit{}
		for _, bk := range []struct {
			name string
			bx   Backend
		}{{"dense", db}, {"factorised", fb}} {
			for _, zd := range zDesigns(t, bk.bx, db.X) {
				key := zd.name
				if key == "subset0" {
					key = "interceptZ" // the same column of ones
				}
				ref, ok := refs[key]
				if !ok {
					ref = referenceEM(db.X, db.starts, zd.z, c.y, iters, lambda)
					refs[key] = ref
				}
				label := fmt.Sprintf("%s/%s/%s", c.name, bk.name, zd.name)
				m, err := FitEMZ(bk.bx, zd.bz, c.y, Options{Iterations: iters})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				d := deviate(c, db.X, ref, m, m.Fitted(bk.bx, zd.bz))
				bound := harnessBound(ref)
				t.Logf("%-52s cond %.1e  β %.1e  b̂ %.1e  Σ %.1e  σ² %.1e  fitted %.1e  (bound %.1e)",
					label, ref.cond, d.beta, d.b, d.sigma, d.sigma2, d.fitted, bound)
				if !(d.max() <= bound) {
					t.Errorf("%s: deviation %+v exceeds %.1e", label, d, bound)
				}
			}
		}
	}
}
