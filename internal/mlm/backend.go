// Package mlm implements Reptile's model layer: ordinary least squares as
// the linear baseline, and the multi-level linear model of §3.2 fit by the
// expectation-maximization algorithm of Appendix D. The EM core is
// backend-agnostic — it consumes the six bottleneck matrix operations (gram,
// left and right multiplication, and their per-cluster variants) and the
// per-cluster column sums through an interface with a naive dense
// implementation (the paper's Matlab/Lapack comparator) and a factorised
// implementation over package fmatrix.
//
// With one random-effect column — random intercepts, what the engine fits
// whenever clusters are small — EM runs on cluster-level sufficient
// statistics: set-up reads the rows once (XᵀX, the OLS solution and its
// residual, the per-cluster column sums ZᵀX the decomposed aggregates already
// hold) and sums them per cluster-size class, whose clusters share their
// E-step weight. An iteration is O(classes·p²) arithmetic on those sums —
// one class at a leaf drill state, however many clusters — so the rows come
// back only for the fitted values. With more columns it is Appendix
// D's loop as written: one X·β, one Xᵀv and one pass over the clusters per
// iteration, the residual carried from the M-step into the next E-step.
//
// Numerics. The q = 1 fit is held to a 256-bit transcription of Appendix D
// (harness_test.go): within 1e-11 of the natural scale — max|y| for β, b̂ and
// the fitted values, max|y|·σ₀ for Σ and σ² — or 64·ε·cond(XᵀX) where that is
// larger. It is equivariant in y's units: the floor under σ² and Σ is
// 1e-12·σ²₀, so c·y fits to c times the model of y from c = 1e-9 to 1e9, and
// y of magnitude 1e15 loses only what float64 loses (a spread below
// ε·max|y| is invisible to any kernel). Zero residual variance (constant y,
// r₀ no more than the rounding of y) fits β and fitted values exactly, b̂ = 0
// to rounding, and reports Σ and σ² at the absolute floor 1e-12. A single
// cluster is an ordinary fit whose Σ is one term's E[b²]; single-row clusters
// are fine. A singular XᵀX is ridged by Options.Ridge, growing tenfold until
// it inverts. The q > 1 loop shares the σ² floor but regularizes Σ and the
// per-cluster inverses in absolute units (Options.Ridge, mat.Inverse's 1e-12
// pivot): it is reliable while the residual variance is between about 1e-10
// and 1e10 — rescale y outside that.
package mlm

import (
	"fmt"

	"repro/internal/fmatrix"
	"repro/internal/mat"
)

// Backend provides the matrix operations EM is bottlenecked by (Appendix D):
// XᵀX, Xᵀv, X·w and their per-cluster counterparts. Rows are partitioned
// into contiguous clusters.
type Backend interface {
	NumRows() int
	NumCols() int
	// Gram returns XᵀX.
	Gram() *mat.Matrix
	// TMulVec returns Xᵀ·v for an n-vector v.
	TMulVec(v []float64) []float64
	// MulVec returns X·w for an m-vector w.
	MulVec(w []float64) []float64
	// MulVecTo writes X·w into dst, which has one element per row: the form
	// EM uses, so an iteration allocates no n-vector.
	MulVecTo(dst, w []float64)
	// NumClusters returns the number of row clusters G.
	NumClusters() int
	// ClusterRows returns cluster i's row range [start, start+n). It is a
	// look-up into the partition and builds nothing.
	ClusterRows(i int) (start, n int)
	// Cluster returns the operations for cluster i.
	Cluster(i int) ClusterOps
	// ClusterColSums returns the G × m table whose row i is 1ᵀXᵢ, cluster i's
	// column sums: ZᵀX for the random-intercept design, the one thing EM's
	// cluster-level loop needs of X beyond the whole-matrix operators.
	ClusterColSums() *mat.Matrix
}

// ClusterOps provides the per-cluster operations for one cluster's
// sub-matrix Xᵢ.
type ClusterOps interface {
	// Gram returns XᵢᵀXᵢ.
	Gram() *mat.Matrix
	// TMulVec returns Xᵢᵀ·r for a cluster-local vector r of length n.
	TMulVec(r []float64) []float64
	// MulVec returns Xᵢ·w.
	MulVec(w []float64) []float64
}

// Dense is the naive backend over a fully materialized design matrix — the
// paper's "Matlab over Lapack" comparator. Cluster boundaries are provided
// as start offsets (clusters must be contiguous row ranges).
type Dense struct {
	X      *mat.Matrix
	starts []int // cluster start rows; an implicit sentinel ends at NumRows
}

// NewDense wraps a materialized matrix with cluster start offsets. starts
// must begin at 0 and be strictly increasing.
func NewDense(x *mat.Matrix, starts []int) (*Dense, error) {
	if len(starts) == 0 || starts[0] != 0 {
		return nil, fmt.Errorf("mlm: cluster starts must begin at 0, got %v", starts)
	}
	for i := 1; i < len(starts); i++ {
		if starts[i] <= starts[i-1] {
			return nil, fmt.Errorf("mlm: cluster starts not increasing at %d", i)
		}
	}
	if starts[len(starts)-1] >= x.Rows && x.Rows > 0 {
		return nil, fmt.Errorf("mlm: cluster start %d beyond %d rows", starts[len(starts)-1], x.Rows)
	}
	return &Dense{X: x, starts: starts}, nil
}

// NumRows implements Backend.
func (d *Dense) NumRows() int { return d.X.Rows }

// NumCols implements Backend.
func (d *Dense) NumCols() int { return d.X.Cols }

// Gram implements Backend.
func (d *Dense) Gram() *mat.Matrix { return d.X.Gram() }

// TMulVec implements Backend.
func (d *Dense) TMulVec(v []float64) []float64 { return d.X.TMulVec(v) }

// MulVec implements Backend.
func (d *Dense) MulVec(w []float64) []float64 { return d.X.MulVec(w) }

// MulVecTo implements Backend.
func (d *Dense) MulVecTo(dst, w []float64) { d.X.MulVecTo(dst, w) }

// NumClusters implements Backend.
func (d *Dense) NumClusters() int { return len(d.starts) }

// ClusterRows implements Backend.
func (d *Dense) ClusterRows(i int) (start, n int) {
	end := d.X.Rows
	if i+1 < len(d.starts) {
		end = d.starts[i+1]
	}
	return d.starts[i], end - d.starts[i]
}

// Cluster implements Backend. The sub-matrix aliases the cluster's rows of X
// (no operator writes them).
func (d *Dense) Cluster(i int) ClusterOps {
	start, n := d.ClusterRows(i)
	k := d.X.Cols
	return denseCluster{sub: &mat.Matrix{Rows: n, Cols: k, Data: d.X.Data[start*k : (start+n)*k : (start+n)*k]}}
}

// ClusterColSums implements Backend in one pass over X, every sum taken top
// to bottom.
func (d *Dense) ClusterColSums() *mat.Matrix {
	k := d.X.Cols
	out := mat.New(len(d.starts), k)
	for i := range d.starts {
		start, n := d.ClusterRows(i)
		sums := out.Data[i*k : (i+1)*k]
		for r := start; r < start+n; r++ {
			for j, x := range d.X.Data[r*k : (r+1)*k] {
				sums[j] += x
			}
		}
	}
	return out
}

type denseCluster struct{ sub *mat.Matrix }

func (c denseCluster) Gram() *mat.Matrix             { return c.sub.Gram() }
func (c denseCluster) TMulVec(r []float64) []float64 { return c.sub.TMulVec(r) }
func (c denseCluster) MulVec(w []float64) []float64  { return c.sub.MulVec(w) }

// SubsetCols returns a Dense backend over the selected columns (the §3.3.4
// random-effects tuning: Z keeps a subset of X's features). The cluster
// partition is preserved.
func (d *Dense) SubsetCols(mask []bool) (*Dense, error) {
	if len(mask) != d.X.Cols {
		return nil, fmt.Errorf("mlm: SubsetCols mask has %d entries for %d columns", len(mask), d.X.Cols)
	}
	var keep []int
	for j, m := range mask {
		if m {
			keep = append(keep, j)
		}
	}
	if len(keep) == 0 {
		return nil, fmt.Errorf("mlm: SubsetCols keeps no columns")
	}
	sub := mat.New(d.X.Rows, len(keep))
	for i := 0; i < d.X.Rows; i++ {
		for jj, j := range keep {
			sub.Data[i*len(keep)+jj] = d.X.Data[i*d.X.Cols+j]
		}
	}
	return NewDense(sub, d.starts)
}

// Factorised is the backend over the factorised feature matrix: every
// operation runs on the f-representation without materializing X.
type Factorised struct {
	M  *fmatrix.Matrix
	cl *fmatrix.Clusters
	n  int
}

// NewFactorised wraps a factorised feature matrix.
func NewFactorised(m *fmatrix.Matrix) (*Factorised, error) {
	n, err := m.F.RowCount()
	if err != nil {
		return nil, err
	}
	cl, err := m.Clusters()
	if err != nil {
		return nil, err
	}
	return &Factorised{M: m, cl: cl, n: n}, nil
}

// NumRows implements Backend.
func (f *Factorised) NumRows() int { return f.n }

// NumCols implements Backend.
func (f *Factorised) NumCols() int { return f.M.NumCols() }

// Gram implements Backend.
func (f *Factorised) Gram() *mat.Matrix { return f.M.Gram() }

// TMulVec implements Backend.
func (f *Factorised) TMulVec(v []float64) []float64 {
	out, err := f.M.TMulVec(v)
	if err != nil {
		panic(err) // length was validated at construction
	}
	return out
}

// MulVec implements Backend.
func (f *Factorised) MulVec(w []float64) []float64 {
	out := make([]float64, f.n)
	f.MulVecTo(out, w)
	return out
}

// MulVecTo implements Backend.
func (f *Factorised) MulVecTo(dst, w []float64) {
	if err := f.M.MulVecTo(dst, w); err != nil {
		panic(err)
	}
}

// NumClusters implements Backend.
func (f *Factorised) NumClusters() int { return f.cl.NumClusters() }

// ClusterRows implements Backend.
func (f *Factorised) ClusterRows(i int) (start, n int) { return f.cl.Extent(i) }

// Cluster implements Backend.
func (f *Factorised) Cluster(i int) ClusterOps {
	v, err := f.cl.View(i)
	if err != nil {
		panic(err)
	}
	return factorCluster{v}
}

// ClusterColSums implements Backend from the decomposed aggregates; no row is
// visited.
func (f *Factorised) ClusterColSums() *mat.Matrix { return f.cl.ColSums() }

// SubsetCols returns a Factorised backend over the selected columns; the
// underlying factorizer (and therefore the cluster partition) is shared.
func (f *Factorised) SubsetCols(mask []bool) (*Factorised, error) {
	if len(mask) != f.M.NumCols() {
		return nil, fmt.Errorf("mlm: SubsetCols mask has %d entries for %d columns", len(mask), f.M.NumCols())
	}
	var cols []fmatrix.Column
	for j, m := range mask {
		if m {
			cols = append(cols, f.M.Cols[j])
		}
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("mlm: SubsetCols keeps no columns")
	}
	sub, err := fmatrix.New(f.M.F, cols)
	if err != nil {
		return nil, err
	}
	return NewFactorised(sub)
}

// InterceptZ is the random-intercepts design: a constant-1 single column
// sharing another backend's cluster partition. Every operation is closed
// form — a cluster's Zᵢᵀr is a row sum and Zᵢb a constant fill — so EM and
// Fitted evaluate it inline from the cluster extents and build no per-cluster
// object at all; Cluster serves callers that want the ClusterOps anyway.
type InterceptZ struct {
	rows     int
	starts   []int
	clusterN []int
}

// NewInterceptZ derives the intercept-only Z design from a backend's
// cluster partition.
func NewInterceptZ(b Backend) *InterceptZ {
	z := &InterceptZ{rows: b.NumRows()}
	z.starts, z.clusterN = clusterExtents(b)
	return z
}

// NumRows implements Backend.
func (z *InterceptZ) NumRows() int { return z.rows }

// NumCols implements Backend.
func (z *InterceptZ) NumCols() int { return 1 }

// Gram implements Backend: 1ᵀ1 = n.
func (z *InterceptZ) Gram() *mat.Matrix { return mat.FromRows([][]float64{{float64(z.rows)}}) }

// TMulVec implements Backend: 1ᵀv = Σv.
func (z *InterceptZ) TMulVec(v []float64) []float64 { return []float64{mat.Sum(v)} }

// MulVec implements Backend: 1·w = w₀ repeated.
func (z *InterceptZ) MulVec(w []float64) []float64 {
	out := make([]float64, z.rows)
	z.MulVecTo(out, w)
	return out
}

// MulVecTo implements Backend.
func (z *InterceptZ) MulVecTo(dst, w []float64) {
	for i := range dst {
		dst[i] = w[0]
	}
}

// NumClusters implements Backend.
func (z *InterceptZ) NumClusters() int { return len(z.starts) }

// ClusterRows implements Backend.
func (z *InterceptZ) ClusterRows(i int) (start, n int) { return z.starts[i], z.clusterN[i] }

// Cluster implements Backend.
func (z *InterceptZ) Cluster(i int) ClusterOps { return interceptCluster{n: z.clusterN[i]} }

// ClusterColSums implements Backend: the cluster sizes.
func (z *InterceptZ) ClusterColSums() *mat.Matrix {
	out := mat.New(len(z.clusterN), 1)
	for i, cn := range z.clusterN {
		out.Data[i] = float64(cn)
	}
	return out
}

type interceptCluster struct{ n int }

func (c interceptCluster) Gram() *mat.Matrix {
	return mat.FromRows([][]float64{{float64(c.n)}})
}
func (c interceptCluster) TMulVec(r []float64) []float64 { return []float64{mat.Sum(r)} }
func (c interceptCluster) MulVec(w []float64) []float64 {
	out := make([]float64, c.n)
	for i := range out {
		out[i] = w[0]
	}
	return out
}

type factorCluster struct{ v *fmatrix.View }

func (c factorCluster) Gram() *mat.Matrix             { return c.v.Gram() }
func (c factorCluster) TMulVec(r []float64) []float64 { return c.v.TMulVec(r) }
func (c factorCluster) MulVec(w []float64) []float64  { return c.v.MulVec(w) }
