package fmatrix

import (
	"fmt"

	"repro/internal/mat"
)

// Clusters partitions the implicit matrix rows into the multi-level model's
// clusters: rows sharing the values of every attribute except the last (the
// intra-cluster / drill-down attribute, §3.2, Appendix F). Because the
// drill-down hierarchy is ordered last, each cluster is a contiguous row
// range: one combination of the other hierarchies' paths × one parent value
// in the last hierarchy.
type Clusters struct {
	m         *Matrix
	numPrefix int      // combinations of the non-last hierarchies' leaves
	ranges    [][2]int // child (lo, hi) ranges per parent value in the last hierarchy
	rowsPer   int      // leaves of the last hierarchy (rows per prefix combination)
	lastAttr  int
}

// Clusters returns the cluster partition of the matrix, or an error when the
// implicit row count is too large to address.
func (m *Matrix) Clusters() (*Clusters, error) {
	if _, err := m.F.RowCount(); err != nil {
		return nil, err
	}
	f := m.F
	h := f.NumHierarchies() - 1
	ch := f.Chain(h)
	c := &Clusters{
		m:        m,
		rowsPer:  ch.Leaves(),
		lastAttr: f.NumAttrs() - 1,
	}
	np := 1.0
	for pos := 0; pos < h; pos++ {
		np *= f.Leaves(pos)
	}
	c.numPrefix = int(np)
	if ch.Depth() == 1 {
		c.ranges = [][2]int{{0, ch.Leaves()}}
	} else {
		parent := ch.Levels[ch.Depth()-2]
		c.ranges = make([][2]int, len(parent.Codes))
		for i := range parent.Codes {
			c.ranges[i] = [2]int{parent.ChildOff[i], parent.ChildOff[i+1]}
		}
	}
	return c, nil
}

// NumClusters returns G, the number of clusters.
func (c *Clusters) NumClusters() int { return c.numPrefix * len(c.ranges) }

// Extent returns the row range [start, start+n) of cluster ci without
// building its View.
func (c *Clusters) Extent(ci int) (start, n int) {
	r := c.ranges[ci%len(c.ranges)]
	return ci/len(c.ranges)*c.rowsPer + r[0], r[1] - r[0]
}

// ColSums returns the G × k table whose row i is cluster i's column sums 1ᵀXᵢ
// — the decomposed aggregates EM's cluster-level loop runs on. A column that
// is constant across a cluster's N rows contributes N·f; one bound to the last
// attribute contributes the sum of its values under the cluster's parent,
// left to right. No row is visited.
func (c *Clusters) ColSums() *mat.Matrix {
	f, k, nr := c.m.F, len(c.m.Cols), len(c.ranges)
	last := f.NumHierarchies() - 1
	out := mat.New(c.NumClusters(), k)
	for colIdx, col := range c.m.Cols {
		a := f.Attrs()[col.Attr]
		ch := f.Chain(a.Hier)
		stride := 1 // prefix combinations per leaf of the column's hierarchy
		for pos := a.Hier + 1; pos < last; pos++ {
			stride *= f.Chain(pos).Leaves()
		}
		for pi, r := range c.ranges {
			n := float64(r[1] - r[0])
			var perParent float64 // of a column of the last hierarchy
			switch {
			case col.Attr == c.lastAttr:
				perParent = mat.Sum(col.Vals[r[0]:r[1]])
			case a.Hier == last:
				perParent = n * col.Vals[ch.AncestorIdx(a.Level, r[0])]
			}
			for prefix := 0; prefix < c.numPrefix; prefix++ {
				v := perParent
				if a.Hier != last {
					v = n * col.Vals[ch.AncestorIdx(a.Level, prefix/stride%ch.Leaves())]
				}
				out.Data[(prefix*nr+pi)*k+colIdx] = v
			}
		}
	}
	return out
}

// View describes one cluster and provides its factorised matrix operations.
// The inter-cluster columns are constant across the cluster's rows; the
// intra-cluster columns (those bound to the last attribute) vary.
type View struct {
	Index int // cluster index
	Start int // first row of the cluster in matrix row order
	N     int // number of rows

	cols      []Column
	isIntra   []bool
	interF    []float64   // per column: its constant value (inter only)
	intraVals [][]float64 // per column: its per-row values (intra only)
	intraCols []int       // indices of the intra columns
	intraSums []float64   // per intra column (aligned with intraCols): Σ values
}

// View materializes the cluster descriptor for cluster index ci.
func (c *Clusters) View(ci int) (*View, error) {
	if ci < 0 || ci >= c.NumClusters() {
		return nil, fmt.Errorf("fmatrix: cluster %d out of range 0..%d", ci, c.NumClusters()-1)
	}
	f := c.m.F
	prefixIdx := ci / len(c.ranges)
	parentIdx := ci % len(c.ranges)
	lo, hi := c.ranges[parentIdx][0], c.ranges[parentIdx][1]
	start, n := c.Extent(ci)

	v := &View{
		Index:     ci,
		Start:     start,
		N:         n,
		cols:      c.m.Cols,
		isIntra:   make([]bool, len(c.m.Cols)),
		interF:    make([]float64, len(c.m.Cols)),
		intraVals: make([][]float64, len(c.m.Cols)),
	}

	// Decode the prefix combination into per-hierarchy leaf indices
	// (mixed-radix, first hierarchy slowest).
	nh := f.NumHierarchies()
	leaf := make([]int, nh-1)
	rem := prefixIdx
	for pos := nh - 2; pos >= 0; pos-- {
		l := int(f.Leaves(pos))
		leaf[pos] = rem % l
		rem /= l
	}
	// Per-attribute value indices for the inter attributes.
	attrVal := make([]int, f.NumAttrs())
	ai := 0
	for pos := 0; pos < nh-1; pos++ {
		ch := f.Chain(pos)
		for l := 0; l < ch.Depth(); l++ {
			attrVal[ai] = ch.AncestorIdx(l, leaf[pos])
			ai++
		}
	}
	// Parent value of the last hierarchy and its ancestors: walk bottom-up
	// from the parent level through the Parent linkage.
	lastCh := f.Chain(nh - 1)
	if lastCh.Depth() > 1 {
		idx := parentIdx
		for l := lastCh.Depth() - 2; l >= 0; l-- {
			attrVal[ai+l] = idx
			if l > 0 {
				idx = lastCh.Levels[l].Parent[idx]
			}
		}
	}

	for colIdx, col := range c.m.Cols {
		if col.Attr == c.lastAttr {
			v.isIntra[colIdx] = true
			vals := col.Vals[lo:hi]
			v.intraVals[colIdx] = vals
			v.intraCols = append(v.intraCols, colIdx)
			v.intraSums = append(v.intraSums, mat.Sum(vals))
		} else {
			v.interF[colIdx] = col.Vals[attrVal[col.Attr]]
		}
	}
	return v, nil
}

// Gram computes XᵢᵀXᵢ for the cluster (Algorithm 5): inter×inter cells are
// n·fᵢ·fⱼ, inter×intra cells reuse the intra column's sum, and intra×intra
// cells are direct dot products over the cluster's rows.
func (v *View) Gram() *mat.Matrix {
	k := len(v.cols)
	out := mat.New(k, k)
	// Per-intra-column sums, precomputed at view construction.
	sums := make([]float64, k)
	for j, ci := range v.intraCols {
		sums[ci] = v.intraSums[j]
	}
	nf := float64(v.N)
	for i := 0; i < k; i++ {
		for j := i; j < k; j++ {
			var cell float64
			switch {
			case !v.isIntra[i] && !v.isIntra[j]:
				cell = nf * v.interF[i] * v.interF[j]
			case v.isIntra[i] && !v.isIntra[j]:
				cell = v.interF[j] * sums[i]
			case !v.isIntra[i] && v.isIntra[j]:
				cell = v.interF[i] * sums[j]
			default:
				cell = mat.Dot(v.intraVals[i], v.intraVals[j])
			}
			out.Set(i, j, cell)
			out.Set(j, i, cell)
		}
	}
	return out
}

// TMulVec computes Xᵢᵀ·r for the cluster (Algorithm 6 with one input row):
// inter columns multiply the row sum; intra columns take a direct dot
// product. r must have length v.N.
func (v *View) TMulVec(r []float64) []float64 {
	if len(r) != v.N {
		panic(fmt.Sprintf("fmatrix: cluster TMulVec length %d, want %d", len(r), v.N))
	}
	rowSum := mat.Sum(r)
	out := make([]float64, len(v.cols))
	for i, f := range v.interF {
		out[i] = f * rowSum
	}
	for _, ci := range v.intraCols {
		out[ci] = mat.Dot(v.intraVals[ci], r)
	}
	return out
}

// MulVec computes Xᵢ·w for the cluster (Algorithm 7 with one input column):
// the inter columns contribute a shared base value; the intra columns add
// the per-row variation.
func (v *View) MulVec(w []float64) []float64 {
	if len(w) != len(v.cols) {
		panic(fmt.Sprintf("fmatrix: cluster MulVec length %d, want %d", len(w), len(v.cols)))
	}
	var base float64
	for i, f := range v.interF {
		base += f * w[i] // interF is 0 for intra columns
	}
	out := make([]float64, v.N)
	for r := range out {
		out[r] = base
	}
	for _, ci := range v.intraCols {
		wi := w[ci]
		if wi == 0 {
			continue
		}
		vals := v.intraVals[ci]
		for r := range out {
			out[r] += vals[r] * wi
		}
	}
	return out
}
