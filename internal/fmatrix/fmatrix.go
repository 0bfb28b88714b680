// Package fmatrix implements Reptile's factorised feature matrix and the
// matrix operations the EM trainer is bottlenecked by (§4.1–§4.2, Appendix
// E–F): the gram matrix XᵀX, left multiplication B·X, right multiplication
// X·A, and their per-cluster counterparts, all computed directly over the
// factorised representation without materializing X.
//
// A feature matrix is a factorizer plus a set of columns; each column is
// bound to one attribute and maps that attribute's values to feature values
// (the one-to-one attribute/feature isolation of Appendix B). Multiple
// columns may be bound to the same attribute — e.g. the attribute's own
// main-effect feature plus auxiliary-dataset features — and the intercept is
// a constant-1 column bound to the first attribute.
//
// What each operator costs: Gram and the per-cluster operators are functions
// of the decomposed aggregates and never visit a row; LeftMul/TMulVec take
// one prefix-sum pass over the input plus one range sum per value run; and
// the operators that must produce a value per row (RightMul, MulVec,
// Materialize — Algorithm 4) replay per-hierarchy transition tables built
// once per matrix, so a row costs one multiply-add per column that changes
// there. factor.RowIter defines the row order and builds those tables; no
// operator here iterates it.
package fmatrix

import (
	"fmt"
	"sync"

	"repro/internal/factor"
	"repro/internal/mat"
)

// Column is one feature column bound to an attribute of the factorizer.
// Vals[k] is the feature value of the attribute's k'th distinct value (in
// path-sorted order).
type Column struct {
	Name string
	Attr int
	Vals []float64
}

// Matrix is the factorised feature matrix: the implicit row set is the cross
// product of the factorizer's hierarchy paths; the columns are feature maps
// over attribute values.
//
// New tabulates, per hierarchy, the transitions the row iterator would emit
// (factor.Transitions) and resolves them against the columns once. The tables
// are O(Σ leaves·depth), not O(rows), and a Matrix is read-only after New, so
// concurrent fits may share one (and the factorizer beneath it).
type Matrix struct {
	F    *factor.Factorizer
	Cols []Column

	colsOfAttr [][]int // per attribute index: column indices bound to it

	// The row order as blocks: rows that share every leaf but the last
	// hierarchy's are contiguous. trans holds each hierarchy's emitted
	// changes; first and steps are their column-level form for Algorithm 4.
	trans []factor.Transitions
	first []delta     // row 0: every column takes its first value
	steps [][][]delta // steps[pos][l]: hierarchy pos moves its leaf l → l+1
}

// delta is one resolved change: column col moves by d. A change that leaves
// the column's value where it was (d == 0) is not recorded.
type delta struct {
	col int32
	d   float64
}

// New assembles a feature matrix and validates that every column's value
// table matches its attribute's cardinality.
func New(f *factor.Factorizer, cols []Column) (*Matrix, error) {
	m := &Matrix{F: f, Cols: cols, colsOfAttr: make([][]int, f.NumAttrs())}
	for ci, c := range cols {
		if c.Attr < 0 || c.Attr >= f.NumAttrs() {
			return nil, fmt.Errorf("fmatrix: column %q bound to attribute %d of %d", c.Name, c.Attr, f.NumAttrs())
		}
		a := f.Attrs()[c.Attr]
		if n := len(f.Chain(a.Hier).Levels[a.Level].Codes); len(c.Vals) != n {
			return nil, fmt.Errorf("fmatrix: column %q has %d values, attribute %q has %d",
				c.Name, len(c.Vals), a.Name, n)
		}
		m.colsOfAttr[c.Attr] = append(m.colsOfAttr[c.Attr], ci)
	}
	m.tabulate()
	return m, nil
}

// tabulate resolves the hierarchies' transitions against the columns. What a
// transition does to a column — d = new value − old value, skipped when zero
// — depends only on the hierarchy's own leaf, never on the row, so it is
// computed once here instead of once per row per operator call. When a
// hierarchy left of the last one steps, every hierarchy to its right wraps to
// its first leaf; those wraps are appended to the step's list, so entering a
// block of rows is always exactly one list.
func (m *Matrix) tabulate() {
	f := m.F
	nh := f.NumHierarchies()
	m.trans = make([]factor.Transitions, nh)
	m.steps = make([][][]delta, nh)
	cur := make([]int, f.NumAttrs()) // value index per attribute, -1 before row 0
	for a := range cur {
		cur[a] = -1
	}
	resolve := func(dst []delta, changes []factor.Change) []delta {
		for _, c := range changes {
			for _, ci := range m.colsOfAttr[c.Attr] {
				vals := m.Cols[ci].Vals
				var old float64
				if cur[c.Attr] >= 0 {
					old = vals[cur[c.Attr]]
				}
				if d := vals[c.Val] - old; d != 0 {
					dst = append(dst, delta{col: int32(ci), d: d})
				}
			}
			cur[c.Attr] = c.Val
		}
		return dst
	}
	for pos := range m.trans {
		m.trans[pos] = f.Transitions(pos)
		m.first = resolve(m.first, m.trans[pos].Enter)
	}
	var wraps []delta // of every hierarchy right of pos, left to right
	for pos := nh - 1; pos >= 0; pos-- {
		t := m.trans[pos]
		m.steps[pos] = make([][]delta, len(t.Step))
		for l, changes := range t.Step {
			m.steps[pos][l] = append(resolve(nil, changes), wraps...)
		}
		wraps = append(resolve(nil, t.Wrap), wraps...)
	}
}

// carry advances leaf — the odometer of the non-last hierarchies' leaves — to
// the next block of the row order and names the transition that enters it:
// the hierarchy position that steps and the leaf it steps from. The caller
// stops at the last row, so a position left of the full ones always exists.
func (m *Matrix) carry(leaf []int) (pos, from int) {
	pos = len(leaf) - 1
	for leaf[pos] == len(m.steps[pos]) {
		leaf[pos] = 0
		pos--
	}
	leaf[pos]++
	return pos, leaf[pos] - 1
}

// replay drives the row odometer over n rows, the caller having entered row
// 0: step(pos, l) moves hierarchy pos from leaf l to l+1 (every hierarchy
// right of it wraps to its first leaf), and emit receives each row's index
// once the row is current.
func (m *Matrix) replay(n int, step func(pos, l int), emit func(row int)) {
	last := len(m.steps) - 1
	sweep := len(m.steps[last])
	leaf := make([]int, last)
	for row := 0; row < n; {
		if row > 0 {
			step(m.carry(leaf))
		}
		emit(row)
		row++
		for l := 0; l < sweep; l++ {
			step(last, l)
			emit(row)
			row++
		}
	}
}

// NumCols returns the number of feature columns.
func (m *Matrix) NumCols() int { return len(m.Cols) }

// N returns the implicit number of rows.
func (m *Matrix) N() float64 { return m.F.N() }

// Materialize expands the factorised matrix into a dense one. It is
// exponential in the number of hierarchies and exists for the naive baseline
// and for tests.
func (m *Matrix) Materialize() (*mat.Matrix, error) {
	n, err := m.F.RowCount()
	if err != nil {
		return nil, err
	}
	k := len(m.Cols)
	out := mat.New(n, k)
	cur := make([]float64, k)
	set := func(changes []factor.Change) {
		for _, c := range changes {
			for _, ci := range m.colsOfAttr[c.Attr] {
				cur[ci] = m.Cols[ci].Vals[c.Val]
			}
		}
	}
	for _, t := range m.trans {
		set(t.Enter)
	}
	m.replay(n, func(pos, l int) {
		set(m.trans[pos].Step[l])
		for _, t := range m.trans[pos+1:] {
			set(t.Wrap)
		}
	}, func(row int) {
		copy(out.Data[row*k:(row+1)*k], cur)
	})
	return out, nil
}

// Gram computes XᵀX directly over the factorised representation
// (Algorithm 2). Each cell is a weighted sum over decomposed aggregates:
// COUNT for same-attribute pairs, chain-walked COF for same-hierarchy pairs,
// and the factorised product-of-sums for cross-hierarchy pairs.
func (m *Matrix) Gram() *mat.Matrix {
	k := len(m.Cols)
	out := mat.New(k, k)
	n := m.F.N()
	// Per-column weighted sums S_c = Σ_v COUNT[v]·f(v), shared by every
	// cross-hierarchy pair the column participates in.
	sums := make([]float64, k)
	for ci, c := range m.Cols {
		counts := m.F.CountVals(c.Attr)
		var s float64
		for v, cnt := range counts {
			s += cnt * c.Vals[v]
		}
		sums[ci] = s
	}
	for i := 0; i < k; i++ {
		for j := i; j < k; j++ {
			ci, cj := m.Cols[i], m.Cols[j]
			p, q := ci.Attr, cj.Attr
			fi, fj := ci.Vals, cj.Vals
			if p > q {
				p, q = q, p
				fi, fj = fj, fi
			}
			var cell float64
			switch {
			case p == q:
				counts := m.F.CountVals(p)
				for v, cnt := range counts {
					cell += cnt * fi[v] * fj[v]
				}
				cell *= n / m.F.SufTotal(p)
			case m.F.SameHierarchy(p, q):
				var s float64
				m.F.Cof(p, q, func(vp, vq int, cnt float64) {
					s += cnt * fi[vp] * fj[vq]
				})
				cell = s * n / m.F.SufTotal(p)
			default:
				// (n/SufTotal(p)) · S_p · S_q / SufTotal(q): the COF of two
				// independent hierarchies factorises into a product of the
				// columns' weighted sums.
				cell = n * sums[i] * sums[j] / (m.F.SufTotal(p) * m.F.SufTotal(q))
			}
			out.Set(i, j, cell)
			out.Set(j, i, cell)
		}
	}
	return out
}

// LeftMul computes B·X (Algorithm 3) where B is q×n. Each row of B is
// preprocessed into a prefix sum so every feature value's contiguous run is
// accumulated with one range sum.
func (m *Matrix) LeftMul(b *mat.Matrix) (*mat.Matrix, error) {
	n, err := m.F.RowCount()
	if err != nil {
		return nil, err
	}
	if b.Cols != n {
		return nil, fmt.Errorf("fmatrix: LeftMul shape mismatch: B is %dx%d, X has %d rows", b.Rows, b.Cols, n)
	}
	out := mat.New(b.Rows, len(m.Cols))
	for r := 0; r < b.Rows; r++ {
		prefix := mat.PrefixSum(b.Data[r*n : (r+1)*n])
		for ci, c := range m.Cols {
			out.Set(r, ci, m.leftMulColumn(prefix, c))
		}
	}
	return out, nil
}

// TMulVec computes Xᵀ·v (an m-vector) — the q=1 left multiplication used in
// every EM iteration.
func (m *Matrix) TMulVec(v []float64) ([]float64, error) {
	n, err := m.F.RowCount()
	if err != nil {
		return nil, err
	}
	if len(v) != n {
		return nil, fmt.Errorf("fmatrix: TMulVec length %d, want %d", len(v), n)
	}
	buf, _ := prefixPool.Get().(*[]float64)
	if buf == nil || cap(*buf) < n+1 {
		b := make([]float64, n+1)
		buf = &b
	}
	prefix := (*buf)[:n+1]
	prefix[0] = 0
	for i, x := range v {
		prefix[i+1] = prefix[i] + x
	}
	out := make([]float64, len(m.Cols))
	for ci, c := range m.Cols {
		out[ci] = m.leftMulColumn(prefix, c)
	}
	prefixPool.Put(buf)
	return out, nil
}

// prefixPool recycles TMulVec's n+1 prefix sums (mat.PrefixSum's recurrence,
// computed in place): EM calls TMulVec once per iteration, and a fresh
// n-vector each time is cleared by the allocator only to be overwritten.
var prefixPool sync.Pool

// leftMulColumn evaluates row·col for one column given the row's prefix
// sums. The column of an attribute at hierarchy position h consists of
// ProdBefore(h) repetitions of its suffix pattern; within one repetition each
// value v occupies Count[v] consecutive rows in path-sorted order.
func (m *Matrix) leftMulColumn(prefix []float64, c Column) float64 {
	f := m.F
	a := f.Attrs()[c.Attr]
	counts := f.CountVals(c.Attr)
	reps := int(f.ProdBefore(a.Hier))
	period := int(f.SufTotal(c.Attr))
	var result float64
	start := 0
	for k := 0; k < reps; k++ {
		pos := start
		for v, cnt := range counts {
			w := int(cnt)
			result += c.Vals[v] * mat.RangeSum(prefix, pos, pos+w)
			pos += w
		}
		start += period
	}
	return result
}

// RightMul computes X·A (Algorithm 4) where A is m×p: each output row is its
// predecessor plus d·A[col] for the columns that change there, replayed from
// the transition tables in the row iterator's change order.
func (m *Matrix) RightMul(a *mat.Matrix) (*mat.Matrix, error) {
	n, err := m.F.RowCount()
	if err != nil {
		return nil, err
	}
	if a.Rows != len(m.Cols) {
		return nil, fmt.Errorf("fmatrix: RightMul shape mismatch: A is %dx%d, X has %d cols", a.Rows, a.Cols, len(m.Cols))
	}
	p := a.Cols
	out := mat.New(n, p)
	acc := make([]float64, p)
	apply := func(list []delta) {
		for _, e := range list {
			arow := a.Data[int(e.col)*p : (int(e.col)+1)*p]
			for j := range acc {
				acc[j] += e.d * arow[j]
			}
		}
	}
	apply(m.first)
	m.replay(n, func(pos, l int) {
		apply(m.steps[pos][l])
	}, func(row int) {
		copy(out.Data[row*p:(row+1)*p], acc)
	})
	return out, nil
}

// MulVec computes X·w (an n-vector) — the p = 1 right multiplication.
func (m *Matrix) MulVec(w []float64) ([]float64, error) {
	n, err := m.F.RowCount()
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	if err := m.MulVecTo(out, w); err != nil {
		return nil, err
	}
	return out, nil
}

// MulVecTo writes X·w into dst, which must have one element per row — what
// every EM iteration asks for. It is RightMul's replay written out for a
// scalar accumulator: one multiply-add per changed column per row.
func (m *Matrix) MulVecTo(dst, w []float64) error {
	if len(w) != len(m.Cols) {
		return fmt.Errorf("fmatrix: MulVec length %d, want %d", len(w), len(m.Cols))
	}
	if n, err := m.F.RowCount(); err != nil {
		return err
	} else if len(dst) != n {
		return fmt.Errorf("fmatrix: MulVec destination has %d elements for %d rows", len(dst), n)
	}
	last := len(m.steps) - 1
	leaf := make([]int, last)
	var acc float64
	list := m.first
	for row := 0; row < len(dst); {
		if row > 0 {
			pos, l := m.carry(leaf)
			list = m.steps[pos][l]
		}
		for _, e := range list {
			acc += e.d * w[e.col]
		}
		dst[row] = acc
		row++
		for _, list := range m.steps[last] {
			for _, e := range list {
				acc += e.d * w[e.col]
			}
			dst[row] = acc
			row++
		}
	}
	return nil
}
