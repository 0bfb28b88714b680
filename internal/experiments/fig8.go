package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/factor"
	"repro/internal/fmatrix"
	"repro/internal/mat"
)

// Fig8Row is one measurement of the Figure 8 multi-query execution
// comparison over one XᵀX: the served work-shared plan (fmatrix.Gram) vs the
// serial, COF-materialising (LMFAO-style) plan.
type Fig8Row struct {
	Cardinality int
	Shared      time.Duration
	Serial      time.Duration
}

// chainSource builds a t-level hierarchy with roughly w leaves arranged as a
// balanced tree.
func chainSource(name string, t, w int) *factor.Source {
	attrs, paths := chainPaths(name, t, w)
	src, err := factor.NewSource(name, attrs, paths)
	if err != nil {
		panic(err)
	}
	return src
}

// chainPaths returns chainSource's attributes and paths, in the order the
// tree is built.
func chainPaths(name string, t, w int) (attrs []string, paths [][]string) {
	attrs = make([]string, t)
	for l := range attrs {
		attrs[l] = fmt.Sprintf("%s_a%d", name, l)
	}
	// Fanout per level so that fanout^t ≈ w.
	fan := 1
	for pow(fan+1, t) <= w {
		fan++
	}
	var build func(prefix []string, level, id int)
	next := 0
	build = func(prefix []string, level, id int) {
		if level == t {
			paths = append(paths, append([]string(nil), prefix...))
			return
		}
		k := fan
		if level == t-1 {
			// Stretch the leaf level toward the requested cardinality.
			k = fan + (w-pow(fan, t))/max(1, pow(fan, t-1))
			if k < 1 {
				k = 1
			}
		}
		for c := 0; c < k; c++ {
			next++
			build(append(prefix, fmt.Sprintf("%s_l%d_%d", name, level, next)), level+1, next)
		}
	}
	build(nil, 0, 0)
	return attrs, paths
}

func pow(b, e int) int {
	r := 1
	for i := 0; i < e; i++ {
		r *= b
	}
	return r
}

// fig8Matrix is the matrix Figure 8 multiplies out: three 3-level chains of
// about w leaves each, one feature column per attribute, each value's feature
// a fixed positive number (so no cell of XᵀX cancels toward zero, and a
// relative comparison of two plans stays meaningful).
func fig8Matrix(w int) *fmatrix.Matrix {
	fz, err := factor.New([]*factor.Source{chainSource("h0", 3, w), chainSource("h1", 3, w), chainSource("h2", 3, w)}, []int{3, 3, 3})
	if err != nil {
		panic(err)
	}
	cols := make([]fmatrix.Column, fz.NumAttrs())
	for ai := range cols {
		fv := make([]float64, len(fz.CountVals(ai)))
		for v := range fv {
			fv[v] = 1 + float64((7*v+3*ai)%13)/13
		}
		cols[ai] = fmatrix.Column{Name: fmt.Sprintf("a%d", ai), Attr: ai, Vals: fv}
	}
	m, err := fmatrix.New(fz, cols)
	if err != nil {
		panic(err)
	}
	return m
}

// serialGram is Figure 8's baseline, a serial LMFAO-style plan for the XᵀX
// fmatrix.Gram serves: every cell is its own query, and no aggregate is
// shared between cells. A cell over one attribute reads COUNT afresh; any
// other cell materialises COF as a dense |dom(p)|×|dom(q)| table,
// cross-hierarchy pairs included — the product the served plan never builds.
// It reads the factorizer only through exported methods.
func serialGram(m *fmatrix.Matrix) *mat.Matrix {
	f := m.F
	k := len(m.Cols)
	out := mat.New(k, k)
	for i := 0; i < k; i++ {
		for j := i; j < k; j++ {
			p, q := m.Cols[i].Attr, m.Cols[j].Attr
			fp, fq := m.Cols[i].Vals, m.Cols[j].Vals
			if p > q {
				p, q = q, p
				fp, fq = fq, fp
			}
			var s float64
			if p == q {
				counts := f.CountVals(p)
				for v, cnt := range counts {
					s += cnt * fp[v] * fq[v]
				}
			} else {
				cof := make([]float64, len(fp)*len(fq))
				f.Cof(p, q, func(vp, vq int, cnt float64) { cof[vp*len(fq)+vq] += cnt })
				for vp, a := range fp {
					for vq, b := range fq {
						s += cof[vp*len(fq)+vq] * a * b
					}
				}
			}
			cell := s * f.N() / f.SufTotal(p)
			out.Set(i, j, cell)
			out.Set(j, i, cell)
		}
	}
	return out
}

// gramsAgree reports whether every cell of a and b agrees to within rel of
// the larger magnitude.
func gramsAgree(a, b *mat.Matrix, rel float64) bool {
	for i, x := range a.Data {
		y := b.Data[i]
		if math.Abs(x-y) > rel*math.Max(math.Abs(x), math.Abs(y)) {
			return false
		}
	}
	return true
}

// Fig8 sweeps the attribute cardinality over three 3-level hierarchies and
// times one XᵀX with one column per attribute, computed two ways: by the
// served work-shared plan (fmatrix.Gram: COUNT shared through the chains'
// extension counts, cross-hierarchy COF kept factorised) and by the serial
// baseline (serialGram). The two matrices must agree to a relative 1e-9.
func Fig8(cards []int) ([]Fig8Row, *Table) {
	if len(cards) == 0 {
		cards = []int{200, 400, 800, 1600}
	}
	var rows []Fig8Row
	for _, w := range cards {
		m := fig8Matrix(w)
		var shared, serial *mat.Matrix
		tShared := timeIt(func() { shared = m.Gram() })
		tSerial := timeIt(func() { serial = serialGram(m) })
		if !gramsAgree(shared, serial, 1e-9) {
			panic(fmt.Sprintf("fig8: served and serial XᵀX disagree at cardinality %d", w))
		}
		rows = append(rows, Fig8Row{Cardinality: w, Shared: tShared, Serial: tSerial})
	}
	t := &Table{
		Title:  "Figure 8: XᵀX, served work-shared plan (fmatrix.Gram) vs serial COF-materialising plan (LMFAO-style)",
		Header: []string{"cardinality", "serial", "shared", "speedup"},
	}
	for _, r := range rows {
		t.Add(r.Cardinality, r.Serial, r.Shared, ratio(r.Serial, r.Shared))
	}
	return rows, t
}
