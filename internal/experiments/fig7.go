package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/factor"
	"repro/internal/fmatrix"
	"repro/internal/mat"
)

// Fig7Row is one measurement of Figure 7: a matrix operation at d
// hierarchies, comparing the Lapack-style implementation over the
// materialized matrix with the factorised implementation.
type Fig7Row struct {
	Hierarchies int
	Op          string
	Naive       time.Duration
	Factorised  time.Duration
}

// flatSource builds a single-attribute hierarchy with w values.
func flatSource(name string, w int) *factor.Source {
	paths := make([][]string, w)
	for i := range paths {
		paths[i] = []string{fmt.Sprintf("%s_v%02d", name, i)}
	}
	src, err := factor.NewSource(name, []string{name}, paths)
	if err != nil {
		panic(err)
	}
	return src
}

// fig7Matrix builds the Figure 7 configuration: d single-attribute
// hierarchies of cardinality w, three feature columns per attribute, so X is
// w^d × 3d.
func fig7Matrix(d, w int, rng *rand.Rand) *fmatrix.Matrix {
	srcs := make([]*factor.Source, d)
	for h := 0; h < d; h++ {
		srcs[h] = flatSource(fmt.Sprintf("h%d", h), w)
	}
	fz, err := factor.New(srcs, nil)
	if err != nil {
		panic(err)
	}
	var cols []fmatrix.Column
	for ai := 0; ai < fz.NumAttrs(); ai++ {
		n := len(fz.CountVals(ai))
		for c := 0; c < 3; c++ {
			fv := make([]float64, n)
			for i := range fv {
				fv[i] = rng.NormFloat64()
			}
			cols = append(cols, fmatrix.Column{Name: fmt.Sprintf("a%d_f%d", ai, c), Attr: ai, Vals: fv})
		}
	}
	m, err := fmatrix.New(fz, cols)
	if err != nil {
		panic(err)
	}
	return m
}

// Fig7 measures matrix materialization, gram matrix, left multiplication and
// right multiplication for d = 1..maxD hierarchies (paper: w = 10, d up to
// 7; the materialized matrix is w^d × 3d, so memory bounds maxD here).
func Fig7(maxD int, seed int64) ([]Fig7Row, *Table) {
	if maxD <= 0 {
		maxD = 6
	}
	rng := rand.New(rand.NewSource(seed))
	var rows []Fig7Row
	for d := 1; d <= maxD; d++ {
		m := fig7Matrix(d, 10, rng)
		var x *mat.Matrix
		tMatNaive := timeIt(func() {
			var err error
			x, err = m.Materialize()
			if err != nil {
				panic(err)
			}
		})
		// Factorised "materialization" is the construction of the
		// f-representation itself, which the factorizer already holds; we
		// measure rebuilding the per-column aggregates.
		tMatFact := timeIt(func() {
			for ai := 0; ai < m.F.NumAttrs(); ai++ {
				m.F.CountVals(ai)
			}
		})
		rows = append(rows, Fig7Row{d, "materialize", tMatNaive, tMatFact})

		var g1, g2 *mat.Matrix
		tGramNaive := timeIt(func() { g1 = x.Gram() })
		tGramFact := timeIt(func() { g2 = m.Gram() })
		if !g1.EqualApprox(g2, 1e-6*(1+m.N())) {
			panic("fig7: gram mismatch")
		}
		rows = append(rows, Fig7Row{d, "gram", tGramNaive, tGramFact})

		// Left multiplication with a random 1 × w^d matrix.
		b := mat.New(1, x.Rows)
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		var l1, l2 *mat.Matrix
		tLeftNaive := timeIt(func() { l1 = b.Mul(x) })
		tLeftFact := timeIt(func() {
			var err error
			l2, err = m.LeftMul(b)
			if err != nil {
				panic(err)
			}
		})
		if !l1.EqualApprox(l2, 1e-5*(1+m.N())) {
			panic("fig7: left multiplication mismatch")
		}
		rows = append(rows, Fig7Row{d, "leftmul", tLeftNaive, tLeftFact})

		// Right multiplication with a random 3d × 1 matrix.
		a := mat.New(x.Cols, 1)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		var r1, r2 *mat.Matrix
		tRightNaive := timeIt(func() { r1 = x.Mul(a) })
		tRightFact := timeIt(func() {
			var err error
			r2, err = m.RightMul(a)
			if err != nil {
				panic(err)
			}
		})
		if !r1.EqualApprox(r2, 1e-6*float64(x.Cols)) {
			panic("fig7: right multiplication mismatch")
		}
		rows = append(rows, Fig7Row{d, "rightmul", tRightNaive, tRightFact})
	}
	t := &Table{
		Title:  "Figure 7: matrix operation runtimes vs Lapack-style implementation (w=10)",
		Header: []string{"d", "op", "naive", "factorised", "speedup"},
	}
	for _, r := range rows {
		t.Add(r.Hierarchies, r.Op, r.Naive, r.Factorised, ratio(r.Naive, r.Factorised))
	}
	return rows, t
}
