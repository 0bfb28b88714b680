package fmatrix

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/factor"
)

// benchMatrix builds a 4-hierarchy, w=10 matrix (10^4 rows, 12 columns).
func benchMatrix(b *testing.B) *Matrix {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	srcs := make([]*factor.Source, 4)
	for h := 0; h < 4; h++ {
		paths := make([][]string, 10)
		for i := range paths {
			paths[i] = []string{fmt.Sprintf("h%d_v%d", h, i)}
		}
		src, err := factor.NewSource(fmt.Sprintf("h%d", h), []string{fmt.Sprintf("a%d", h)}, paths)
		if err != nil {
			b.Fatal(err)
		}
		srcs[h] = src
	}
	f, err := factor.New(srcs, nil)
	if err != nil {
		b.Fatal(err)
	}
	var cols []Column
	for ai := 0; ai < f.NumAttrs(); ai++ {
		for c := 0; c < 3; c++ {
			fv := make([]float64, 10)
			for i := range fv {
				fv[i] = rng.NormFloat64()
			}
			cols = append(cols, Column{Name: fmt.Sprintf("a%d_f%d", ai, c), Attr: ai, Vals: fv})
		}
	}
	m, err := New(f, cols)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkGramFactorised(b *testing.B) {
	m := benchMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Gram()
	}
}

func BenchmarkGramNaive(b *testing.B) {
	m := benchMatrix(b)
	x, err := m.Materialize()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Gram()
	}
}

func BenchmarkMaterialize(b *testing.B) {
	m := benchMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Materialize(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTMulVecFactorised(b *testing.B) {
	m := benchMatrix(b)
	n, _ := m.F.RowCount()
	v := make([]float64, n)
	rng := rand.New(rand.NewSource(2))
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.TMulVec(v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTMulVecNaive(b *testing.B) {
	m := benchMatrix(b)
	x, _ := m.Materialize()
	v := make([]float64, x.Rows)
	rng := rand.New(rand.NewSource(2))
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.TMulVec(v)
	}
}

func BenchmarkMulVecFactorised(b *testing.B) {
	m := benchMatrix(b)
	w := make([]float64, m.NumCols())
	rng := rand.New(rand.NewSource(3))
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.MulVec(w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMulVecNaive(b *testing.B) {
	m := benchMatrix(b)
	x, _ := m.Materialize()
	w := make([]float64, x.Cols)
	rng := rand.New(rand.NewSource(3))
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.MulVec(w)
	}
}

func BenchmarkClusterViews(b *testing.B) {
	m := benchMatrix(b)
	cl, err := m.Clusters()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink float64
		for ci := 0; ci < cl.NumClusters(); ci++ {
			v, err := cl.View(ci)
			if err != nil {
				b.Fatal(err)
			}
			sink += v.Gram().At(0, 0)
		}
		_ = sink
	}
}
