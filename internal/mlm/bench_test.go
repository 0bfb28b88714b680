package mlm

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/factor"
	"repro/internal/fmatrix"
	"repro/internal/mat"
)

func benchData(b *testing.B, G, size int) (*Dense, []float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	x, y, starts, _ := clusteredData(rng, G, size)
	d, err := NewDense(x, starts)
	if err != nil {
		b.Fatal(err)
	}
	return d, y
}

func BenchmarkFitEMScalarZ(b *testing.B) {
	d, y := benchData(b, 200, 20)
	iz := NewInterceptZ(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitEMZ(d, iz, y, Options{Iterations: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// deepFitDesign builds the benchmark's deep_fit shape: three hierarchies of
// 30 × 24 × 16 = 11,520 leaf combinations (depths 3, 2, 2), an intercept and
// four main-effect-like columns, as a factorised backend, its materialized
// dense twin and a y vector.
func deepFitDesign(tb testing.TB) (*Factorised, *Dense, []float64) {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	fans := [][]int{{3, 2, 5}, {2, 12}, {4, 4}}
	srcs := make([]*factor.Source, len(fans))
	depths := make([]int, len(fans))
	for h, fan := range fans {
		attrs := make([]string, len(fan))
		for l := range attrs {
			attrs[l] = fmt.Sprintf("h%d_l%d", h, l)
		}
		paths := [][]string{{}}
		for l, n := range fan {
			var next [][]string
			for pi, p := range paths {
				for k := 0; k < n; k++ {
					next = append(next, append(append([]string(nil), p...), fmt.Sprintf("h%d_l%d_%03d_%02d", h, l, pi, k)))
				}
			}
			paths = next
		}
		src, err := factor.NewSource(fmt.Sprintf("h%d", h), attrs, paths)
		if err != nil {
			tb.Fatal(err)
		}
		srcs[h], depths[h] = src, len(fan)
	}
	f, err := factor.New(srcs, depths)
	if err != nil {
		tb.Fatal(err)
	}
	var cols []fmatrix.Column
	for _, ai := range []int{0, 1, 2, 4, 6} { // attr 0 twice: intercept first
		vals, _ := f.CountVals(ai)
		fv := make([]float64, len(vals))
		for i := range fv {
			fv[i] = 1
			if len(cols) > 0 {
				fv[i] = rng.NormFloat64()
			}
		}
		cols = append(cols, fmatrix.Column{Name: fmt.Sprintf("c%d", len(cols)), Attr: ai, Vals: fv})
	}
	fm, err := fmatrix.New(f, cols)
	if err != nil {
		tb.Fatal(err)
	}
	fb, db := denseTwin(tb, fm)
	y := make([]float64, fb.NumRows())
	for i := range y {
		y[i] = 50 + 10*rng.NormFloat64()
	}
	return fb, db, y
}

// BenchmarkFitEMFactorisedVsDense fits the same 11,520-row random-intercept
// model over the factorised and the materialized design — the comparison the
// paper's §5.1 claim is about, at the shape the repository benchmark's
// deep_fit workload trains.
func BenchmarkFitEMFactorisedVsDense(b *testing.B) {
	fb, db, y := deepFitDesign(b)
	for _, bk := range []struct {
		name string
		b    Backend
	}{{"factorised", fb}, {"dense", db}} {
		b.Run(bk.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := FitEMZ(bk.b, NewInterceptZ(bk.b), y, Options{Iterations: 20}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFitEMIterations fits the deep_fit shape with 5, 20 and 80 EM
// iterations. The rows are read at set-up only and the random-intercept
// iteration runs on one set of sums per cluster-size class — one class here,
// as at every deep_fit leaf state — so ns/op and allocs/op stay flat as the
// iterations grow. ragged is the worst case for the size classes: dense X with
// a random Z column, so every one of the 2,304 clusters has its own zᵢᵀzᵢ and
// is a class of its own, and an iteration costs O(clusters·p²).
func BenchmarkFitEMIterations(b *testing.B) {
	fb, db, y := deepFitDesign(b)
	rng := rand.New(rand.NewSource(2))
	zr := mat.New(db.X.Rows, 1)
	for i := range zr.Data {
		zr.Data[i] = rng.NormFloat64()
	}
	ragged, err := NewDense(zr, db.starts)
	if err != nil {
		b.Fatal(err)
	}
	for _, bk := range []struct {
		name   string
		bx, bz Backend
	}{{"factorised", fb, NewInterceptZ(fb)}, {"dense", db, NewInterceptZ(db)}, {"ragged", db, ragged}} {
		for _, iters := range []int{5, 20, 80} {
			b.Run(fmt.Sprintf("%s/iterations=%d", bk.name, iters), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := FitEMZ(bk.bx, bk.bz, y, Options{Iterations: iters}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkFitEMFullZ(b *testing.B) {
	d, y := benchData(b, 200, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitEMZ(d, d, y, Options{Iterations: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitLinear(b *testing.B) {
	d, y := benchData(b, 200, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitLinear(d.X, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLogLik(b *testing.B) {
	d, y := benchData(b, 100, 20)
	iz := NewInterceptZ(d)
	m, err := FitEMZ(d, iz, y, Options{Iterations: 5})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.LogLik(d, iz, y)
	}
}
