package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/factor"
	"repro/internal/fmatrix"
	"repro/internal/mat"
)

// Fig15Row is one measurement of the Appendix F per-cluster matrix
// operation comparison.
type Fig15Row struct {
	Hierarchies int
	Op          string
	Naive       time.Duration
	Factorised  time.Duration
}

// fig15Matrix builds the Appendix F configuration: d hierarchies, each a
// three-level chain whose leaf level has 10 values (so X is 10^d × 3d and
// each cluster Xᵢ is 10 × 3d, 10^{d-1} clusters in total).
func fig15Matrix(d int, rng *rand.Rand) *fmatrix.Matrix {
	srcs := make([]*factor.Source, d)
	for h := 0; h < d; h++ {
		paths := make([][]string, 10)
		for i := range paths {
			paths[i] = []string{
				fmt.Sprintf("h%d_top", h),
				fmt.Sprintf("h%d_mid", h),
				fmt.Sprintf("h%d_leaf%d", h, i),
			}
		}
		src, err := factor.NewSource(fmt.Sprintf("h%d", h), []string{
			fmt.Sprintf("h%d_a0", h), fmt.Sprintf("h%d_a1", h), fmt.Sprintf("h%d_a2", h),
		}, paths)
		if err != nil {
			panic(err)
		}
		srcs[h] = src
	}
	fz, err := factor.New(srcs, []int{3, 3, 3, 3, 3, 3, 3}[:d])
	if err != nil {
		panic(err)
	}
	var cols []fmatrix.Column
	for ai := 0; ai < fz.NumAttrs(); ai++ {
		fv := make([]float64, len(fz.CountVals(ai)))
		for i := range fv {
			fv[i] = rng.NormFloat64()
		}
		cols = append(cols, fmatrix.Column{Name: fmt.Sprintf("a%d", ai), Attr: ai, Vals: fv})
	}
	m, err := fmatrix.New(fz, cols)
	if err != nil {
		panic(err)
	}
	return m
}

// Fig15 measures per-cluster gram, left and right multiplication over every
// cluster, factorised vs naive slicing of the materialized matrix.
func Fig15(maxD int, seed int64) ([]Fig15Row, *Table) {
	if maxD <= 0 {
		maxD = 5
	}
	rng := rand.New(rand.NewSource(seed))
	var rows []Fig15Row
	for d := 1; d <= maxD; d++ {
		m := fig15Matrix(d, rng)
		x, err := m.Materialize()
		if err != nil {
			panic(err)
		}
		cl, err := m.Clusters()
		if err != nil {
			panic(err)
		}
		G := cl.NumClusters()
		mcols := x.Cols

		// Pre-generate per-cluster random operands (excluded from timing).
		lvecs := make([][]float64, G)
		rvecs := make([][]float64, G)
		views := make([]*fmatrix.View, G)
		for c := 0; c < G; c++ {
			v, err := cl.View(c)
			if err != nil {
				panic(err)
			}
			views[c] = v
			lv := make([]float64, v.N)
			for i := range lv {
				lv[i] = rng.NormFloat64()
			}
			lvecs[c] = lv
			rv := make([]float64, mcols)
			for i := range rv {
				rv[i] = rng.NormFloat64()
			}
			rvecs[c] = rv
		}
		subs := make([]*mat.Matrix, G)
		for c, v := range views {
			sub := mat.New(v.N, mcols)
			copy(sub.Data, x.Data[v.Start*mcols:(v.Start+v.N)*mcols])
			subs[c] = sub
		}

		// Repeat the sweep over all clusters enough times to amortize timer
		// granularity and GC noise, then report the per-sweep time.
		reps := 1 + 50000/G
		timeReps := func(fn func()) time.Duration {
			total := timeIt(func() {
				for r := 0; r < reps; r++ {
					fn()
				}
			})
			return total / time.Duration(reps)
		}

		var sink float64
		tGramNaive := timeReps(func() {
			for c := range subs {
				sink += subs[c].Gram().At(0, 0)
			}
		})
		tGramFact := timeReps(func() {
			for _, v := range views {
				sink += v.Gram().At(0, 0)
			}
		})
		rows = append(rows, Fig15Row{d, "cluster-gram", tGramNaive, tGramFact})

		tLeftNaive := timeReps(func() {
			for c := range subs {
				sink += subs[c].TMulVec(lvecs[c])[0]
			}
		})
		tLeftFact := timeReps(func() {
			for c, v := range views {
				sink += v.TMulVec(lvecs[c])[0]
			}
		})
		rows = append(rows, Fig15Row{d, "cluster-leftmul", tLeftNaive, tLeftFact})

		tRightNaive := timeReps(func() {
			for c := range subs {
				sink += subs[c].MulVec(rvecs[c])[0]
			}
		})
		tRightFact := timeReps(func() {
			for c, v := range views {
				sink += v.MulVec(rvecs[c])[0]
			}
		})
		rows = append(rows, Fig15Row{d, "cluster-rightmul", tRightNaive, tRightFact})
		_ = sink
	}
	t := &Table{
		Title:  "Figure 15 (App. F): per-cluster matrix operations vs Lapack-style slicing",
		Header: []string{"d", "op", "naive", "factorised", "speedup"},
	}
	for _, r := range rows {
		t.Add(r.Hierarchies, r.Op, r.Naive, r.Factorised, ratio(r.Naive, r.Factorised))
	}
	return rows, t
}
