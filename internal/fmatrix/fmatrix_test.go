package fmatrix

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/factor"
	"repro/internal/mat"
)

// paperMatrix builds the Figure 3 example: Time = {t1, t2}, Geo with
// d1 → {v1, v2}, d2 → {v3}, with one feature column per attribute plus an
// intercept bound to the first attribute.
func paperMatrix(t testing.TB) *Matrix {
	t.Helper()
	timeSrc, err := factor.NewSource("time", []string{"T"}, [][]string{{"t1"}, {"t2"}})
	if err != nil {
		t.Fatal(err)
	}
	geoSrc, err := factor.NewSource("geo", []string{"D", "V"}, [][]string{
		{"d1", "v1"}, {"d1", "v2"}, {"d2", "v3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := factor.New([]*factor.Source{timeSrc, geoSrc}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	cols := []Column{
		{Name: "intercept", Attr: 0, Vals: []float64{1, 1}},
		{Name: "fT", Attr: 0, Vals: []float64{10, 20}},
		{Name: "fD", Attr: 1, Vals: []float64{1, 2}},
		{Name: "fV", Attr: 2, Vals: []float64{0.5, 1.5, 2.5}},
	}
	m, err := New(f, cols)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	m := paperMatrix(t)
	if _, err := New(m.F, []Column{{Name: "bad", Attr: 99, Vals: nil}}); err == nil {
		t.Error("expected error for out-of-range attribute")
	}
	if _, err := New(m.F, []Column{{Name: "bad", Attr: 0, Vals: []float64{1}}}); err == nil {
		t.Error("expected error for cardinality mismatch")
	}
}

func TestMaterializePaperExample(t *testing.T) {
	m := paperMatrix(t)
	x, err := m.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	want := mat.FromRows([][]float64{
		{1, 10, 1, 0.5},
		{1, 10, 1, 1.5},
		{1, 10, 2, 2.5},
		{1, 20, 1, 0.5},
		{1, 20, 1, 1.5},
		{1, 20, 2, 2.5},
	})
	if !x.EqualApprox(want, 1e-12) {
		t.Errorf("Materialize =\n%v\nwant\n%v", x, want)
	}
}

func TestGramMatchesNaive(t *testing.T) {
	m := paperMatrix(t)
	x, err := m.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !m.Gram().EqualApprox(x.Gram(), 1e-9) {
		t.Errorf("factorised Gram =\n%v\nnaive =\n%v", m.Gram(), x.Gram())
	}
}

func TestLeftMulMatchesNaive(t *testing.T) {
	m := paperMatrix(t)
	x, _ := m.Materialize()
	rng := rand.New(rand.NewSource(7))
	b := mat.New(3, x.Rows)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	got, err := m.LeftMul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := b.Mul(x)
	if !got.EqualApprox(want, 1e-9) {
		t.Errorf("LeftMul =\n%v\nwant\n%v", got, want)
	}
}

func TestRightMulMatchesNaive(t *testing.T) {
	m := paperMatrix(t)
	x, _ := m.Materialize()
	rng := rand.New(rand.NewSource(8))
	a := mat.New(x.Cols, 2)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	got, err := m.RightMul(a)
	if err != nil {
		t.Fatal(err)
	}
	want := x.Mul(a)
	if !got.EqualApprox(want, 1e-9) {
		t.Errorf("RightMul =\n%v\nwant\n%v", got, want)
	}
}

func TestVecHelpers(t *testing.T) {
	m := paperMatrix(t)
	x, _ := m.Materialize()
	w := []float64{1, 0.5, -1, 2}
	got, err := m.MulVec(w)
	if err != nil {
		t.Fatal(err)
	}
	want := x.MulVec(w)
	for i := range want {
		if d := got[i] - want[i]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("MulVec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	v := []float64{1, -1, 2, 0, 3, -2}
	gotT, err := m.TMulVec(v)
	if err != nil {
		t.Fatal(err)
	}
	wantT := x.TMulVec(v)
	for i := range wantT {
		if d := gotT[i] - wantT[i]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("TMulVec[%d] = %v, want %v", i, gotT[i], wantT[i])
		}
	}
	if _, err := m.MulVec([]float64{1}); err == nil {
		t.Error("expected MulVec length error")
	}
	if _, err := m.TMulVec([]float64{1}); err == nil {
		t.Error("expected TMulVec length error")
	}
}

// TestMulVecLengthError: over a random matrix, MulVec refuses a weight vector
// one longer than the columns, and MulVecTo a destination one longer than the
// rows.
func TestMulVecLengthError(t *testing.T) {
	m := randomMatrix(rand.New(rand.NewSource(5)))
	if _, err := m.MulVec(make([]float64, len(m.Cols)+1)); err == nil {
		t.Error("expected length error")
	}
	n, err := m.F.RowCount()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.MulVecTo(make([]float64, n+1), make([]float64, len(m.Cols))); err == nil {
		t.Error("expected destination length error")
	}
}

// randomMatrix builds a random forest of hierarchies with random feature
// columns (possibly several per attribute).
func randomMatrix(r *rand.Rand) *Matrix {
	nh := 1 + r.Intn(3)
	srcs := make([]*factor.Source, nh)
	for h := 0; h < nh; h++ {
		depth := 1 + r.Intn(3)
		attrs := make([]string, depth)
		for l := range attrs {
			attrs[l] = fmt.Sprintf("h%d_a%d", h, l)
		}
		var paths [][]string
		id := 0
		var build func(prefix []string, level int)
		build = func(prefix []string, level int) {
			if level == depth {
				paths = append(paths, append([]string(nil), prefix...))
				return
			}
			kids := 1 + r.Intn(3)
			for k := 0; k < kids; k++ {
				id++
				build(append(prefix, fmt.Sprintf("h%d_l%d_%d", h, level, id)), level+1)
			}
		}
		build(nil, 0)
		src, err := factor.NewSource(fmt.Sprintf("h%d", h), attrs, paths)
		if err != nil {
			panic(err)
		}
		srcs[h] = src
	}
	depths := make([]int, nh)
	for h := range depths {
		depths[h] = 1 + r.Intn(len(srcs[h].Attrs))
	}
	f, err := factor.New(srcs, depths)
	if err != nil {
		panic(err)
	}
	var cols []Column
	for ai := 0; ai < f.NumAttrs(); ai++ {
		vals := f.CountVals(ai)
		ncols := 1 + r.Intn(2)
		for c := 0; c < ncols; c++ {
			fv := make([]float64, len(vals))
			for i := range fv {
				fv[i] = r.NormFloat64()
			}
			cols = append(cols, Column{Name: fmt.Sprintf("a%d_c%d", ai, c), Attr: ai, Vals: fv})
		}
	}
	m, err := New(f, cols)
	if err != nil {
		panic(err)
	}
	return m
}

// The central invariant of the paper's §4.2: every factorised operation
// agrees with the naive operation over the materialized matrix.
func TestFactorisedOpsMatchNaiveProperty(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		m := randomMatrix(r)
		if m.N() > 3000 {
			continue
		}
		x, err := m.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if !m.Gram().EqualApprox(x.Gram(), 1e-6) {
			t.Fatalf("trial %d: Gram mismatch", trial)
		}
		b := mat.New(2, x.Rows)
		for i := range b.Data {
			b.Data[i] = r.NormFloat64()
		}
		left, err := m.LeftMul(b)
		if err != nil {
			t.Fatal(err)
		}
		if !left.EqualApprox(b.Mul(x), 1e-6) {
			t.Fatalf("trial %d: LeftMul mismatch", trial)
		}
		a := mat.New(x.Cols, 2)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
		}
		right, err := m.RightMul(a)
		if err != nil {
			t.Fatal(err)
		}
		if !right.EqualApprox(x.Mul(a), 1e-6) {
			t.Fatalf("trial %d: RightMul mismatch", trial)
		}
	}
}

func TestClustersPartitionRows(t *testing.T) {
	m := paperMatrix(t)
	cl, err := m.Clusters()
	if err != nil {
		t.Fatal(err)
	}
	// Last hierarchy is Geo at depth 2 → parents are districts (2) ×
	// prefix combinations = 2 times → 4 clusters.
	if cl.NumClusters() != 4 {
		t.Fatalf("NumClusters = %d, want 4", cl.NumClusters())
	}
	total := 0
	prevEnd := 0
	for ci := 0; ci < cl.NumClusters(); ci++ {
		v, err := cl.View(ci)
		if err != nil {
			t.Fatal(err)
		}
		if v.Start != prevEnd {
			t.Errorf("cluster %d starts at %d, want %d", v.Index, v.Start, prevEnd)
		}
		prevEnd = v.Start + v.N
		total += v.N
	}
	if total != 6 {
		t.Errorf("clusters cover %d rows, want 6", total)
	}
}

func TestClusterViewOutOfRange(t *testing.T) {
	m := paperMatrix(t)
	cl, _ := m.Clusters()
	if _, err := cl.View(99); err == nil {
		t.Error("expected out-of-range error")
	}
}

// Property: per-cluster factorised ops agree with naive ops over the
// materialized sub-matrices.
func TestClusterOpsMatchNaiveProperty(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		r := rand.New(rand.NewSource(int64(500 + trial)))
		m := randomMatrix(r)
		if m.N() > 2000 {
			continue
		}
		x, err := m.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		cl, err := m.Clusters()
		if err != nil {
			t.Fatal(err)
		}
		covered := 0
		for ci := 0; ci < cl.NumClusters(); ci++ {
			v, err := cl.View(ci)
			if err != nil {
				t.Fatal(err)
			}
			// Slice the materialized matrix to this cluster.
			sub := mat.New(v.N, x.Cols)
			copy(sub.Data, x.Data[v.Start*x.Cols:(v.Start+v.N)*x.Cols])
			covered += v.N
			if !v.Gram().EqualApprox(sub.Gram(), 1e-6) {
				t.Fatalf("trial %d cluster %d: Gram mismatch\nfact=\n%v\nnaive=\n%v", trial, v.Index, v.Gram(), sub.Gram())
			}
			rvec := make([]float64, v.N)
			for i := range rvec {
				rvec[i] = r.NormFloat64()
			}
			gotT := v.TMulVec(rvec)
			wantT := sub.TMulVec(rvec)
			for i := range wantT {
				if d := gotT[i] - wantT[i]; d > 1e-6 || d < -1e-6 {
					t.Fatalf("trial %d cluster %d: TMulVec mismatch", trial, v.Index)
				}
			}
			w := make([]float64, x.Cols)
			for i := range w {
				w[i] = r.NormFloat64()
			}
			gotM := v.MulVec(w)
			wantM := sub.MulVec(w)
			for i := range wantM {
				if d := gotM[i] - wantM[i]; d > 1e-6 || d < -1e-6 {
					t.Fatalf("trial %d cluster %d: MulVec mismatch", trial, v.Index)
				}
			}
		}
		if covered != int(m.N()) {
			t.Fatalf("trial %d: clusters cover %d of %v rows", trial, covered, m.N())
		}
	}
}

func TestClusterVecLengthPanics(t *testing.T) {
	m := paperMatrix(t)
	cl, _ := m.Clusters()
	v, _ := cl.View(0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected TMulVec panic")
			}
		}()
		v.TMulVec([]float64{1})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected MulVec panic")
			}
		}()
		v.MulVec([]float64{1})
	}()
}
