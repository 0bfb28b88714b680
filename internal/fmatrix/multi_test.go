package fmatrix

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/factor"
)

// rowValues enumerates every row's attribute value indices from the row
// iterator (exponential in the number of hierarchies: a test reference).
func rowValues(f *factor.Factorizer) [][]int {
	var out [][]int
	for it := f.Rows(); it.Next() != nil; {
		out = append(out, slices.Clone(it.Cur()))
	}
	return out
}

// randomMultiMatrix extends a random matrix with 1–2 multi-attribute
// columns over random attribute subsets.
func randomMultiMatrix(r *rand.Rand) *MultiMatrix {
	base := randomMatrix(r)
	f := base.F
	var multi []MultiColumn
	nm := 1 + r.Intn(2)
	for k := 0; k < nm; k++ {
		// Random ascending attribute subset of size 2..min(3, numAttrs).
		na := f.NumAttrs()
		size := 2
		if na < 2 {
			size = 1
		} else if na > 2 && r.Intn(2) == 0 {
			size = 3
		}
		perm := r.Perm(na)[:size]
		sortInts(perm)
		// Dedup (perm is already unique).
		mc := MultiColumn{
			Name:    fmt.Sprintf("multi%d", k),
			Attrs:   perm,
			Vals:    map[string]float64{},
			Default: r.NormFloat64(),
		}
		// Fill values for every joint assignment via run enumeration.
		_ = f.ForEachRun(perm, func(start, length int, vals []int) {
			key := MultiKey(vals...)
			if _, ok := mc.Vals[key]; !ok {
				mc.Vals[key] = r.NormFloat64()
			}
		})
		multi = append(multi, mc)
	}
	mm, err := NewMulti(f, base.Cols, multi)
	if err != nil {
		panic(err)
	}
	return mm
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Runs must partition the rows and agree with the materialized assignments.
func TestForEachRunPartitionsRows(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		m := randomMatrix(r)
		f := m.F
		if f.N() > 2000 {
			continue
		}
		rows := rowValues(f)
		na := f.NumAttrs()
		size := 1 + r.Intn(na)
		attrs := r.Perm(na)[:size]
		sortInts(attrs)
		covered := 0
		err := f.ForEachRun(attrs, func(start, length int, vals []int) {
			if start != covered {
				t.Fatalf("trial %d: run starts at %d, want %d", trial, start, covered)
			}
			covered += length
			for rr := start; rr < start+length; rr++ {
				for ai, a := range attrs {
					if rows[rr][a] != vals[ai] {
						t.Fatalf("trial %d: row %d attr %d = %d, run says %d",
							trial, rr, a, rows[rr][a], vals[ai])
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if covered != len(rows) {
			t.Fatalf("trial %d: runs cover %d of %d rows", trial, covered, len(rows))
		}
	}
}

// Runs must be maximal relative to preceding rows (the previous row differs
// in at least one involved attribute at each run boundary).
func TestForEachRunMaximal(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	m := randomMatrix(r)
	f := m.F
	rows := rowValues(f)
	attrs := []int{0}
	if f.NumAttrs() > 1 {
		attrs = []int{0, f.NumAttrs() - 1}
	}
	err := f.ForEachRun(attrs, func(start, length int, vals []int) {
		if start == 0 {
			return
		}
		same := true
		for ai, a := range attrs {
			if rows[start-1][a] != vals[ai] {
				same = false
			}
		}
		if same {
			t.Fatalf("run at %d is not maximal", start)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Multi-attribute operations must agree with the naive materialized matrix.
func TestMultiOpsMatchNaiveProperty(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		r := rand.New(rand.NewSource(int64(1000 + trial)))
		mm := randomMultiMatrix(r)
		if mm.F.N() > 2000 {
			continue
		}
		x, err := mm.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if x.Cols != mm.NumCols() {
			t.Fatalf("trial %d: materialized cols %d, want %d", trial, x.Cols, mm.NumCols())
		}
		g, err := mm.Gram()
		if err != nil {
			t.Fatal(err)
		}
		if !g.EqualApprox(x.Gram(), 1e-6) {
			t.Fatalf("trial %d: Gram mismatch", trial)
		}
		v := make([]float64, x.Rows)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		got, err := mm.TMulVec(v)
		if err != nil {
			t.Fatal(err)
		}
		want := x.TMulVec(v)
		for i := range want {
			if d := got[i] - want[i]; d > 1e-6 || d < -1e-6 {
				t.Fatalf("trial %d: TMulVec[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
		w := make([]float64, x.Cols)
		for i := range w {
			w[i] = r.NormFloat64()
		}
		gotM, err := mm.MulVec(w)
		if err != nil {
			t.Fatal(err)
		}
		wantM := x.MulVec(w)
		for i := range wantM {
			if d := gotM[i] - wantM[i]; d > 1e-6 || d < -1e-6 {
				t.Fatalf("trial %d: MulVec[%d] = %v, want %v", trial, i, gotM[i], wantM[i])
			}
		}
	}
}

func TestNewMultiValidation(t *testing.T) {
	m := paperMatrix(t)
	if _, err := NewMulti(m.F, m.Cols, []MultiColumn{{Name: "bad"}}); err == nil {
		t.Error("expected error for empty attrs")
	}
	if _, err := NewMulti(m.F, m.Cols, []MultiColumn{{Name: "bad", Attrs: []int{2, 1}}}); err == nil {
		t.Error("expected error for non-ascending attrs")
	}
	if _, err := NewMulti(m.F, m.Cols, []MultiColumn{{Name: "bad", Attrs: []int{99}}}); err == nil {
		t.Error("expected error for out-of-range attr")
	}
}

func TestMultiKeyAndValue(t *testing.T) {
	mc := MultiColumn{
		Attrs:   []int{0, 2},
		Vals:    map[string]float64{MultiKey(1, 2): 7},
		Default: -1,
	}
	if got := mc.Value([]int{1, 2}); got != 7 {
		t.Errorf("Value = %v, want 7", got)
	}
	if got := mc.Value([]int{0, 0}); got != -1 {
		t.Errorf("default Value = %v, want -1", got)
	}
}

func TestMulVecLengthError(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	mm := randomMultiMatrix(r)
	if _, err := mm.MulVec(make([]float64, 1)); err == nil {
		t.Error("expected length error")
	}
}

// The Appendix H worst case: a multi column over every attribute leaves no
// redundancy, and the run count equals the row count.
func TestMultiAllAttrsDegeneratesToRows(t *testing.T) {
	m := paperMatrix(t)
	f := m.F
	attrs := make([]int, f.NumAttrs())
	for i := range attrs {
		attrs[i] = i
	}
	runs := 0
	if err := f.ForEachRun(attrs, func(start, length int, vals []int) {
		runs++
		if length != 1 {
			t.Errorf("run length = %d, want 1", length)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if n, _ := f.RowCount(); runs != n {
		t.Errorf("runs = %d, want %d", runs, n)
	}
}

func TestForEachRunEmptyAttrs(t *testing.T) {
	m := paperMatrix(t)
	calls := 0
	if err := m.F.ForEachRun(nil, func(start, length int, vals []int) {
		calls++
		if start != 0 || length != int(m.N()) {
			t.Errorf("empty-attrs run = (%d, %d)", start, length)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1", calls)
	}
}

func TestMultiGramAgainstHandComputed(t *testing.T) {
	// Paper example with a multi column over (T, V): value = tIdx*10 + vIdx.
	m := paperMatrix(t)
	mc := MultiColumn{Name: "tv", Attrs: []int{0, 2}, Vals: map[string]float64{}}
	for ti := 0; ti < 2; ti++ {
		for vi := 0; vi < 3; vi++ {
			mc.Vals[MultiKey(ti, vi)] = float64(ti*10 + vi)
		}
	}
	mm, err := NewMulti(m.F, m.Cols, []MultiColumn{mc})
	if err != nil {
		t.Fatal(err)
	}
	x, err := mm.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	// The multi column in row order: t1: (0,1,2), t2: (10,11,12).
	want := []float64{0, 1, 2, 10, 11, 12}
	col := make([]float64, x.Rows)
	for i := range col {
		col[i] = x.At(i, x.Cols-1)
	}
	for i := range want {
		if col[i] != want[i] {
			t.Fatalf("multi column = %v, want %v", col, want)
		}
	}
	g, err := mm.Gram()
	if err != nil {
		t.Fatal(err)
	}
	if !g.EqualApprox(x.Gram(), 1e-9) {
		t.Error("Gram mismatch on hand example")
	}
}
