package fmatrix

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// refRightMul is Algorithm 4 driven row by row from factor.RowIter — the
// definition of row order — and is what RightMul and MulVec must reproduce
// bit for bit: acc[j] += d·A[ci][j] in change order, zero deltas skipped.
func refRightMul(m *Matrix, a *mat.Matrix) *mat.Matrix {
	n, _ := m.F.RowCount()
	p := a.Cols
	out := mat.New(n, p)
	acc := make([]float64, p)
	cur := make([]float64, len(m.Cols))
	it := m.F.Rows()
	for row := 0; ; row++ {
		chg := it.Next()
		if chg == nil {
			return out
		}
		for _, c := range chg {
			for ci, col := range m.Cols {
				if col.Attr != c.Attr {
					continue
				}
				nv := col.Vals[c.Val]
				if d := nv - cur[ci]; d != 0 {
					for j := 0; j < p; j++ {
						acc[j] += d * a.Data[ci*p+j]
					}
					cur[ci] = nv
				}
			}
		}
		copy(out.Data[row*p:(row+1)*p], acc)
	}
}

// refMaterialize expands the matrix from factor.RowIter.
func refMaterialize(m *Matrix) *mat.Matrix {
	n, _ := m.F.RowCount()
	out := mat.New(n, len(m.Cols))
	it := m.F.Rows()
	for row := 0; it.Next() != nil; row++ {
		for ci, col := range m.Cols {
			out.Data[row*len(m.Cols)+ci] = col.Vals[it.Cur()[col.Attr]]
		}
	}
	return out
}

func sameBits(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// Over random 1–3-hierarchy, depth-1–3 factorizers, MulVec(w), RightMul and
// Materialize agree bit for bit with the row-iterator evaluation. Column
// values are drawn from a small set that includes both zeros, so neighbouring
// values repeat and the zero-delta skip is exercised.
func TestRightMulBitIdenticalToRowIterProperty(t *testing.T) {
	levels := []float64{0, math.Copysign(0, -1), 1, -1.5, 2.25, 1e-3}
	zeroDeltas, trials := 0, 0
	for trial := 0; trial < 120; trial++ {
		r := rand.New(rand.NewSource(int64(1000 + trial)))
		m := randomMatrix(r)
		if m.N() > 3000 {
			continue
		}
		trials++
		for ci := range m.Cols {
			vals := m.Cols[ci].Vals
			for i := range vals {
				if r.Intn(3) > 0 {
					vals[i] = levels[r.Intn(len(levels))]
				}
				if i > 0 && vals[i] == vals[i-1] {
					zeroDeltas++
				}
			}
		}
		// Columns were edited in place: rebuild so nothing derived from the
		// old values survives.
		m, err := New(m.F, m.Cols)
		if err != nil {
			t.Fatal(err)
		}

		x, err := m.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if i, ok := sameBits(x.Data, refMaterialize(m).Data); !ok {
			t.Fatalf("trial %d: Materialize differs from the row iterator at element %d", trial, i)
		}

		w := make([]float64, len(m.Cols))
		for i := range w {
			w[i] = r.NormFloat64()
		}
		want := refRightMul(m, mat.ColVec(w))
		got, err := m.MulVec(w)
		if err != nil {
			t.Fatal(err)
		}
		if i, ok := sameBits(got, want.Data); !ok {
			t.Fatalf("trial %d: MulVec differs from the row iterator at row %d: %v vs %v", trial, i, got[i], want.Data[i])
		}
		col, err := m.RightMul(mat.ColVec(w))
		if err != nil {
			t.Fatal(err)
		}
		if i, ok := sameBits(col.Data, want.Data); !ok {
			t.Fatalf("trial %d: RightMul(ColVec(w)) differs from MulVec at row %d", trial, i)
		}

		a := mat.New(len(m.Cols), 3)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
		}
		wide, err := m.RightMul(a)
		if err != nil {
			t.Fatal(err)
		}
		if i, ok := sameBits(wide.Data, refRightMul(m, a).Data); !ok {
			t.Fatalf("trial %d: RightMul differs from the row iterator at element %d", trial, i)
		}
	}
	if trials < 60 || zeroDeltas < 50 {
		t.Fatalf("%d trials with %d repeated neighbouring values: the zero-delta skip is not exercised", trials, zeroDeltas)
	}
}

// Over the same random 1–3-hierarchy shapes (ragged children, single-row
// clusters included), Clusters.ColSums equals the per-cluster column sums of
// the materialized matrix, taken row by row. With column values on a dyadic
// grid every sum is exact, so the two agree bit for bit whatever their order
// of operations; with arbitrary values a column bound to the last attribute
// still does (both add its values left to right) and a constant column's N·f
// is the repeated addition to within rounding.
func TestClusterColSumsMatchMaterializedProperty(t *testing.T) {
	singleRow := 0
	for trial := 0; trial < 120; trial++ {
		r := rand.New(rand.NewSource(int64(2000 + trial)))
		m := randomMatrix(r)
		if m.N() > 3000 {
			continue
		}
		for _, dyadic := range []bool{false, true} {
			if dyadic {
				for ci := range m.Cols {
					for i := range m.Cols[ci].Vals {
						m.Cols[ci].Vals[i] = float64(r.Intn(65)-32) / 8
					}
				}
				// Columns were edited in place: rebuild, as above.
				var err error
				if m, err = New(m.F, m.Cols); err != nil {
					t.Fatal(err)
				}
			}
			x, err := m.Materialize()
			if err != nil {
				t.Fatal(err)
			}
			cl, err := m.Clusters()
			if err != nil {
				t.Fatal(err)
			}
			got := cl.ColSums()
			k := len(m.Cols)
			for ci := 0; ci < cl.NumClusters(); ci++ {
				start, n := cl.Extent(ci)
				if n == 1 {
					singleRow++
				}
				want := make([]float64, k)
				for row := start; row < start+n; row++ {
					for j := range want {
						want[j] += x.Data[row*k+j]
					}
				}
				for j, w := range want {
					g := got.Data[ci*k+j]
					exact := dyadic || m.Cols[j].Attr == cl.lastAttr
					if exact && math.Float64bits(g) != math.Float64bits(w) || math.Abs(g-w) > 1e-14*math.Abs(w) {
						t.Fatalf("trial %d (dyadic %v), cluster %d, column %d: ColSums %v, row-by-row %v", trial, dyadic, ci, j, g, w)
					}
				}
			}
		}
	}
	if singleRow < 100 {
		t.Fatalf("only %d single-row clusters seen", singleRow)
	}
}
