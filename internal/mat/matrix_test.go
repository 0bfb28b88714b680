package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFromRowsAndAccessors(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("shape = %dx%d, want 2x3", m.Rows, m.Cols)
	}
	if m.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %v, want 6", m.At(1, 2))
	}
	m.Set(0, 1, 9)
	if m.At(0, 1) != 9 {
		t.Errorf("Set/At round trip failed")
	}
	if r := m.Row(1); r[0] != 4 || r[1] != 5 || r[2] != 6 {
		t.Errorf("Row(1) = %v", r)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := a.Mul(b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !got.EqualApprox(want, 1e-12) {
		t.Errorf("Mul = %v, want %v", got, want)
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).Mul(New(2, 3))
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Errorf("T() = %v", tr)
	}
}

func TestGramMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := New(7, 4)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	if !m.Gram().EqualApprox(m.T().Mul(m), 1e-10) {
		t.Error("Gram() != T()*Mul()")
	}
}

func TestMulVecAndTMulVec(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	got := m.MulVec([]float64{1, -1})
	want := []float64{-1, -1, -1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("MulVec = %v, want %v", got, want)
		}
	}
	got = m.TMulVec([]float64{1, 0, -1})
	want = []float64{-4, -4}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("TMulVec = %v, want %v", got, want)
		}
	}
}

func TestInverse(t *testing.T) {
	m := FromRows([][]float64{{4, 7}, {2, 6}})
	inv, err := m.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	if !m.Mul(inv).EqualApprox(Identity(2), 1e-10) {
		t.Errorf("m*inv != I: %v", m.Mul(inv))
	}
}

func TestInverseSingular(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := m.Inverse(); err == nil {
		t.Error("expected error for singular matrix")
	}
}

func TestInverseRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		m := New(n, n)
		for i := range m.Data {
			m.Data[i] = r.NormFloat64()
		}
		// Diagonal dominance guarantees invertibility.
		for i := 0; i < n; i++ {
			m.Data[i*n+i] += float64(n) + 1
		}
		inv, err := m.Inverse()
		if err != nil {
			return false
		}
		return m.Mul(inv).EqualApprox(Identity(n), 1e-8)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestRidgeInverseSingular(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {2, 4}})
	inv := m.RidgeInverse(1e-9)
	if inv == nil || inv.Rows != 2 {
		t.Fatal("RidgeInverse returned bad matrix")
	}
	// The ridge inverse of a singular matrix is finite.
	for _, v := range inv.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite entry %v", v)
		}
	}
}

func TestTrace(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if got := m.Trace(); got != 5 {
		t.Errorf("Trace = %v, want 5", got)
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{3, 4}})
	if got := a.Add(b); got.At(0, 0) != 4 || got.At(0, 1) != 6 {
		t.Errorf("Add = %v", got)
	}
	if got := a.Scale(3); got.At(0, 0) != 3 || got.At(0, 1) != 6 {
		t.Errorf("Scale = %v", got)
	}
	c := a.Clone()
	c.AddInPlace(b)
	if c.At(0, 1) != 6 {
		t.Errorf("AddInPlace = %v", c)
	}
	if a.At(0, 1) != 2 {
		t.Errorf("Clone aliased the source")
	}
}

func TestDiagIdentityColRow(t *testing.T) {
	d := Identity(2)
	if d.At(0, 0) != 1 || d.At(1, 1) != 1 || d.At(0, 1) != 0 {
		t.Errorf("Identity = %v", d)
	}
	cv := ColVec([]float64{1, 2})
	if cv.Rows != 2 || cv.Cols != 1 {
		t.Errorf("ColVec shape %dx%d", cv.Rows, cv.Cols)
	}
}

func TestEqualApprox(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{1, 2.0000001}})
	if !a.EqualApprox(b, 1e-3) {
		t.Error("EqualApprox should pass within tol")
	}
	if a.EqualApprox(b, 1e-9) {
		t.Error("EqualApprox should fail outside tol")
	}
	if a.EqualApprox(New(2, 1), 1) {
		t.Error("EqualApprox should fail on shape mismatch")
	}
}

func TestStringRendering(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	if s := m.String(); s == "" {
		t.Error("String() empty")
	}
}
