// Package mat provides a small dense linear-algebra substrate: matrices,
// vectors, multiplication, inversion and the helpers the EM trainer needs.
//
// It deliberately mirrors the role LAPACK plays for the paper's Matlab
// baseline: a straightforward, materialized implementation that the
// factorised operators in package fmatrix are compared against.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// New returns a zero matrix with the given shape.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices. All rows must have equal length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("mat: ragged rows: row %d has %d cols, want %d", i, len(r), cols))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// ColVec returns an n x 1 matrix holding v.
func ColVec(v []float64) *Matrix {
	m := New(len(v), 1)
	copy(m.Data, v)
	return m
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	out := make([]float64, m.Cols)
	copy(out, m.Data[i*m.Cols:(i+1)*m.Cols])
	return out
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*m.Rows+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// Mul returns m * other.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.Cols != other.Rows {
		panic(fmt.Sprintf("mat: Mul shape mismatch %dx%d * %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	out := New(m.Rows, other.Cols)
	for i := 0; i < m.Rows; i++ {
		mrow := m.Data[i*m.Cols : (i+1)*m.Cols]
		orow := out.Data[i*other.Cols : (i+1)*other.Cols]
		for k, mv := range mrow {
			if mv == 0 {
				continue
			}
			brow := other.Data[k*other.Cols : (k+1)*other.Cols]
			for j, bv := range brow {
				orow[j] += mv * bv
			}
		}
	}
	return out
}

// MulVec returns m * v as a vector of length m.Rows.
func (m *Matrix) MulVec(v []float64) []float64 {
	out := make([]float64, m.Rows)
	m.MulVecTo(out, v)
	return out
}

// MulVecTo writes m * v into dst, which must have length m.Rows.
func (m *Matrix) MulVecTo(dst, v []float64) {
	if m.Cols != len(v) || m.Rows != len(dst) {
		panic(fmt.Sprintf("mat: MulVec shape mismatch %dx%d * %d into %d", m.Rows, m.Cols, len(v), len(dst)))
	}
	for i := range dst {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, x := range row {
			s += x * v[j]
		}
		dst[i] = s
	}
}

// TMulVec returns mᵀ * v (length m.Cols) without materializing the transpose.
func (m *Matrix) TMulVec(v []float64) []float64 {
	if m.Rows != len(v) {
		panic(fmt.Sprintf("mat: TMulVec shape mismatch %dx%d ᵀ * %d", m.Rows, m.Cols, len(v)))
	}
	out := make([]float64, m.Cols)
	for i, vi := range v {
		if vi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, x := range row {
			out[j] += vi * x
		}
	}
	return out
}

// Gram returns mᵀ * m computed directly (symmetric, m.Cols x m.Cols).
func (m *Matrix) Gram() *Matrix {
	out := New(m.Cols, m.Cols)
	for r := 0; r < m.Rows; r++ {
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		for i, xi := range row {
			if xi == 0 {
				continue
			}
			orow := out.Data[i*m.Cols : (i+1)*m.Cols]
			for j := i; j < m.Cols; j++ {
				orow[j] += xi * row[j]
			}
		}
	}
	// Mirror the upper triangle.
	for i := 0; i < m.Cols; i++ {
		for j := i + 1; j < m.Cols; j++ {
			out.Data[j*m.Cols+i] = out.Data[i*m.Cols+j]
		}
	}
	return out
}

// Add returns m + other.
func (m *Matrix) Add(other *Matrix) *Matrix {
	m.checkSameShape(other, "Add")
	out := m.Clone()
	for i, v := range other.Data {
		out.Data[i] += v
	}
	return out
}

// Scale returns m * s.
func (m *Matrix) Scale(s float64) *Matrix {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
}

// AddInPlace accumulates other into m.
func (m *Matrix) AddInPlace(other *Matrix) {
	m.checkSameShape(other, "AddInPlace")
	for i, v := range other.Data {
		m.Data[i] += v
	}
}

// Trace returns the sum of the main-diagonal elements of a square matrix.
func (m *Matrix) Trace() float64 {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("mat: Trace of non-square %dx%d", m.Rows, m.Cols))
	}
	var s float64
	for i := 0; i < m.Rows; i++ {
		s += m.Data[i*m.Cols+i]
	}
	return s
}

func (m *Matrix) checkSameShape(other *Matrix, op string) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, other.Rows, other.Cols))
	}
}

// Inverse returns m⁻¹ via Gauss-Jordan elimination with partial pivoting.
// It returns an error when the matrix is singular (or numerically so).
func (m *Matrix) Inverse() (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("mat: inverse of non-square %dx%d", m.Rows, m.Cols)
	}
	n := m.Rows
	a := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(a.Data[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.Data[r*n+col]); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-12 {
			return nil, fmt.Errorf("mat: singular matrix (pivot %d)", col)
		}
		if pivot != col {
			swapRows(a, col, pivot)
			swapRows(inv, col, pivot)
		}
		p := a.Data[col*n+col]
		for j := 0; j < n; j++ {
			a.Data[col*n+j] /= p
			inv.Data[col*n+j] /= p
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.Data[r*n+col]
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a.Data[r*n+j] -= f * a.Data[col*n+j]
				inv.Data[r*n+j] -= f * inv.Data[col*n+j]
			}
		}
	}
	return inv, nil
}

// RidgeInverse returns (m + eps*I)⁻¹, retrying with growing eps until the
// matrix is invertible. It is the numerical guard used for Σ⁻¹ and XᵀX in EM
// when clusters are degenerate.
func (m *Matrix) RidgeInverse(eps float64) *Matrix {
	if eps <= 0 {
		eps = 1e-9
	}
	cur := m
	for i := 0; i < 40; i++ {
		inv, err := cur.Inverse()
		if err == nil {
			return inv
		}
		bump := Identity(m.Rows).Scale(eps)
		cur = m.Add(bump)
		eps *= 10
	}
	// Unreachable for any finite matrix: eps eventually dominates.
	panic("mat: RidgeInverse failed to regularize")
}

// Det returns the determinant of a square matrix via LU decomposition with
// partial pivoting.
func (m *Matrix) Det() float64 {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("mat: Det of non-square %dx%d", m.Rows, m.Cols))
	}
	n := m.Rows
	a := m.Clone()
	det := 1.0
	for col := 0; col < n; col++ {
		pivot := col
		best := math.Abs(a.Data[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.Data[r*n+col]); v > best {
				best, pivot = v, r
			}
		}
		if best == 0 {
			return 0
		}
		if pivot != col {
			swapRows(a, col, pivot)
			det = -det
		}
		p := a.Data[col*n+col]
		det *= p
		for r := col + 1; r < n; r++ {
			f := a.Data[r*n+col] / p
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				a.Data[r*n+j] -= f * a.Data[col*n+j]
			}
		}
	}
	return det
}

// EqualApprox reports whether two matrices have the same shape and all
// elements within tol of each other.
func (m *Matrix) EqualApprox(other *Matrix, tol float64) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-other.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.6g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func swapRows(m *Matrix, i, j int) {
	n := m.Cols
	for c := 0; c < n; c++ {
		m.Data[i*n+c], m.Data[j*n+c] = m.Data[j*n+c], m.Data[i*n+c]
	}
}
