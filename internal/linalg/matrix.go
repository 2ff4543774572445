package linalg

import (
	"fmt"
	"strings"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, Data[r*Cols+c]
}

// NewMatrix returns a zero r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: NewMatrix(%d, %d): negative dimension", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// NewMatrixFrom builds an r×c matrix from row-major data. The slice is
// copied.
func NewMatrixFrom(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("linalg: NewMatrixFrom(%d, %d) with %d values", r, c, len(data)))
	}
	m := NewMatrix(r, c)
	copy(m.Data, data)
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns the (r, c) entry.
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns the (r, c) entry.
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// AddAt adds v to the (r, c) entry.
func (m *Matrix) AddAt(r, c int, v float64) { m.Data[r*m.Cols+c] += v }

// Row returns row r as a slice aliasing the matrix storage.
func (m *Matrix) Row(r int) Vector { return Vector(m.Data[r*m.Cols : (r+1)*m.Cols]) }

// Zero sets every entry to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// AddInPlace sets m ← m + b and returns m.
func (m *Matrix) AddInPlace(b *Matrix) *Matrix {
	m.mustSameShape("AddInPlace", b)
	for i, v := range b.Data {
		m.Data[i] += v
	}
	return m
}

// ScaleInPlace sets m ← a·m and returns m.
func (m *Matrix) ScaleInPlace(a float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= a
	}
	return m
}

// AddDiagInPlace adds d to the main diagonal of the square matrix m.
func (m *Matrix) AddDiagInPlace(d Vector) *Matrix {
	if m.Rows != m.Cols || m.Rows != len(d) {
		panic(fmt.Sprintf("linalg: AddDiagInPlace on %d×%d with len %d", m.Rows, m.Cols, len(d)))
	}
	for i, v := range d {
		m.Data[i*m.Cols+i] += v
	}
	return m
}

// AddScaledDiagInPlace adds a·d to the main diagonal of the square
// matrix m. Each product is rounded before it is added, so the result
// carries the bits of AddDiagInPlace(d.Scale(a)) without the temporary.
func (m *Matrix) AddScaledDiagInPlace(a float64, d Vector) *Matrix {
	if m.Rows != m.Cols || m.Rows != len(d) {
		panic(fmt.Sprintf("linalg: AddScaledDiagInPlace on %d×%d with len %d", m.Rows, m.Cols, len(d)))
	}
	for i, v := range d {
		m.Data[i*m.Cols+i] += float64(a * v)
	}
	return m
}

// AddScalarDiagInPlace adds a to every diagonal entry of the square
// matrix m (Tikhonov jitter).
func (m *Matrix) AddScalarDiagInPlace(a float64) *Matrix {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("linalg: AddScalarDiagInPlace on %d×%d", m.Rows, m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+i] += a
	}
	return m
}

// AddOuterInPlace performs the rank-1 update m ← m + a·x·yᵀ.
func (m *Matrix) AddOuterInPlace(a float64, x, y Vector) *Matrix {
	if m.Rows != len(x) || m.Cols != len(y) {
		panic(fmt.Sprintf("linalg: AddOuterInPlace %d×%d with %d, %d", m.Rows, m.Cols, len(x), len(y)))
	}
	for r, xv := range x {
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		s := a * xv
		for c, yv := range y {
			row[c] += s * yv
		}
	}
	return m
}

// MulVec returns m·x as a new vector.
func (m *Matrix) MulVec(x Vector) Vector { return m.MulVecInto(make(Vector, m.Rows), x) }

// MulVecInto writes m·x into dst (len(dst) == m.Rows) and returns dst;
// it is MulVec without the allocation. dst must not alias x.
func (m *Matrix) MulVecInto(dst, x Vector) Vector {
	if m.Cols != len(x) || m.Rows != len(dst) {
		panic(fmt.Sprintf("linalg: MulVecInto %d×%d with len %d into len %d", m.Rows, m.Cols, len(x), len(dst)))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		var s float64
		for c, v := range row {
			s += v * x[c]
		}
		dst[r] = s
	}
	return dst
}

// QuadForm returns xᵀ·m·y for the square matrix m without allocating:
// it is x.Dot(m.MulVec(y)), each row's product with y formed and then
// multiplied into the sum in that order, bit for bit.
func (m *Matrix) QuadForm(x, y Vector) float64 {
	if m.Cols != len(y) || m.Rows != len(x) {
		panic(fmt.Sprintf("linalg: QuadForm %d×%d with lens %d, %d", m.Rows, m.Cols, len(x), len(y)))
	}
	var s float64
	for r, xr := range x {
		var my float64
		for c, v := range m.Data[r*m.Cols : (r+1)*m.Cols] {
			my += v * y[c]
		}
		s += xr * my
	}
	return s
}

// Symmetrize sets m ← (m + mᵀ)/2 in place and returns m. It is used to
// wash out drift from floating-point accumulation before factorizing.
func (m *Matrix) Symmetrize() *Matrix {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("linalg: Symmetrize of %d×%d", m.Rows, m.Cols))
	}
	n := m.Rows
	for r := 0; r < n; r++ {
		for c := r + 1; c < n; c++ {
			v := (m.Data[r*n+c] + m.Data[c*n+r]) / 2
			m.Data[r*n+c] = v
			m.Data[c*n+r] = v
		}
	}
	return m
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d×%d[", m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		if r > 0 {
			b.WriteString("; ")
		}
		for c := 0; c < m.Cols; c++ {
			if c > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.4g", m.At(r, c))
		}
	}
	b.WriteByte(']')
	return b.String()
}

func (m *Matrix) mustSameShape(op string, b *Matrix) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: %s on %d×%d and %d×%d", op, m.Rows, m.Cols, b.Rows, b.Cols))
	}
}
