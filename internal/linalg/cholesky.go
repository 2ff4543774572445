package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotSPD is returned when a matrix handed to Cholesky is not
// symmetric positive definite (within the factorization's tolerance).
var ErrNotSPD = errors.New("linalg: matrix is not symmetric positive definite")

// Cholesky is the lower-triangular factor L of an SPD matrix A = L·Lᵀ.
type Cholesky struct {
	n int
	l []float64 // row-major lower triangle, full n×n storage
}

// NewCholesky factorizes the SPD matrix a. It returns ErrNotSPD when a
// pivot is non-positive. The input matrix is not modified.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: Cholesky of %d×%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	l := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l[i*n+k] * l[j*n+k]
			}
			if i == j {
				if s <= 0 || math.IsNaN(s) {
					return nil, fmt.Errorf("%w: pivot %d is %g", ErrNotSPD, i, s)
				}
				l[i*n+i] = math.Sqrt(s)
			} else {
				l[i*n+j] = s / l[j*n+j]
			}
		}
	}
	return &Cholesky{n: n, l: l}, nil
}

// NewCholeskyJittered factorizes a, adding geometrically increasing
// diagonal jitter (starting at jitter0) until the factorization
// succeeds or maxTries is exhausted. It is the defensive entry point
// used by the variational updates, where accumulated covariance
// estimates can go marginally indefinite.
func NewCholeskyJittered(a *Matrix, jitter0 float64, maxTries int) (*Cholesky, error) {
	ch, err := NewCholesky(a)
	if err == nil {
		return ch, nil
	}
	j := jitter0
	for t := 0; t < maxTries; t++ {
		b := a.Clone().AddScalarDiagInPlace(j)
		if ch, err = NewCholesky(b); err == nil {
			return ch, nil
		}
		j *= 10
	}
	return nil, err
}

// SolveVec solves A·x = b and returns x.
func (c *Cholesky) SolveVec(b Vector) Vector {
	if len(b) != c.n {
		panic(fmt.Sprintf("linalg: Cholesky.SolveVec with len %d, want %d", len(b), c.n))
	}
	n := c.n
	y := make(Vector, n)
	// Forward solve L·y = b.
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= c.l[i*n+k] * y[k]
		}
		y[i] = s / c.l[i*n+i]
	}
	// Backward solve Lᵀ·x = y.
	x := make(Vector, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= c.l[k*n+i] * x[k]
		}
		x[i] = s / c.l[i*n+i]
	}
	return x
}

// Inverse returns A⁻¹ as a new matrix.
func (c *Cholesky) Inverse() *Matrix {
	n := c.n
	inv := NewMatrix(n, n)
	e := make(Vector, n)
	for j := 0; j < n; j++ {
		e.Zero()
		e[j] = 1
		col := c.SolveVec(e)
		for i := 0; i < n; i++ {
			inv.Data[i*n+j] = col[i]
		}
	}
	return inv.Symmetrize()
}

// LogDet returns log det(A) = 2·Σ log Lᵢᵢ.
func (c *Cholesky) LogDet() float64 {
	var s float64
	for i := 0; i < c.n; i++ {
		s += math.Log(c.l[i*c.n+i])
	}
	return 2 * s
}

// L returns a copy of the lower-triangular factor as a full matrix.
func (c *Cholesky) L() *Matrix {
	m := NewMatrix(c.n, c.n)
	for i := 0; i < c.n; i++ {
		for j := 0; j <= i; j++ {
			m.Data[i*c.n+j] = c.l[i*c.n+j]
		}
	}
	return m
}

// SPDInverse inverts the SPD matrix a via Cholesky with defensive
// jitter. It is the inversion routine used throughout the models.
func SPDInverse(a *Matrix) (*Matrix, error) {
	ch, err := NewCholeskyJittered(a, 1e-10, 8)
	if err != nil {
		return nil, err
	}
	return ch.Inverse(), nil
}

// SPDSolve solves a·x = b for SPD a with defensive jitter.
func SPDSolve(a *Matrix, b Vector) (Vector, error) {
	ch, err := NewCholeskyJittered(a, 1e-10, 8)
	if err != nil {
		return nil, err
	}
	return ch.SolveVec(b), nil
}
