// Package linalg provides the small dense linear-algebra kernel used by
// the crowd-selection models: vectors, row-major matrices, symmetric
// positive-definite solvers (Cholesky), and a numerically careful
// softmax.
//
// The latent-category dimension K in the paper is small (10–50), so the
// package favours clarity and predictable allocation over blocked or
// SIMD kernels. All operations are deterministic; none of them spawn
// goroutines.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimension is returned (or wrapped) when operand shapes disagree.
var ErrDimension = errors.New("linalg: dimension mismatch")

// Vector is a dense column vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// ConstVector returns a length-n vector with every entry set to v.
func ConstVector(n int, v float64) Vector {
	x := make(Vector, n)
	for i := range x {
		x[i] = v
	}
	return x
}

// Clone returns a deep copy of x.
func (x Vector) Clone() Vector {
	y := make(Vector, len(x))
	copy(y, x)
	return y
}

// Fill sets every entry of x to v.
func (x Vector) Fill(v float64) {
	for i := range x {
		x[i] = v
	}
}

// Zero sets every entry of x to 0.
func (x Vector) Zero() { x.Fill(0) }

// Dot returns the inner product x·y.
func (x Vector) Dot(y Vector) float64 {
	if len(x) != len(y) {
		panic(dimErr("Dot", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Add returns x + y as a new vector.
func (x Vector) Add(y Vector) Vector {
	if len(x) != len(y) {
		panic(dimErr("Add", len(x), len(y)))
	}
	z := make(Vector, len(x))
	for i, v := range x {
		z[i] = v + y[i]
	}
	return z
}

// Sub returns x − y as a new vector.
func (x Vector) Sub(y Vector) Vector {
	if len(x) != len(y) {
		panic(dimErr("Sub", len(x), len(y)))
	}
	z := make(Vector, len(x))
	for i, v := range x {
		z[i] = v - y[i]
	}
	return z
}

// Scale returns a·x as a new vector.
func (x Vector) Scale(a float64) Vector {
	z := make(Vector, len(x))
	for i, v := range x {
		z[i] = a * v
	}
	return z
}

// AddScaledInPlace sets x ← x + a·y and returns x.
func (x Vector) AddScaledInPlace(a float64, y Vector) Vector {
	if len(x) != len(y) {
		panic(dimErr("AddScaledInPlace", len(x), len(y)))
	}
	for i := range x {
		x[i] += a * y[i]
	}
	return x
}

// ScaleInPlace sets x ← a·x and returns x.
func (x Vector) ScaleInPlace(a float64) Vector {
	for i := range x {
		x[i] *= a
	}
	return x
}

// NormInf returns the max-absolute-value norm ‖x‖∞.
func (x Vector) NormInf() float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Sum returns the sum of the entries of x.
func (x Vector) Sum() float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Max returns the maximum entry of x. It panics on an empty vector.
func (x Vector) Max() float64 {
	if len(x) == 0 {
		panic("linalg: Max of empty vector")
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// IsFinite reports whether every entry of x is finite (no NaN or ±Inf).
func (x Vector) IsFinite() bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Softmax returns the logistic transform of Eq. 4 of the paper:
// softmax(x)ᵢ = exp(xᵢ)/Σ exp(xⱼ), computed stably.
func Softmax(x Vector) Vector { return SoftmaxInto(make(Vector, len(x)), x) }

// SoftmaxInto writes softmax(x) into dst (len(dst) == len(x)) and
// returns dst; it is Softmax without the allocation. dst may alias x.
func SoftmaxInto(dst, x Vector) Vector {
	if len(dst) != len(x) {
		panic(dimErr("SoftmaxInto", len(dst), len(x)))
	}
	if len(x) == 0 {
		return dst
	}
	m := x.Max()
	var s float64
	for i, v := range x {
		e := math.Exp(v - m)
		dst[i] = e
		s += e
	}
	for i := range dst {
		dst[i] /= s
	}
	return dst
}

func dimErr(op string, a, b int) error {
	return fmt.Errorf("%w: %s on lengths %d and %d", ErrDimension, op, a, b)
}
