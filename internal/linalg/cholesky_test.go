package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestCholeskyKnownFactor(t *testing.T) {
	// A = [[4, 2], [2, 3]] has L = [[2, 0], [1, sqrt(2)]].
	a := NewMatrixFrom(2, 2, []float64{4, 2, 2, 3})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	l := ch.lower()
	if math.Abs(l.At(0, 0)-2) > 1e-12 || math.Abs(l.At(1, 0)-1) > 1e-12 ||
		math.Abs(l.At(1, 1)-math.Sqrt(2)) > 1e-12 || l.At(0, 1) != 0 {
		t.Errorf("L = %v", l)
	}
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		a := randSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		l := ch.lower()
		if got := mul(l, transpose(l)); !near(got.Data, a.Data, 1e-8) {
			t.Fatalf("trial %d: L·Lᵀ ≠ A", trial)
		}
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		a := randSPD(rng, n)
		x := randVec(rng, n)
		b := a.MulVec(x)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		got := ch.SolveVec(b)
		if !near(got, x, 1e-7) {
			t.Fatalf("trial %d: solve error %v", trial, got.Sub(x).NormInf())
		}
	}
}

func TestCholeskyInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(6)
		a := randSPD(rng, n)
		inv, err := SPDInverse(a)
		if err != nil {
			t.Fatal(err)
		}
		if got := mul(a, inv); !near(got.Data, Identity(n).Data, 1e-7) {
			t.Fatalf("trial %d: A·A⁻¹ ≠ I", trial)
		}
	}
}

func TestCholeskyLogDet(t *testing.T) {
	a := diag(Vector{2, 3, 4})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Log(24)
	if got := ch.LogDet(); math.Abs(got-want) > 1e-12 {
		t.Errorf("LogDet = %v, want %v", got, want)
	}
}

func TestCholeskyNotSPD(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 2, 1}) // indefinite
	if _, err := NewCholesky(a); !errors.Is(err, ErrNotSPD) {
		t.Errorf("err = %v, want ErrNotSPD", err)
	}
	if _, err := NewCholesky(NewMatrix(2, 3)); err == nil {
		t.Error("non-square matrix accepted")
	}
}

func TestCholeskyJitteredRecovers(t *testing.T) {
	// Marginally indefinite: eigenvalues {2, ~-1e-14}.
	a := NewMatrixFrom(2, 2, []float64{1, 1, 1, 1 - 1e-14})
	if _, err := NewCholeskyJittered(a, 1e-10, 8); err != nil {
		t.Errorf("jittered factorization failed: %v", err)
	}
	// Hopeless case must still error out.
	bad := NewMatrixFrom(2, 2, []float64{-10, 0, 0, -10})
	if _, err := NewCholeskyJittered(bad, 1e-10, 3); err == nil {
		t.Error("jitter fixed a strongly indefinite matrix")
	}
}

func TestSPDSolve(t *testing.T) {
	a := diag(Vector{2, 4})
	x, err := SPDSolve(a, Vector{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if !near(x, Vector{1, 2}, 1e-12) {
		t.Errorf("SPDSolve = %v", x)
	}
}

// lower returns the factor L as a full matrix.
func (c *Cholesky) lower() *Matrix {
	return NewMatrixFrom(c.n, c.n, c.l)
}
