package linalg

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestMatrixAtSet(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Errorf("At(1,2) = %v, want 7", m.At(1, 2))
	}
	m.AddAt(1, 2, 3)
	if m.At(1, 2) != 10 {
		t.Errorf("AddAt: At(1,2) = %v, want 10", m.At(1, 2))
	}
}

func TestIdentityMulVec(t *testing.T) {
	id := Identity(3)
	x := Vector{1, 2, 3}
	if got := id.MulVec(x); !got.Equal(x, 0) {
		t.Errorf("I·x = %v, want %v", got, x)
	}
}

func TestMatrixMul(t *testing.T) {
	a := NewMatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewMatrixFrom(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := a.Mul(b)
	want := NewMatrixFrom(2, 2, []float64{58, 64, 139, 154})
	if !got.Equal(want, 1e-12) {
		t.Errorf("Mul = %v, want %v", got, want)
	}
}

func TestMatrixTranspose(t *testing.T) {
	a := NewMatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	at := a.T()
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("T shape = %d×%d", at.Rows, at.Cols)
	}
	for r := 0; r < 2; r++ {
		for c := 0; c < 3; c++ {
			if a.At(r, c) != at.At(c, r) {
				t.Errorf("T mismatch at (%d,%d)", r, c)
			}
		}
	}
}

func TestMatrixAddSubScale(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 3, 4})
	b := NewMatrixFrom(2, 2, []float64{5, 6, 7, 8})
	if got := a.Add(b); !got.Equal(NewMatrixFrom(2, 2, []float64{6, 8, 10, 12}), 0) {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a); !got.Equal(NewMatrixFrom(2, 2, []float64{4, 4, 4, 4}), 0) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); !got.Equal(NewMatrixFrom(2, 2, []float64{2, 4, 6, 8}), 0) {
		t.Errorf("Scale = %v", got)
	}
	c := a.Clone()
	c.AddInPlace(b).ScaleInPlace(0.5)
	if !c.Equal(NewMatrixFrom(2, 2, []float64{3, 4, 5, 6}), 0) {
		t.Errorf("AddInPlace/ScaleInPlace = %v", c)
	}
}

func TestMatrixDiagOps(t *testing.T) {
	d := NewDiag(Vector{1, 2, 3})
	if d.At(1, 1) != 2 || d.At(0, 1) != 0 {
		t.Errorf("NewDiag wrong: %v", d)
	}
	if got := d.Diag(); !got.Equal(Vector{1, 2, 3}, 0) {
		t.Errorf("Diag = %v", got)
	}
	if got := d.Trace(); got != 6 {
		t.Errorf("Trace = %v, want 6", got)
	}
	d.AddDiagInPlace(Vector{1, 1, 1})
	if got := d.Trace(); got != 9 {
		t.Errorf("Trace after AddDiagInPlace = %v, want 9", got)
	}
	d.AddScalarDiagInPlace(1)
	if got := d.Trace(); got != 12 {
		t.Errorf("Trace after AddScalarDiagInPlace = %v, want 12", got)
	}
}

func TestAddScaledDiagInPlaceMatchesScaleThenAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		a, d := rng.NormFloat64(), randVec(rng, n)
		m := randMatrix(rng, n, n)
		want := m.Clone().AddDiagInPlace(d.Scale(a))
		got := m.Clone().AddScaledDiagInPlace(a, d)
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("trial %d: entry %d = %v, want %v bit for bit", trial, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestAddOuterInPlace(t *testing.T) {
	m := NewMatrix(2, 2)
	m.AddOuterInPlace(2, Vector{1, 2}, Vector{3, 4})
	want := NewMatrixFrom(2, 2, []float64{6, 8, 12, 16})
	if !m.Equal(want, 0) {
		t.Errorf("AddOuterInPlace = %v, want %v", m, want)
	}
}

func TestQuadForm(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{2, 0, 0, 3})
	got := a.QuadForm(Vector{1, 2}, Vector{1, 2})
	if got != 2+12 {
		t.Errorf("QuadForm = %v, want 14", got)
	}
}

func TestSymmetrize(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 4, 3})
	a.Symmetrize()
	if a.At(0, 1) != 3 || a.At(1, 0) != 3 {
		t.Errorf("Symmetrize = %v", a)
	}
}

func TestRowAliasesStorage(t *testing.T) {
	m := NewMatrix(2, 2)
	r := m.Row(1)
	r[0] = 5
	if m.At(1, 0) != 5 {
		t.Error("Row does not alias matrix storage")
	}
}

func TestMatrixString(t *testing.T) {
	s := NewMatrixFrom(1, 2, []float64{1, 2}).String()
	if !strings.Contains(s, "1×2") {
		t.Errorf("String = %q", s)
	}
}

func TestMatrixIsFinite(t *testing.T) {
	m := NewMatrix(1, 1)
	if !m.IsFinite() {
		t.Error("zero matrix reported non-finite")
	}
	m.Set(0, 0, math.NaN())
	if m.IsFinite() {
		t.Error("NaN matrix reported finite")
	}
}

func TestMatrixShapePanics(t *testing.T) {
	cases := []func(){
		func() { NewMatrix(2, 2).Add(NewMatrix(2, 3)) },
		func() { NewMatrix(2, 3).Mul(NewMatrix(2, 3)) },
		func() { NewMatrix(2, 3).Trace() },
		func() { NewMatrix(2, 2).MulVec(Vector{1}) },
		func() { NewMatrixFrom(2, 2, []float64{1}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ on random matrices.
func TestMulTransposeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		r, k, c := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a, b := randMatrix(rng, r, k), randMatrix(rng, k, c)
		lhs := a.Mul(b).T()
		rhs := b.T().Mul(a.T())
		if !lhs.Equal(rhs, 1e-10) {
			t.Fatalf("(AB)ᵀ ≠ BᵀAᵀ on trial %d", trial)
		}
	}
}

// Property: MulVec agrees with Mul against a 1-column matrix.
func TestMulVecConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		r, c := 1+rng.Intn(6), 1+rng.Intn(6)
		a := randMatrix(rng, r, c)
		x := randVec(rng, c)
		col := NewMatrix(c, 1)
		for i, v := range x {
			col.Set(i, 0, v)
		}
		want := a.Mul(col)
		got := a.MulVec(x)
		for i := 0; i < r; i++ {
			if math.Abs(got[i]-want.At(i, 0)) > 1e-12 {
				t.Fatalf("MulVec disagrees with Mul at row %d", i)
			}
		}
	}
}

func randMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func randVec(rng *rand.Rand, n int) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// randSPD returns a random symmetric positive-definite matrix
// A = BᵀB + n·I.
func randSPD(rng *rand.Rand, n int) *Matrix {
	b := randMatrix(rng, n, n)
	return b.T().Mul(b).AddScalarDiagInPlace(float64(n)).Symmetrize()
}
