package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"crowdselect/internal/linalg"
)

// spdSolve solves a·x = b for SPD a as training's worker update does:
// spdFactor, then cholSolve on a copy of b. It reports false when
// spdFactor finds no factor.
func spdSolve(a *linalg.Matrix, b linalg.Vector) (linalg.Vector, bool) {
	l := make(linalg.Vector, len(a.Data))
	if !spdFactor(l, a) {
		return nil, false
	}
	x := slices.Clone(b)
	cholSolve(l, a.Rows, x)
	return x, true
}

// mustSPDSolve is spdSolve for a matrix the test built SPD.
func mustSPDSolve(t *testing.T, a *linalg.Matrix, b linalg.Vector) linalg.Vector {
	t.Helper()
	x, ok := spdSolve(a, b)
	if !ok {
		t.Fatalf("no factor of the SPD matrix %v", a)
	}
	return x
}

// lowerTimesUpper returns L·Lᵀ for the factor cholesky left in l, whose
// upper triangle it ignores.
func lowerTimesUpper(l linalg.Vector, n int) *linalg.Matrix {
	out := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for q := 0; q <= min(i, j); q++ {
				s += l[i*n+q] * l[j*n+q]
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestCholeskyKnownFactor(t *testing.T) {
	// A = [[4, 2], [2, 3]] has L = [[2, 0], [1, sqrt(2)]]; the upper
	// triangle keeps A's entry.
	l := linalg.Vector{4, 2, 2, 3}
	if !cholesky(l, 2) {
		t.Fatal("no factor")
	}
	if math.Abs(l[0]-2) > 1e-12 || math.Abs(l[2]-1) > 1e-12 ||
		math.Abs(l[3]-math.Sqrt(2)) > 1e-12 || l[1] != 2 {
		t.Errorf("L = %v", l)
	}
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		a := randomSPD(rng, n)
		l := slices.Clone(a.Data)
		if !cholesky(l, n) {
			t.Fatalf("trial %d: no factor", trial)
		}
		if got := lowerTimesUpper(l, n); sub(got.Data, a.Data).NormInf() > 1e-8 {
			t.Fatalf("trial %d: L·Lᵀ ≠ A", trial)
		}
	}
}

// TestCholeskySolve: cholesky and cholSolve invert random SPD matrices,
// and cholesky refuses what has no factor.
func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{1, 2, 5, 10, 50} {
		a := linalg.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
			a.AddAt(i, i, 2*float64(n))
		}
		want := linalg.NewVector(n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		y := a.MulVec(want)
		f := slices.Clone(a.Data)
		if !cholesky(f, n) {
			t.Fatalf("n=%d: no factor of an SPD matrix", n)
		}
		cholSolve(f, n, y)
		for i := range y {
			if math.Abs(y[i]-want[i]) > 1e-10 {
				t.Fatalf("n=%d: x[%d] = %g, want %g", n, i, y[i], want[i])
			}
		}
	}
	for _, bad := range [][]float64{{0}, {-1}, {math.NaN()}, {math.Inf(1)}, {1, 2, 2, 1}} {
		if cholesky(slices.Clone(bad), int(math.Sqrt(float64(len(bad))))) {
			t.Errorf("%v factored", bad)
		}
	}
}

// TestCholeskySolveRandomSPD: spdFactor and cholSolve recover x from A·x
// on random SPD matrices of order 1 … 8.
func TestCholeskySolveRandomSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		a := randomSPD(rng, n)
		x := linalg.NewVector(n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		if got := mustSPDSolve(t, a, a.MulVec(x)); sub(got, x).NormInf() > 1e-7 {
			t.Fatalf("trial %d: solve error %v", trial, sub(got, x).NormInf())
		}
	}
}

func TestCholeskyInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(6)
		a := randomSPD(rng, n)
		inv, ok := spdInverse(a)
		if !ok {
			t.Fatalf("trial %d: no inverse", trial)
		}
		for j := 0; j < n; j++ {
			e := linalg.NewVector(n)
			e[j] = 1
			if got := a.MulVec(inv.MulVec(e)); sub(got, e).NormInf() > 1e-7 {
				t.Fatalf("trial %d: column %d of A·A⁻¹ is %v", trial, j, got)
			}
		}
	}
}

func TestCholeskyLogDet(t *testing.T) {
	if got, want := logDetSPD(diagMatrix(2, 3, 4)), math.Log(24); math.Abs(got-want) > 1e-12 {
		t.Errorf("log det = %v, want %v", got, want)
	}
}

func TestCholeskyNotSPD(t *testing.T) {
	a := linalg.NewMatrixFrom(2, 2, []float64{1, 2, 2, 1}) // indefinite
	if cholesky(slices.Clone(a.Data), 2) {
		t.Error("cholesky factored an indefinite matrix")
	}
	if spdFactor(make(linalg.Vector, 4), a) {
		t.Error("spdFactor factored an indefinite matrix")
	}
	if _, ok := spdInverse(a); ok {
		t.Error("spdInverse inverted an indefinite matrix")
	}
	if got := logDetSPD(a); !math.IsInf(got, -1) {
		t.Errorf("log det of an indefinite matrix = %v, want −Inf", got)
	}
}

func TestCholeskyJitteredRecovers(t *testing.T) {
	// Marginally indefinite: eigenvalues {2, ~-1e-14}.
	a := linalg.NewMatrixFrom(2, 2, []float64{1, 1, 1, 1 - 1e-14})
	if cholesky(slices.Clone(a.Data), 2) {
		t.Fatal("the unjittered factor exists; the case tests nothing")
	}
	if !spdFactor(make(linalg.Vector, 4), a) {
		t.Error("jittered factorization failed")
	}
	// Hopeless case must still fail.
	bad := linalg.NewMatrixFrom(2, 2, []float64{-10, 0, 0, -10})
	if spdFactor(make(linalg.Vector, 4), bad) {
		t.Error("jitter fixed a strongly indefinite matrix")
	}
}

func TestSPDSolve(t *testing.T) {
	if x := mustSPDSolve(t, diagMatrix(2, 4), linalg.Vector{2, 8}); sub(x, linalg.Vector{1, 2}).NormInf() > 1e-12 {
		t.Errorf("spdSolve = %v", x)
	}
}

// TestSPDFactorMatchesReference: spdFactor, cholSolve, spdInverse and
// cholLogDet reproduce, bit for bit, the jittered Cholesky the model
// factored through until it was folded into this kernel (refCholesky
// below) — on random SPD matrices, on near-singular ones that need each
// of 1 to 8 jitter tries, and on ones no jitter rescues, which both
// refuse.
func TestSPDFactorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	type spdCase struct {
		name  string
		a     *linalg.Matrix
		tries int // jitters added before a factor exists; spdJitterTries+1: none does
	}
	var cases []spdCase
	for _, n := range []int{1, 2, 6, 10, 50} {
		for trial := 0; trial < 4; trial++ {
			cases = append(cases, spdCase{fmt.Sprintf("random n=%d #%d", n, trial), randomSPD(rng, n), 0})
		}
	}
	// G·Gᵀ with G's last row a copy of its first, less δ on the last
	// diagonal entry: the last pivot of A + jI is about 2j − δ, so
	// δ = 1e-10·10^(t−1) fails the unjittered factor and every jitter
	// before the t-th. δ = 1 outlasts all eight.
	for _, n := range []int{2, 6, 10, 50} {
		for tries := 1; tries <= spdJitterTries+1; tries++ {
			g := linalg.NewMatrix(n, n)
			for i := range g.Data {
				g.Data[i] = rng.NormFloat64()
			}
			copy(g.Row(n-1), g.Row(0))
			a := linalg.NewMatrix(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					a.Set(i, j, g.Row(i).Dot(g.Row(j)))
				}
			}
			delta := 1e-10 * math.Pow(10, float64(tries-1))
			if tries > spdJitterTries {
				delta = 1
			}
			a.AddAt(n-1, n-1, -delta)
			cases = append(cases, spdCase{fmt.Sprintf("near-singular n=%d δ=%g", n, delta), a, tries})
		}
	}

	for _, c := range cases {
		n := c.a.Rows
		if tries := refJitterTries(c.a); tries != c.tries {
			t.Fatalf("%s: the reference added %d jitters, want %d", c.name, tries, c.tries)
		}
		ref, err := newRefCholeskyJittered(c.a, 1e-10, 8)
		l := make(linalg.Vector, n*n)
		ok := spdFactor(l, c.a)
		if ok != (err == nil) {
			t.Fatalf("%s: spdFactor ok=%v, reference err=%v", c.name, ok, err)
		}
		inv, invOK := spdInverse(c.a)
		if invOK != ok {
			t.Fatalf("%s: spdInverse ok=%v, spdFactor ok=%v", c.name, invOK, ok)
		}
		if !ok {
			if got := logDetSPD(c.a); !math.IsInf(got, -1) {
				t.Fatalf("%s: log det of a refused matrix = %v", c.name, got)
			}
			continue
		}
		for i := 0; i < n; i++ {
			assertSameBits(t, fmt.Sprintf("%s: row %d of L", c.name, i), l[i*n:i*n+i+1], ref.l[i*n:i*n+i+1])
		}
		b := linalg.NewVector(n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := slices.Clone(b)
		cholSolve(l, n, x)
		assertSameBits(t, c.name+": solve", x, ref.SolveVec(b))
		assertSameBits(t, c.name+": inverse", inv.Data, ref.Inverse().Data)
		assertSameBits(t, c.name+": log det", linalg.Vector{logDetSPD(c.a)}, linalg.Vector{ref.LogDet()})
		assertSameBits(t, c.name+": cholLogDet", linalg.Vector{cholLogDet(l, n)}, linalg.Vector{ref.LogDet()})
	}
}

func assertSameBits(t *testing.T, what string, got, want linalg.Vector) {
	t.Helper()
	if len(got) != len(want) || !sameBits(got, want) {
		t.Fatalf("%s: %v, reference %v bit for bit", what, got, want)
	}
}

// refJitterTries counts the jitters refCholesky's schedule adds before a
// factor exists: 0 when a factors as it is, spdJitterTries+1 when none
// does.
func refJitterTries(a *linalg.Matrix) int {
	if _, err := newRefCholesky(a); err == nil {
		return 0
	}
	j := 1e-10
	for t := 0; t < spdJitterTries; t++ {
		b := linalg.NewMatrixFrom(a.Rows, a.Cols, a.Data).AddScalarDiagInPlace(j)
		if _, err := newRefCholesky(b); err == nil {
			return t + 1
		}
		j *= 10
	}
	return spdJitterTries + 1
}

// What follows is linalg's Cholesky as the model ran it through training,
// the ELBO and the cached Σ⁻¹ until this kernel replaced it, kept verbatim
// as the reference TestSPDFactorMatchesReference holds the kernel to. Only
// the names changed, and a.Clone() became the copy NewMatrixFrom makes.

var errRefNotSPD = errors.New("linalg: matrix is not symmetric positive definite")

type refCholesky struct {
	n int
	l []float64 // row-major lower triangle, full n×n storage
}

func newRefCholesky(a *linalg.Matrix) (*refCholesky, error) {
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
					return nil, fmt.Errorf("%w: pivot %d is %g", errRefNotSPD, i, s)
				}
				l[i*n+i] = math.Sqrt(s)
			} else {
				l[i*n+j] = s / l[j*n+j]
			}
		}
	}
	return &refCholesky{n: n, l: l}, nil
}

func newRefCholeskyJittered(a *linalg.Matrix, jitter0 float64, maxTries int) (*refCholesky, error) {
	ch, err := newRefCholesky(a)
	if err == nil {
		return ch, nil
	}
	j := jitter0
	for t := 0; t < maxTries; t++ {
		b := linalg.NewMatrixFrom(a.Rows, a.Cols, a.Data).AddScalarDiagInPlace(j)
		if ch, err = newRefCholesky(b); err == nil {
			return ch, nil
		}
		j *= 10
	}
	return nil, err
}

func (c *refCholesky) SolveVec(b linalg.Vector) linalg.Vector {
	if len(b) != c.n {
		panic(fmt.Sprintf("linalg: Cholesky.SolveVec with len %d, want %d", len(b), c.n))
	}
	n := c.n
	y := make(linalg.Vector, n)
	// Forward solve L·y = b.
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= c.l[i*n+k] * y[k]
		}
		y[i] = s / c.l[i*n+i]
	}
	// Backward solve Lᵀ·x = y.
	x := make(linalg.Vector, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= c.l[k*n+i] * x[k]
		}
		x[i] = s / c.l[i*n+i]
	}
	return x
}

func (c *refCholesky) Inverse() *linalg.Matrix {
	n := c.n
	inv := linalg.NewMatrix(n, n)
	e := make(linalg.Vector, n)
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

func (c *refCholesky) LogDet() float64 {
	var s float64
	for i := 0; i < c.n; i++ {
		s += math.Log(c.l[i*c.n+i])
	}
	return 2 * s
}
