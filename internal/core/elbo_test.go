package core

import (
	"math"
	"testing"

	"crowdselect/internal/linalg"
)

func TestGaussianEntropyClosedForm(t *testing.T) {
	// H[N(μ, σ²)] = ½ log(2πeσ²) per coordinate.
	nu2 := linalg.Vector{1, 4}
	want := 0.5*math.Log(2*math.Pi*math.E*1) + 0.5*math.Log(2*math.Pi*math.E*4)
	if got := gaussianEntropy(nu2); math.Abs(got-want) > 1e-12 {
		t.Errorf("entropy = %v, want %v", got, want)
	}
}

func TestGaussianCrossAtMeanWithPointMass(t *testing.T) {
	// With λ = μ and ν² → 0, E_q[log N(x; μ, Σ)] → log N(μ; μ, Σ)
	// = −K/2·log2π − ½log|Σ|.
	k := 2.0
	sigma := diagMatrix(2, 3)
	inv, ok := spdInverse(sigma)
	if !ok {
		t.Fatal("no inverse")
	}
	logDet := math.Log(6)
	mu := linalg.Vector{1, -1}
	got := gaussianCross(mu, linalg.Vector{0, 0}, mu, inv, logDet, k)
	want := -0.5*k*log2Pi - 0.5*logDet
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("cross = %v, want %v", got, want)
	}
}

func TestGaussianCrossPenalizesDistance(t *testing.T) {
	sigmaInv := linalg.Identity(2)
	mu := linalg.Vector{0, 0}
	near := gaussianCross(linalg.Vector{0.1, 0}, linalg.Vector{0.1, 0.1}, mu, sigmaInv, 0, 2)
	far := gaussianCross(linalg.Vector{3, 0}, linalg.Vector{0.1, 0.1}, mu, sigmaInv, 0, 2)
	if far >= near {
		t.Errorf("cross-entropy did not penalize distance: near %v, far %v", near, far)
	}
}

func TestExpectedSquaredResidualClosedForm(t *testing.T) {
	// Zero variances reduce to the plain squared residual.
	lw := linalg.Vector{1, 2}
	lc := linalg.Vector{0.5, 0.25}
	zero := linalg.Vector{0, 0}
	s := 3.0
	dot := lw.Dot(lc) // 1.0
	want := (s - dot) * (s - dot)
	if got := expectedSquaredResidual(s, lw, zero, lc, zero); math.Abs(got-want) > 1e-12 {
		t.Errorf("residual = %v, want %v", got, want)
	}
	// Adding variance strictly increases the expectation.
	withVar := expectedSquaredResidual(s, lw, linalg.Vector{0.5, 0.5}, lc, linalg.Vector{0.5, 0.5})
	if withVar <= want {
		t.Errorf("variance did not increase expected residual: %v vs %v", withVar, want)
	}
}

func TestELBOFiniteThroughoutTraining(t *testing.T) {
	_, _, st := trainSmall(t, 4)
	for i, e := range st.ELBO {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			t.Fatalf("ELBO[%d] = %v", i, e)
		}
	}
}
