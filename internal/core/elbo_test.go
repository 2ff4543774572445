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
	got := gaussianCross(make(linalg.Vector, 2), mu, linalg.Vector{0, 0}, mu, inv, logDet, k)
	want := -0.5*k*log2Pi - 0.5*logDet
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("cross = %v, want %v", got, want)
	}
}

func TestGaussianCrossPenalizesDistance(t *testing.T) {
	sigmaInv := linalg.Identity(2)
	mu := linalg.Vector{0, 0}
	d := make(linalg.Vector, 2)
	near := gaussianCross(d, linalg.Vector{0.1, 0}, linalg.Vector{0.1, 0.1}, mu, sigmaInv, 0, 2)
	far := gaussianCross(d, linalg.Vector{3, 0}, linalg.Vector{0.1, 0.1}, mu, sigmaInv, 0, 2)
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

// elboSequential is the bound as one loop adds it, summand by summand
// into one sum, with a fresh λ−μ per Gaussian cross term: the form elbo
// had before it fanned out, kept as the oracle of its bits.
func elboSequential(tr *trainer) float64 {
	m := tr.m
	k := float64(tr.cfg.K)
	var l float64
	cross := func(lam, nu2, mu linalg.Vector, sigmaInv *linalg.Matrix, logDet float64) float64 {
		return gaussianCross(make(linalg.Vector, len(lam)), lam, nu2, mu, sigmaInv, logDet, k)
	}
	ldW := logDetSPD(m.SigmaW)
	for i := 0; i < m.M; i++ {
		l += cross(m.LambdaW[i], m.NuW2[i], m.MuW, m.sigmaWInv, ldW)
		l += gaussianEntropy(m.NuW2[i])
	}
	ldC := logDetSPD(m.SigmaC)
	for j := range tr.tasks {
		l += cross(tr.lambdaC[j], tr.nuC2[j], m.MuC, m.sigmaCInv, ldC)
		l += gaussianEntropy(tr.nuC2[j])
	}
	for j, t := range tr.tasks {
		lc, nc := tr.lambdaC[j], tr.nuC2[j]
		var expSum float64
		for kk := range lc {
			expSum += exp(lc[kk] + nc[kk]/2)
		}
		var total float64
		for p, v := range t.Bag.IDs {
			cnt := t.Bag.Counts[p]
			total += cnt
			row := tr.phi[j].Row(p)
			for kk, ph := range row {
				if ph <= 0 {
					continue
				}
				l += cnt * ph * (lc[kk] + m.LogBeta.At(kk, v) - math.Log(ph))
			}
		}
		l -= total * (expSum/tr.eps[j] - 1 + math.Log(tr.eps[j]))
	}
	logTau := math.Log(2 * math.Pi * m.Tau2)
	for j, t := range tr.tasks {
		lc, nc := tr.lambdaC[j], tr.nuC2[j]
		for _, r := range t.Responses {
			res := expectedSquaredResidual(r.Score, m.LambdaW[r.Worker], m.NuW2[r.Worker], lc, nc)
			l += -0.5*logTau - res/(2*m.Tau2)
		}
	}
	return l
}

// The fanned-out bound is the sequential one bit for bit, after every
// sweep and at every width: its second phase adds the same summands in
// the same order.
func TestELBOMatchesSequential(t *testing.T) {
	d := smallDataset(t)
	for _, width := range []int{1, 2, 3, 7} {
		tr := newTrainer(tasksFromDataset(d), len(d.Workers), d.Vocab.Size(), NewConfig(5))
		tr.setWidth(width)
		for sweep := 1; sweep <= 6; sweep++ {
			tr.updateTasks()
			tr.updateWorkers()
			tr.mStep()
			if err := tr.m.refreshDerived(); err != nil {
				t.Fatal(err)
			}
			if got, want := tr.elbo(), elboSequential(tr); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("width %d sweep %d: elbo %v, sequential %v", width, sweep, got, want)
			}
		}
	}
}
