package core

import (
	"fmt"

	"crowdselect/internal/linalg"
)

// foldCholesky is the skill fold as it ran through KernelVersion 3 and
// the reference UpdateWorkerSkillDrift is checked against: it builds
// the dense K×K posterior precision diag(1/(ν_w²+q)) + τ⁻²·Σ(λ_cλ_cᵀ +
// diag(ν_c²)) and solves it through a jittered Cholesky factor. It
// returns the new moments and commits nothing; the input must already
// be valid.
func foldCholesky(m *Model, worker int, cats []TaskCategory, scores []float64, processVar float64) (lw, nu2 linalg.Vector, err error) {
	k := m.K
	widened := make(linalg.Vector, k)
	prec := linalg.NewMatrix(k, k)
	rhs := linalg.NewVector(k)
	for kk := 0; kk < k; kk++ {
		widened[kk] = m.NuW2[worker][kk] + processVar
		p := 1 / widened[kk]
		prec.Set(kk, kk, p)
		rhs[kk] = p * m.LambdaW[worker][kk]
	}
	invTau2 := 1 / m.Tau2
	quad := linalg.NewVector(k)
	for t, cat := range cats {
		prec.AddOuterInPlace(invTau2, cat.Lambda, cat.Lambda)
		prec.AddScaledDiagInPlace(invTau2, cat.Nu2)
		rhs.AddScaledInPlace(invTau2*scores[t], cat.Lambda)
		for kk := 0; kk < k; kk++ {
			quad[kk] += cat.Lambda[kk]*cat.Lambda[kk] + cat.Nu2[kk]
		}
	}
	lw, ok := spdSolve(prec.Symmetrize(), rhs)
	if !ok {
		return nil, nil, fmt.Errorf("reference fold for worker %d: no Cholesky factor", worker)
	}
	nu2 = make(linalg.Vector, k)
	for kk := 0; kk < k; kk++ {
		nu2[kk] = 1 / (1/widened[kk] + quad[kk]*invTau2)
	}
	return lw, nu2, nil
}
