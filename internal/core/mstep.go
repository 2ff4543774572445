package core

import (
	"math"

	"crowdselect/internal/linalg"
)

// mStep re-estimates the model parameters ϕ from the variational
// state: μ_w, Σ_w (Eqs. 16–17), μ_c, Σ_c (Eqs. 18–19), τ² (Eq. 20) and
// β (Eq. 21), with ridge regularization on the covariances and
// additive smoothing on β.
func (tr *trainer) mStep() {
	k := tr.cfg.K
	m := tr.m

	tr.mStepSkillSide()

	// μ_c and Σ_c over tasks (Eqs. 18–19).
	m.MuC = meanOf(tr.lambdaC, k)
	m.SigmaC = scatterOf(tr.lambdaC, tr.nuC2, m.MuC, k, tr.cfg.covRidge())

	// β (Eq. 21): βₖᵥ ∝ Σⱼ Σₚ φⱼₚₖ·countⱼₚ·1[vⱼₚ = v], smoothed.
	counts := linalg.NewMatrix(k, m.V)
	for j, t := range tr.tasks {
		for p, v := range t.Bag.IDs {
			cnt := t.Bag.Counts[p]
			row := tr.phi[j].Row(p)
			for kk := 0; kk < k; kk++ {
				counts.AddAt(kk, v, cnt*row[kk])
			}
		}
	}
	for kk := 0; kk < k; kk++ {
		row := counts.Row(kk)
		var rowSum float64
		for v := 0; v < m.V; v++ {
			row[v] += betaSmoothing
			rowSum += row[v]
		}
		dst := m.LogBeta.Row(kk)
		for v := 0; v < m.V; v++ {
			dst[v] = math.Log(row[v] / rowSum)
		}
	}
}

// mStepSkillSide re-estimates only the skill-side parameters μ_w, Σ_w
// (Eqs. 16–17) and τ² (Eq. 20). Given fixed task posteriors, these and
// the worker updates (Eqs. 10–11) form a fast fixed-point system that
// Train iterates between full sweeps.
func (tr *trainer) mStepSkillSide() {
	k := tr.cfg.K
	m := tr.m
	m.MuW = meanOf(m.LambdaW, k)
	m.SigmaW = scatterOf(m.LambdaW, m.NuW2, m.MuW, k, tr.cfg.covRidge())

	// τ² (Eq. 20): the expected squared residual of the feedback
	// regression, averaged over all assignments.
	var sum float64
	for j, t := range tr.tasks {
		lc, nc := tr.lambdaC[j], tr.nuC2[j]
		for _, r := range t.Responses {
			sum += expectedSquaredResidual(r.Score, m.LambdaW[r.Worker], m.NuW2[r.Worker], lc, nc)
		}
	}
	if tr.numResponses > 0 {
		m.Tau2 = sum / float64(tr.numResponses)
	}
	if m.Tau2 < tauFloor {
		m.Tau2 = tauFloor
	}
}

// expectedSquaredResidual returns E_q[(s − w·c)²] — the summand of
// Eq. 20:
//
//	s² − 2s·(λ_w·λ_c) + (λ_w·λ_c)² + λ_wᵀdiag(ν_c²)λ_w
//	+ λ_cᵀdiag(ν_w²)λ_c + Σₖ ν_wₖ²ν_cₖ²
func expectedSquaredResidual(s float64, lw, nw, lc, nc linalg.Vector) float64 {
	dot := lw.Dot(lc)
	r := s*s - 2*s*dot + dot*dot
	for kk := range lw {
		r += lw[kk]*lw[kk]*nc[kk] + lc[kk]*lc[kk]*nw[kk] + nw[kk]*nc[kk]
	}
	return r
}

// meanOf averages the K-vectors (Eqs. 16, 18).
func meanOf(vs []linalg.Vector, k int) linalg.Vector {
	mu := linalg.NewVector(k)
	for _, v := range vs {
		mu.AddScaledInPlace(1, v)
	}
	if len(vs) > 0 {
		mu.ScaleInPlace(1 / float64(len(vs)))
	}
	return mu
}

// scatterOf computes (1/n)·Σ (diag(ν²) + (λ−μ)(λ−μ)ᵀ) + ridge·I
// (Eqs. 17, 19).
func scatterOf(lams, nus []linalg.Vector, mu linalg.Vector, k int, ridge float64) *linalg.Matrix {
	s := linalg.NewMatrix(k, k)
	d := make(linalg.Vector, k) // λ−μ, one buffer for every item
	for i, lam := range lams {
		for kk, v := range lam {
			d[kk] = v - mu[kk]
		}
		s.AddOuterInPlace(1, d, d)
		s.AddDiagInPlace(nus[i])
	}
	if len(lams) > 0 {
		s.ScaleInPlace(1 / float64(len(lams)))
	}
	s.AddScalarDiagInPlace(ridge)
	return s.Symmetrize()
}
