package core

import (
	"math"

	"crowdselect/internal/linalg"
)

const log2Pi = 1.8378770664093453 // log(2π)

// elbo evaluates the full variational bound L′(q) of §5.2. Train uses
// its sweep-to-sweep improvement as the stopping criterion; the tests
// assert its monotonicity.
func (tr *trainer) elbo() float64 {
	m := tr.m
	k := float64(tr.cfg.K)
	var l float64

	// E[log p(W)] + H[q(W)].
	ldW := logDetSPD(m.SigmaW)
	for i := 0; i < m.M; i++ {
		l += gaussianCross(m.LambdaW[i], m.NuW2[i], m.MuW, m.sigmaWInv, ldW, k)
		l += gaussianEntropy(m.NuW2[i])
	}

	// E[log p(C)] + H[q(C)].
	ldC := logDetSPD(m.SigmaC)
	for j := range tr.tasks {
		l += gaussianCross(tr.lambdaC[j], tr.nuC2[j], m.MuC, m.sigmaCInv, ldC, k)
		l += gaussianEntropy(tr.nuC2[j])
	}

	// E′[log p(Z|C)] + E[log p(V|Z,β)] + H[q(Z)].
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

	// E[log p(S|WCᵀ, τ)].
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

// gaussianCross returns E_q[log N(x; μ, Σ)] for q = N(λ, diag(ν²)):
// −K/2·log 2π − ½ log|Σ| − ½[(λ−μ)ᵀΣ⁻¹(λ−μ) + Σₖ (Σ⁻¹)ₖₖ ν²ₖ].
func gaussianCross(lam, nu2, mu linalg.Vector, sigmaInv *linalg.Matrix, logDet, k float64) float64 {
	d := lam.Sub(mu)
	v := -0.5*k*log2Pi - 0.5*logDet - 0.5*sigmaInv.QuadForm(d, d)
	for kk := range nu2 {
		v -= 0.5 * sigmaInv.At(kk, kk) * nu2[kk]
	}
	return v
}

// gaussianEntropy returns H[N(·, diag(ν²))] = ½ Σₖ log(2πe·ν²ₖ).
func gaussianEntropy(nu2 linalg.Vector) float64 {
	var h float64
	for _, v := range nu2 {
		h += 0.5 * math.Log(2*math.Pi*math.E*v)
	}
	return h
}

// logDetSPD returns log det(a) through spdFactor, −Inf when it finds no
// factor.
func logDetSPD(a *linalg.Matrix) float64 {
	l := make(linalg.Vector, len(a.Data))
	if !spdFactor(l, a) {
		return math.Inf(-1)
	}
	return cholLogDet(l, a.Rows)
}
