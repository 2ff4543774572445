package core

import (
	"math"

	"crowdselect/internal/linalg"
)

const log2Pi = 1.8378770664093453 // log(2π)

// elbo evaluates the full variational bound L′(q) of §5.2. Train uses
// its sweep-to-sweep improvement as the stopping criterion; the tests
// assert its monotonicity.
//
// It runs in two phases. The first fans out over workers and tasks and
// writes every summand — the logarithms, the exponential sums, the
// Gaussian cross terms and the residuals — into the trainer's term
// buffers. The second adds them into one sum in a fixed order: workers,
// tasks, each task's Z-terms, responses. The order, not the width, is
// what the bits depend on, so the bound is the same at every width; a
// per-task partial sum would round differently, and the stop rule reads
// these bits.
func (tr *trainer) elbo() float64 {
	m := tr.m
	nk := tr.cfg.K
	k := float64(nk)

	// E[log p(W)] + H[q(W)].
	ldW := logDetSPD(m.SigmaW)
	tr.fan.run(m.M, trainBlock, func(slot, lo, hi int) {
		d := tr.slots[slot].d
		for i := lo; i < hi; i++ {
			tr.workerTerms[2*i] = gaussianCross(d, m.LambdaW[i], m.NuW2[i], m.MuW, m.sigmaWInv, ldW, k)
			tr.workerTerms[2*i+1] = gaussianEntropy(m.NuW2[i])
		}
	})

	// Per task: E[log p(C)] + H[q(C)]; E′[log p(Z|C)] + E[log p(V|Z,β)]
	// + H[q(Z)]; E[log p(S|WCᵀ, τ)].
	ldC := logDetSPD(m.SigmaC)
	logTau := math.Log(2 * math.Pi * m.Tau2)
	tr.fan.run(len(tr.tasks), trainBlock, func(slot, lo, hi int) {
		d := tr.slots[slot].d
		for j := lo; j < hi; j++ {
			t, b := tr.tasks[j], tr.terms[tr.termOff[j]:tr.termOff[j+1]]
			lc, nc := tr.lambdaC[j], tr.nuC2[j]
			b[0] = gaussianCross(d, lc, nc, m.MuC, m.sigmaCInv, ldC, k)
			b[1] = gaussianEntropy(nc)
			var expSum float64
			for kk := range lc {
				expSum += exp(lc[kk] + nc[kk]/2)
			}
			z := b[2:] // K per distinct term
			var total float64
			for p, v := range t.Bag.IDs {
				cnt := t.Bag.Counts[p]
				total += cnt
				for kk, ph := range tr.phi[j].Row(p) {
					if ph <= 0 {
						continue
					}
					z[p*nk+kk] = cnt * ph * (lc[kk] + m.LogBeta.At(kk, v) - math.Log(ph))
				}
			}
			z = z[t.Bag.Len()*nk:]
			z[0] = total * (expSum/tr.eps[j] - 1 + math.Log(tr.eps[j]))
			for q, r := range t.Responses {
				res := expectedSquaredResidual(r.Score, m.LambdaW[r.Worker], m.NuW2[r.Worker], lc, nc)
				z[1+q] = -0.5*logTau - res/(2*m.Tau2)
			}
		}
	})

	var l float64
	for _, x := range tr.workerTerms {
		l += x
	}
	for j := range tr.tasks {
		b := tr.terms[tr.termOff[j]:]
		l += b[0]
		l += b[1]
	}
	for j, t := range tr.tasks {
		z := tr.terms[tr.termOff[j]+2:]
		for p := range t.Bag.IDs {
			for kk, ph := range tr.phi[j].Row(p) {
				// What the first phase skipped the sum leaves out: it
				// does not add a zero.
				if ph <= 0 {
					continue
				}
				l += z[p*nk+kk]
			}
		}
		l -= z[t.Bag.Len()*nk]
	}
	for j, t := range tr.tasks {
		for _, x := range tr.terms[tr.termOff[j+1]-len(t.Responses) : tr.termOff[j+1]] {
			l += x
		}
	}
	return l
}

// gaussianCross returns E_q[log N(x; μ, Σ)] for q = N(λ, diag(ν²)):
// −K/2·log 2π − ½ log|Σ| − ½[(λ−μ)ᵀΣ⁻¹(λ−μ) + Σₖ (Σ⁻¹)ₖₖ ν²ₖ], with λ−μ
// formed in the caller's d.
func gaussianCross(d, lam, nu2, mu linalg.Vector, sigmaInv *linalg.Matrix, logDet, k float64) float64 {
	for kk, v := range lam {
		d[kk] = v - mu[kk]
	}
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
