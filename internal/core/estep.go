package core

import (
	"math"

	"crowdselect/internal/linalg"
	"crowdselect/internal/optimize"
)

// taskObjective is the portion of the variational bound L′(q) that
// depends on one task's (λ_c, ν_c), with everything else held fixed.
// It is optimized by conjugate gradient over x = [λ; ρ], ρ = log ν²
// (the log re-parameterization keeps ν² positive, cf. §5.2).
//
// Up to constants, with L the task's token count and ε its Taylor
// point:
//
//	F(λ, ν²) = −½ (λ−μ_c)ᵀ Σ_c⁻¹ (λ−μ_c) − ½ Σₖ (Σ_c⁻¹)ₖₖ ν²ₖ     prior
//	         + tokSum·λ − L·(Σₖ exp(λₖ+ν²ₖ/2)/ε − 1 + log ε)      tokens
//	         − 1/(2τ²)·[S2 − 2·Sw·λ + λᵀAλ + Σₖ NW2ₖλ²ₖ
//	                    + (W2+NW2)·ν²]                            feedback
//	         + ½ Σₖ log ν²ₖ                                       entropy
//
// whose stationary conditions reproduce the paper's Eqs. 14–15 (and,
// with the feedback aggregates zeroed, Eqs. 22–23).
type taskObjective struct {
	k         int
	muC       linalg.Vector
	sigmaCInv *linalg.Matrix

	tokSum linalg.Vector // Σ_p count_p · φ_p
	total  float64       // L, the token count
	eps    float64       // the Taylor point ε of Eq. 13 …
	logEps float64       // … and log ε, taken once per solve (setEps)

	// Feedback aggregates over the task's respondents (zero when
	// projecting a new task, Algorithm 3).
	hasFeedback bool
	invTau2     float64
	s2          float64       // Σ s²
	sw          linalg.Vector // Σ s·λ_w
	a           *linalg.Matrix
	w2          linalg.Vector // Σ λ_w∘λ_w
	nw2         linalg.Vector // Σ ν_w²

	// Per-point intermediates (DESIGN §6): everything value and grad both
	// need of a point x = [λ; ρ], computed once by at(x) into buffers the
	// objective owns, so neither allocates and the second of the two to
	// visit a point recomputes nothing. They depend on x, μ_c, Σ_c⁻¹ and,
	// with feedback, A — not on ε, tokSum or total — so reset (and with it
	// loadTaskObjective) is what invalidates them.
	point   linalg.Vector // the 2K floats the intermediates belong to
	pointOK bool
	d       linalg.Vector // λ−μ_c
	pl      linalg.Vector // Σ_c⁻¹(λ−μ_c)
	nu2     linalg.Vector // ν² = exp(ρ)
	e       linalg.Vector // exp(λ + ν²/2)
	al      linalg.Vector // Aλ (feedback only)
}

// reset readies the objective for a task of a model with K = k: it
// binds the category prior, sizes the buffers, zeroes the token
// aggregates and the feedback flag and forgets the point last evaluated.
// The caller then calls setEps and addTokens and, for training, fills the
// feedback aggregates (loadTaskObjective).
func (o *taskObjective) reset(k int, muC linalg.Vector, sigmaCInv *linalg.Matrix) {
	o.k, o.muC, o.sigmaCInv = k, muC, sigmaCInv
	o.tokSum = scratchVec(&o.tokSum, k)
	o.total = 0
	o.hasFeedback = false
	o.pointOK = false
	o.point = scratchVec(&o.point, 2*k)
	o.d = scratchVec(&o.d, k)
	o.pl = scratchVec(&o.pl, k)
	o.nu2 = scratchVec(&o.nu2, k)
	o.e = scratchVec(&o.e, k)
	o.al = scratchVec(&o.al, k)
}

// setEps sets the Taylor point ε of Eq. 13 and its logarithm.
func (o *taskObjective) setEps(eps float64) {
	o.eps, o.logEps = eps, math.Log(eps)
}

// addTokens folds the φ rows of a task's distinct terms, weighted by
// their counts, into tokSum and total.
func (o *taskObjective) addTokens(counts []float64, phi *linalg.Matrix) {
	for p, cnt := range counts {
		o.total += cnt
		o.tokSum.AddScaledInPlace(cnt, phi.Row(p))
	}
}

// loadTaskObjective fills obj with the aggregates of task j of the
// trainer. withFeedback=false drops the score terms (projection mode).
func (tr *trainer) loadTaskObjective(obj *taskObjective, j int, withFeedback bool) {
	k := tr.cfg.K
	obj.reset(k, tr.m.MuC, tr.m.sigmaCInv)
	obj.setEps(tr.eps[j])
	obj.addTokens(tr.tasks[j].Bag.Counts, tr.phi[j])
	if !withFeedback || len(tr.tasks[j].Responses) == 0 {
		return
	}
	obj.hasFeedback = true
	obj.invTau2 = 1 / tr.m.Tau2
	obj.s2 = 0
	obj.sw = scratchVec(&obj.sw, k)
	obj.w2 = scratchVec(&obj.w2, k)
	obj.nw2 = scratchVec(&obj.nw2, k)
	if obj.a == nil || obj.a.Rows != k {
		obj.a = linalg.NewMatrix(k, k)
	} else {
		obj.a.Zero()
	}
	for _, r := range tr.tasks[j].Responses {
		lw, nw := tr.m.LambdaW[r.Worker], tr.m.NuW2[r.Worker]
		obj.s2 += r.Score * r.Score
		obj.sw.AddScaledInPlace(r.Score, lw)
		obj.a.AddOuterInPlace(1, lw, lw)
		for kk := 0; kk < k; kk++ {
			obj.w2[kk] += lw[kk] * lw[kk]
			obj.nw2[kk] += nw[kk]
		}
	}
}

// split views x as (λ, ρ).
func (o *taskObjective) split(x linalg.Vector) (lam, rho linalg.Vector) {
	return x[:o.k], x[o.k:]
}

// at makes the per-point intermediates those of x. A point bitwise equal
// to the one they already belong to costs the comparison and nothing
// else: every intermediate is a function of x and of what reset bound, so
// recomputing it would reproduce the same bits.
func (o *taskObjective) at(x linalg.Vector) {
	if o.pointOK && sameBits(o.point, x) {
		return
	}
	lam, rho := o.split(x)
	for kk, v := range lam {
		o.d[kk] = v - o.muC[kk]
	}
	o.sigmaCInv.MulVecInto(o.pl, o.d)
	for kk := 0; kk < o.k; kk++ {
		nu2 := exp(rho[kk])
		o.nu2[kk] = nu2
		o.e[kk] = exp(lam[kk] + nu2/2)
	}
	if o.hasFeedback {
		o.a.MulVecInto(o.al, lam)
	}
	copy(o.point, x)
	o.pointOK = true
}

// sameBits reports whether a and b hold the same bit patterns: −0 is not
// +0, and a NaN matches a NaN of the same payload.
func sameBits(a, b linalg.Vector) bool {
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// value returns F(λ, ν²); see the type comment.
func (o *taskObjective) value(x linalg.Vector) float64 {
	o.at(x)
	lam, rho := o.split(x)
	f := 0.0
	// Prior.
	f -= 0.5 * o.d.Dot(o.pl)
	for kk := 0; kk < o.k; kk++ {
		f -= 0.5 * o.sigmaCInv.At(kk, kk) * o.nu2[kk]
		f += 0.5 * rho[kk] // entropy ½ log ν²
	}
	// Tokens.
	f += o.tokSum.Dot(lam)
	var expSum float64
	for kk := 0; kk < o.k; kk++ {
		expSum += o.e[kk]
	}
	f -= o.total * (expSum/o.eps - 1 + o.logEps)
	// Feedback.
	if o.hasFeedback {
		quad := o.s2 - 2*o.sw.Dot(lam) + lam.Dot(o.al)
		for kk := 0; kk < o.k; kk++ {
			quad += o.nw2[kk]*lam[kk]*lam[kk] + (o.w2[kk]+o.nw2[kk])*o.nu2[kk]
		}
		f -= 0.5 * o.invTau2 * quad
	}
	return f
}

// grad writes ∇F over (λ, ρ) into g.
func (o *taskObjective) grad(x, g linalg.Vector) {
	o.at(x)
	lam, _ := o.split(x)
	gl, gr := g[:o.k], g[o.k:]

	tokRate := o.total / o.eps
	for kk := 0; kk < o.k; kk++ {
		nu2, e := o.nu2[kk], o.e[kk]
		// Prior + entropy.
		gl[kk] = -o.pl[kk]
		gr[kk] = (-0.5*o.sigmaCInv.At(kk, kk))*nu2 + 0.5
		// Tokens.
		gl[kk] += o.tokSum[kk] - tokRate*e
		gr[kk] -= tokRate * e * nu2 / 2
	}
	// Feedback.
	if o.hasFeedback {
		for kk := 0; kk < o.k; kk++ {
			gl[kk] += o.invTau2 * (o.sw[kk] - o.al[kk] - o.nw2[kk]*lam[kk])
			gr[kk] -= 0.5 * o.invTau2 * (o.w2[kk] + o.nw2[kk]) * o.nu2[kk]
		}
	}
}

// taskSolver is the reusable (λ_c, ν_c) update shared by training and
// projection: one task objective, its negation as an optimize.Problem
// (the two closures are bound to the objective once, here) and the
// optimizer's workspace. After its first solve at a given K it
// allocates nothing. The optimizer asks for the gradient only at the
// point whose value it has just taken (the start, then each accepted
// Armijo trial), so every Grad finds the objective's per-point
// intermediates in place and takes no exponential and no matrix–vector
// product of its own. Operands and order of every operation are fixed
// (DESIGN §6): a solve is bit-identical to one on a fresh objective
// that recomputes everything at every call, through the package-level
// optimize.ConjugateGradient — TestGoldenNumerics and
// TestTaskObjectiveMatchesReference hold that.
type taskSolver struct {
	obj    taskObjective
	prob   optimize.Problem
	ws     optimize.Workspace
	x0     linalg.Vector
	expLam linalg.Vector // e^{λₖ − max λ}, per φ round
}

func newTaskSolver() *taskSolver {
	s := new(taskSolver)
	s.prob = optimize.Problem{
		Eval: func(x linalg.Vector) float64 { return -s.obj.value(x) },
		Grad: func(x, g linalg.Vector) {
			s.obj.grad(x, g)
			g.ScaleInPlace(-1)
		},
	}
	return s
}

// updatePhi applies Eq. 12 as written to every row of phi: φₚₖ ∝ e^{λₖ}·β_{k,v}
// for the distinct term v = ids[p]. The K exponentials are taken once per
// call, shifted by max λ so the largest is 1; a term then costs the
// contiguous K-row v of the term-major table beta = exp(LogBeta)
// (Model.beta), a multiply, a sum and a divide. With BetaSmoothing > 0, β
// is at least the smoothing floor in every category, the one whose factor
// is 1 included, so the sum cannot vanish however far apart the λ are.
func (s *taskSolver) updatePhi(phi *linalg.Matrix, ids []int, lam linalg.Vector, beta *linalg.Matrix) {
	e := scratchVec(&s.expLam, len(lam))
	lamMax := lam.Max()
	for kk, v := range lam {
		e[kk] = exp(v - lamMax)
	}
	for p, v := range ids {
		row, b := phi.Row(p), beta.Row(v)
		var sum float64
		for kk, ek := range e {
			w := ek * b[kk]
			row[kk] = w
			sum += w
		}
		for kk := range row {
			row[kk] /= sum
		}
	}
}

// taylorPoint is Eq. 13: ε = Σₖ exp(λₖ + ν²ₖ/2), floored away from zero.
func taylorPoint(lam, nu2 linalg.Vector) float64 {
	var eps float64
	for kk := range lam {
		eps += exp(lam[kk] + nu2[kk]/2)
	}
	if eps < 1e-300 {
		eps = 1e-300
	}
	return eps
}

// solve maximizes the loaded objective over (λ, ρ = log ν²) by
// conjugate gradient from the given state and writes the optimum back
// into lam and nu2, ν² clamped so downstream exp() stays finite. It
// reports false, leaving lam and nu2 untouched, on numerical failure.
func (s *taskSolver) solve(lam, nu2 linalg.Vector, maxIter int) bool {
	k := s.obj.k
	x0 := scratchVec(&s.x0, 2*k)
	copy(x0[:k], lam)
	for kk := 0; kk < k; kk++ {
		x0[k+kk] = math.Log(nu2[kk])
	}
	res := s.ws.ConjugateGradient(s.prob, x0, optimize.Settings{MaxIter: maxIter, GradTol: 1e-5})
	if !res.X.IsFinite() {
		return false
	}
	// res.X aliases the workspace: copy out before the next solve.
	copy(lam, res.X[:k])
	for kk := 0; kk < k; kk++ {
		rho := res.X[k+kk]
		if rho > 30 {
			rho = 30
		}
		if rho < -30 {
			rho = -30
		}
		nu2[kk] = exp(rho)
	}
	return true
}

// updateLambdaNuC maximizes task j's objective over (λ_c, ν_c) on the
// caller's solver, starting from the current variational state; on
// numerical failure the previous iterate is kept.
func (tr *trainer) updateLambdaNuC(s *taskSolver, j int, withFeedback bool) {
	tr.loadTaskObjective(&s.obj, j, withFeedback)
	s.solve(tr.lambdaC[j], tr.nuC2[j], tr.cfg.CGIter)
}
