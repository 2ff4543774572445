package core

import (
	"math"

	"crowdselect/internal/linalg"
)

// taskObjective is the portion of the variational bound L′(q) that
// depends on one task's (λ_c, ν_c), with everything else held fixed.
// It is maximized over x = [λ; ρ], ρ = log ν² (the log
// re-parameterization keeps ν² positive, cf. §5.2): by conjugate gradient
// in training (solve, cg), by Newton's method in projection (solveNewton,
// newton).
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
// projection: one task objective, its negation as a problem (the two
// closures are bound to the objective once, here) and the working set of
// both solves, training's conjugate gradient (cg) and projection's Newton
// iteration (newton). After its first solve at a given K it allocates
// nothing. Both methods ask for the gradient only at the point whose
// value they have just taken (the start, then each accepted Armijo
// trial), so every Grad finds the objective's per-point intermediates in
// place and takes no exponential and no matrix–vector product of its own.
// Operands and order of every operation are fixed (DESIGN §6): a solve is
// bit-identical to one on a fresh objective that recomputes everything at
// every call — TestGoldenNumerics and TestTaskObjectiveMatchesReference
// hold that.
type taskSolver struct {
	obj    taskObjective
	prob   problem
	x0     linalg.Vector
	expLam linalg.Vector // e^{λₖ − max λ}, per φ round

	// The working set: the gradient of prob, the step (cg's search
	// direction, newton's Newton step) and the trial point; cg's previous
	// gradient; newton's ρ-block curvature c and the K×K matrix S,
	// factored in place. factor is cholesky, bound here so a test can
	// count the factorizations.
	factor          func(a linalg.Vector, n int) bool
	g, p, xt        linalg.Vector
	gPrev, c, schur linalg.Vector
}

// problem is an objective to minimize and its gradient.
type problem struct {
	// Eval returns the objective value at x.
	Eval func(x linalg.Vector) float64
	// Grad writes the gradient at x into g (len(g) == len(x)).
	Grad func(x, g linalg.Vector)
}

func newTaskSolver() *taskSolver {
	s := &taskSolver{factor: cholesky}
	s.prob = problem{
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

// The two solves' constants: where both stop (‖∇F‖∞ ≤ taskGradTol), the
// sufficient-increase constant of both line searches, the iteration caps
// of training's conjugate gradient and of projection's Newton iteration,
// the relative gain below which cg stops and how many trials each line
// search makes before it gives up.
const (
	taskGradTol         = 1e-5
	armijoC             = 1e-4
	trainCGIter         = 12
	projectNewtonIter   = 15
	cgFuncTol           = 1e-10
	cgMaxBacktracks     = 50
	newtonMaxBacktracks = 30
)

// solve maximizes the loaded objective over (λ, ρ = log ν²) by
// conjugate gradient from the given state and writes the optimum back
// into lam and nu2, ν² clamped so downstream exp() stays finite. It
// reports false, leaving lam and nu2 untouched, on numerical failure.
func (s *taskSolver) solve(lam, nu2 linalg.Vector, maxIter int) bool {
	x := s.start(lam, nu2)
	s.cg(x, maxIter)
	return s.finish(x, lam, nu2)
}

// solveNewton is solve by newton, for an objective without feedback
// terms (Algorithm 3's projection).
func (s *taskSolver) solveNewton(lam, nu2 linalg.Vector, maxIter int) bool {
	x := s.start(lam, nu2)
	s.newton(x, maxIter)
	return s.finish(x, lam, nu2)
}

// start writes the point [λ; log ν²] of a solve into the solver's x0
// and returns it.
func (s *taskSolver) start(lam, nu2 linalg.Vector) linalg.Vector {
	k := s.obj.k
	x0 := scratchVec(&s.x0, 2*k)
	copy(x0[:k], lam)
	for kk := 0; kk < k; kk++ {
		x0[k+kk] = math.Log(nu2[kk])
	}
	return x0
}

// finish writes the optimum x of a solve into lam and nu2, ρ clamped to
// ±30, and reports true; on a non-finite x it reports false and writes
// nothing.
func (s *taskSolver) finish(x, lam, nu2 linalg.Vector) bool {
	if !x.IsFinite() {
		return false
	}
	k := s.obj.k
	copy(lam, x[:k])
	for kk := 0; kk < k; kk++ {
		rho := x[k+kk]
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

// solveStop says why cg or newton returned.
type solveStop int

const (
	stopConverged  solveStop = iota // ‖∇F‖∞ ≤ taskGradTol
	stopStepCap                     // maxIter steps taken
	stopLineSearch                  // no trial of the line search passed Armijo
	stopNoStep                      // newton: S had no factor, or the step was no ascent direction
	stopStalled                     // cg: the last step gained less than cgFuncTol of F
)

// cg minimizes s.prob over x in place by nonlinear conjugate gradient with
// the Polak–Ribière+ update (β = max(0, βPR), which subsumes
// steepest-descent restarts) and an Armijo backtracking line search (see
// armijo for its first trial and its shrink rule), from x as given, and
// reports why it stopped; x is then the last accepted iterate. It works in
// the solver's vectors, sized by len(x), so a warm solver allocates
// nothing. What one line search hands the next — the decrease it accepted
// — is a local of this call, so a solver carries nothing from one solve
// into another.
func (s *taskSolver) cg(x linalg.Vector, maxIter int) solveStop {
	n := len(x)
	s.g, s.gPrev, s.p, s.xt = scratchVec(&s.g, n), scratchVec(&s.gPrev, n), scratchVec(&s.p, n), scratchVec(&s.xt, n)
	g, gPrev, d := s.g, s.gPrev, s.p

	f := s.prob.Eval(x)
	s.prob.Grad(x, g)
	for i := range d {
		d[i] = -g[i]
	}
	if g.NormInf() <= taskGradTol {
		return stopConverged
	}

	// What the last accepted step took off f: none yet, so the first
	// search starts at 1.
	decrease := 0.0
	for iter := 1; iter <= maxIter; iter++ {
		// Ensure d is a descent direction; restart on failure.
		slope := g.Dot(d)
		if slope >= 0 {
			for i := range d {
				d[i] = -g[i]
			}
			slope = g.Dot(d)
		}

		fNew, ok := s.armijo(x, f, slope, firstTrial(decrease, slope))
		if !ok {
			return stopLineSearch
		}
		copy(x, s.xt)

		copy(gPrev, g)
		s.prob.Grad(x, g)

		decrease = f - fNew
		relImp := decrease / (math.Abs(f) + 1e-12)
		f = fNew

		if g.NormInf() <= taskGradTol {
			return stopConverged
		}
		if relImp >= 0 && relImp < cgFuncTol {
			return stopStalled
		}

		// Polak–Ribière+ direction update.
		var num, den float64
		for i := range g {
			num += g[i] * (g[i] - gPrev[i])
			den += gPrev[i] * gPrev[i]
		}
		beta := 0.0
		if den > 0 {
			beta = math.Max(0, num/den)
		}
		for i := range d {
			d[i] = -g[i] + beta*d[i]
		}
	}
	return stopStepCap
}

// firstTrial is the step a line search tries first when the previous one
// lowered the objective by decrease and the new direction's slope is
// slope < 0: the step at which a quadratic model of the new direction
// would repeat that decrease, 2·decrease/(−slope), times 1.01 so that a
// run of unit steps stays at the cap (Nocedal & Wright, Numerical
// Optimization, eq. 3.60), capped at 1. A guess that is not a positive
// finite number — no decrease, an overflow — is replaced by 1.
func firstTrial(decrease, slope float64) float64 {
	t := 1.01 * 2 * decrease / -slope
	if !(t > 0) || math.IsInf(t, 0) {
		return 1
	}
	return math.Min(1, t)
}

// shrink is the step tried after the trial at t was rejected with value
// ft: the minimizer of the quadratic through f, slope and ft when it lies
// in [0.1 t, 0.5 t] — the safeguard keeps a flat or a wild model from
// stalling or overshooting the search — and t/2 otherwise, which is also
// what follows a trial whose value was not finite (nothing can be fitted
// through it).
func shrink(t, f, slope, ft float64) float64 {
	if finite(ft) {
		if tq := -slope * t * t / (2 * (ft - f - slope*t)); tq >= 0.1*t && tq <= 0.5*t {
			return tq
		}
	}
	return t / 2
}

// armijo backtracks from the step t along s.p until
// f(x+t·p) ≤ f + armijoC·t·slope, shrinking t by shrink's rule, leaving
// the accepted point in s.xt and returning its objective.
func (s *taskSolver) armijo(x linalg.Vector, f, slope, t float64) (float64, bool) {
	d, xt := s.p, s.xt
	for k := 0; k < cgMaxBacktracks; k++ {
		for i := range x {
			xt[i] = x[i] + t*d[i]
		}
		ft := s.prob.Eval(xt)
		// A trial value of NaN or ±Inf means the step left the
		// objective's domain; −Inf in particular would satisfy the
		// sufficient-decrease inequality and poison the iterate, so any
		// non-finite value rejects the step.
		if finite(ft) && ft <= f+armijoC*t*slope {
			return ft, true
		}
		t = shrink(t, f, slope, ft)
	}
	return f, false
}

// newton maximizes the loaded objective, which must carry no feedback
// terms, over x = [λ; ρ] in place by damped Newton steps, from x as
// given, and reports why it stopped. F is jointly concave (the prior is a
// concave quadratic, −exp(λ + e^ρ/2) is concave, −½(Σ_c⁻¹)ₖₖe^ρ too,
// and ½ρ is linear), so its negative Hessian is positive definite:
//
//	H = [ Σ_c⁻¹ + r·diag(e)   diag(b) ]    r = L/ε, e = exp(λ + ν²/2),
//	    [ diag(b)             diag(c) ]    b = r·e·ν²/2,
//	                                       c = ½(Σ_c⁻¹)ₖₖν² + b·(1 + ν²/2).
//
// The ρ block is diagonal, so the step H·[Δλ; Δρ] = ∇F eliminates it
// through its Schur complement: S = Σ_c⁻¹ + diag(r·e − b²/c), which is
// positive definite too (b²/c < r·e), is factored by Cholesky in place,
// S·Δλ = ∇_λF − b∘∇_ρF/c is solved and Δρ = (∇_ρF − b∘Δλ)/c. The step is
// taken at the first t of 1, ½, ¼, … whose F is finite and gains at least
// armijoC·t·∇Fᵀ[Δλ; Δρ]. H is read from the intermediates the
// objective keeps for its last point — e and ν² — which are those of x:
// the last value taken is the accepted trial's, and its gradient follows.
// A step costs one value and one gradient at t = 1, no exponential beyond
// the value's 2K, and one K×K factorization.
//
// It runs on the negated problem, as cg does (the sign flips are
// exact), so a test that wraps s.prob counts its calls; every product
// that feeds a sum is rounded by a float64 conversion, so no port may
// fuse it (DESIGN §6).
func (s *taskSolver) newton(x linalg.Vector, maxIter int) solveStop {
	o := &s.obj
	k := o.k
	// g holds −∇F, which s.prob.Grad writes; p is the step, whose Δλ is
	// first the right-hand side and whose Δρ first holds b.
	g, p, xt := scratchVec(&s.g, 2*k), scratchVec(&s.p, 2*k), scratchVec(&s.xt, 2*k)
	c, sm := scratchVec(&s.c, k), scratchVec(&s.schur, k*k)
	gl, gr, pl, pr := g[:k], g[k:], p[:k], p[k:]
	r := o.total / o.eps
	f := s.prob.Eval(x)
	s.prob.Grad(x, g)
	for step := 0; ; step++ {
		gn := 0.0
		for _, v := range g {
			if a := math.Abs(v); !(a <= gn) { // a NaN sticks
				gn = a
			}
		}
		if gn <= taskGradTol {
			return stopConverged
		}
		if step == maxIter {
			return stopStepCap
		}
		copy(sm, o.sigmaCInv.Data)
		for kk := 0; kk < k; kk++ {
			nu2, re := o.nu2[kk], float64(r*o.e[kk])
			b := float64(re*nu2) / 2
			ck := float64(float64(o.sigmaCInv.Data[kk*k+kk]*nu2)/2) + float64(b*(1+float64(nu2/2)))
			sm[kk*k+kk] += re - float64(b*b)/ck
			c[kk], pr[kk] = ck, b
			pl[kk] = float64(b*gr[kk])/ck - gl[kk]
		}
		if !s.factor(sm, k) {
			return stopNoStep
		}
		cholSolve(sm, k, pl)
		slope := 0.0 // −∇Fᵀp, negative along an ascent step
		for kk := 0; kk < k; kk++ {
			pr[kk] = -(gr[kk] + float64(pr[kk]*pl[kk])) / c[kk]
			slope += float64(gl[kk]*pl[kk]) + float64(gr[kk]*pr[kk])
		}
		if !(slope < 0) {
			return stopNoStep
		}
		t := 1.0
		for bt := 0; ; bt++ {
			if bt == newtonMaxBacktracks {
				return stopLineSearch
			}
			for i, v := range x {
				xt[i] = v + float64(t*p[i])
			}
			// A non-finite trial left the objective's domain: −Inf of −F
			// would pass the test below, so any non-finite value rejects.
			if ft := s.prob.Eval(xt); finite(ft) && ft <= f+float64(float64(armijoC*t)*slope) {
				f = ft
				break
			}
			t /= 2
		}
		copy(x, xt)
		s.prob.Grad(x, g)
	}
}

// cholesky factors the symmetric positive definite n×n matrix a
// (row-major; only its lower triangle is read) as L·Lᵀ in place, L in the
// lower triangle. It reports false at a pivot that is not positive and
// finite, leaving a partly overwritten.
func cholesky(a linalg.Vector, n int) bool {
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			v := a[i*n+j]
			for q := 0; q < j; q++ {
				v -= float64(a[i*n+q] * a[j*n+q])
			}
			if i > j {
				a[i*n+j] = v / a[j*n+j]
				continue
			}
			if !(v > 0) || !finite(v) {
				return false
			}
			a[j*n+j] = math.Sqrt(v)
		}
	}
	return true
}

// cholSolve overwrites y with (L·Lᵀ)⁻¹y for the factor cholesky left in a.
func cholSolve(a linalg.Vector, n int, y linalg.Vector) {
	for i := 0; i < n; i++ {
		v := y[i]
		for q := 0; q < i; q++ {
			v -= float64(a[i*n+q] * y[q])
		}
		y[i] = v / a[i*n+i]
	}
	for i := n - 1; i >= 0; i-- {
		v := y[i]
		for q := i + 1; q < n; q++ {
			v -= float64(a[q*n+i] * y[q])
		}
		y[i] = v / a[i*n+i]
	}
}

// spdJitterTries bounds spdFactor's retries: the diagonal jitter runs
// 1e-10, 1e-9, … 1e-3.
const spdJitterTries = 8

// spdFactor copies the SPD matrix a into l (n×n, row-major) and factors
// it there by cholesky. A covariance estimate accumulated in floating
// point can go marginally indefinite, so a failed pivot retries on a
// fresh copy with spdJitterTries geometrically growing jitters added to
// the diagonal. It reports whether a factor was found.
func spdFactor(l linalg.Vector, a *linalg.Matrix) bool {
	n := a.Rows
	copy(l, a.Data)
	jitter := 1e-10
	for try := 0; !cholesky(l, n); try++ {
		if try == spdJitterTries {
			return false
		}
		copy(l, a.Data)
		for i := 0; i < n; i++ {
			l[i*n+i] += jitter
		}
		jitter *= 10
	}
	return true
}

// spdInverse returns A⁻¹ for the SPD matrix a: spdFactor, then cholSolve
// on one unit vector per column, symmetrized. It reports false when
// spdFactor finds no factor.
func spdInverse(a *linalg.Matrix) (*linalg.Matrix, bool) {
	n := a.Rows
	l := make(linalg.Vector, n*n)
	if !spdFactor(l, a) {
		return nil, false
	}
	inv := linalg.NewMatrix(n, n)
	col := make(linalg.Vector, n)
	for j := 0; j < n; j++ {
		col.Zero()
		col[j] = 1
		cholSolve(l, n, col)
		for i, v := range col {
			inv.Data[i*n+j] = v
		}
	}
	return inv.Symmetrize(), true
}

// cholLogDet returns log det(L·Lᵀ) = 2·Σ log Lᵢᵢ for the factor cholesky
// left in l.
func cholLogDet(l linalg.Vector, n int) float64 {
	var s float64
	for i := 0; i < n; i++ {
		s += math.Log(l[i*n+i])
	}
	return 2 * s
}

// updateLambdaNuC maximizes task j's objective over (λ_c, ν_c) on the
// caller's solver, starting from the current variational state; on
// numerical failure the previous iterate is kept.
func (tr *trainer) updateLambdaNuC(s *taskSolver, j int, withFeedback bool) {
	tr.loadTaskObjective(&s.obj, j, withFeedback)
	s.solve(tr.lambdaC[j], tr.nuC2[j], trainCGIter)
}
