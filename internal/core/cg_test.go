package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"crowdselect/internal/linalg"
)

// The tests of training's conjugate gradient (taskSolver.cg, armijo,
// firstTrial, shrink) on synthetic problems: each sets a solver's prob to
// the problem, as countingScratch wraps the task objective's.

// numericalGradient writes the central-difference gradient of eval at x
// into g, using step h per coordinate: the oracle of the hand-derived
// gradients.
func numericalGradient(eval func(linalg.Vector) float64, x linalg.Vector, h float64, g linalg.Vector) {
	xt := x.Clone()
	for i := range x {
		orig := xt[i]
		xt[i] = orig + h
		fp := eval(xt)
		xt[i] = orig - h
		fm := eval(xt)
		xt[i] = orig
		g[i] = (fp - fm) / (2 * h)
	}
}

// diagMatrix returns a square matrix with d on the diagonal.
func diagMatrix(d ...float64) *linalg.Matrix {
	m := linalg.NewMatrix(len(d), len(d))
	for i, v := range d {
		m.Set(i, i, v)
	}
	return m
}

// quadratic builds f(x) = ½ xᵀAx − bᵀx with SPD A; the minimum solves
// Ax = b.
func quadratic(a *linalg.Matrix, b linalg.Vector) problem {
	return problem{
		Eval: func(x linalg.Vector) float64 {
			return 0.5*a.QuadForm(x, x) - b.Dot(x)
		},
		Grad: func(x, g linalg.Vector) {
			ax := a.MulVec(x)
			for i := range g {
				g[i] = ax[i] - b[i]
			}
		},
	}
}

var rosenbrock = problem{
	Eval: func(x linalg.Vector) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	},
	Grad: func(x, g linalg.Vector) {
		b := x[1] - x[0]*x[0]
		g[0] = -2*(1-x[0]) - 400*x[0]*b
		g[1] = 200 * b
	},
}

// coshBowl is f(x) = Σᵢ cᵢ·cosh(xᵢ − i): smooth, strictly convex,
// non-quadratic (so the line search backtracks and PR+ restarts occur)
// and evaluated without allocating.
func coshBowl(c linalg.Vector) problem {
	return problem{
		Eval: func(x linalg.Vector) float64 {
			var f float64
			for i, v := range x {
				f += c[i] * math.Cosh(v-float64(i))
			}
			return f
		},
		Grad: func(x, g linalg.Vector) {
			for i, v := range x {
				g[i] = c[i] * math.Sinh(v-float64(i))
			}
		},
	}
}

// randomSPD returns rawᵀ·raw + n·I for a random n×n raw, summed as one
// outer product per row of raw.
func randomSPD(rng *rand.Rand, n int) *linalg.Matrix {
	a := linalg.NewMatrix(n, n)
	row := make(linalg.Vector, n)
	for r := 0; r < n; r++ {
		for i := range row {
			row[i] = rng.NormFloat64()
		}
		a.AddOuterInPlace(1, row, row)
	}
	return a.AddScalarDiagInPlace(float64(n)).Symmetrize()
}

// randomQuadratic is one of the SPD bowls TestCGRandomQuadratics solves.
func randomQuadratic(rng *rand.Rand) (problem, int) {
	n := 2 + rng.Intn(8)
	a := randomSPD(rng, n)
	b := make(linalg.Vector, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return quadratic(a, b), n
}

// recorded wraps a problem so a test sees what cg asked of it: every
// trial point with its value, and every point a gradient was taken at —
// the start and then each accepted step, in order.
type recorded struct {
	problem
	trials   []linalg.Vector
	values   []float64
	accepted []linalg.Vector
}

func record(p problem) *recorded {
	r := new(recorded)
	r.Eval = func(x linalg.Vector) float64 {
		f := p.Eval(x)
		r.trials, r.values = append(r.trials, x.Clone()), append(r.values, f)
		return f
	}
	r.Grad = func(x, g linalg.Vector) {
		p.Grad(x, g)
		r.accepted = append(r.accepted, x.Clone())
	}
	return r
}

// cgCase is a problem with the point a test minimizes it from.
type cgCase struct {
	p  problem
	x0 linalg.Vector
}

// cgOn minimizes p from x0 on s by cg and returns the iterate it stopped
// at and why; x0 is not modified.
func cgOn(s *taskSolver, p problem, x0 linalg.Vector, maxIter int) (linalg.Vector, solveStop) {
	s.prob = p
	x := x0.Clone()
	return x, s.cg(x, maxIter)
}

// cgFresh is cgOn on a solver of its own.
func cgFresh(p problem, x0 linalg.Vector, maxIter int) (linalg.Vector, solveStop) {
	return cgOn(newTaskSolver(), p, x0, maxIter)
}

func TestCGQuadratic(t *testing.T) {
	a := linalg.NewMatrixFrom(2, 2, []float64{3, 1, 1, 2})
	b := linalg.Vector{1, 2}
	want := mustSPDSolve(t, a, b)
	x, stop := cgFresh(quadratic(a, b), linalg.Vector{10, -10}, 200)
	if sub(x, want).NormInf() > 1e-4 {
		t.Errorf("CG = %v (stop %d), want %v", x, stop, want)
	}
	if stop != stopConverged && stop != stopStalled {
		t.Errorf("stop = %d", stop)
	}
}

func TestCGRandomQuadratics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(8)
		a := randomSPD(rng, n)
		b := make(linalg.Vector, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want := mustSPDSolve(t, a, b)
		x, _ := cgFresh(quadratic(a, b), make(linalg.Vector, n), 500)
		if sub(x, want).NormInf() > 1e-4 {
			t.Fatalf("trial %d: CG off by %v", trial, sub(x, want).NormInf())
		}
	}
}

func TestCGRosenbrock(t *testing.T) {
	x, stop := cgFresh(rosenbrock, linalg.Vector{-1.2, 1}, 20000)
	if sub(x, linalg.Vector{1, 1}).NormInf() > 1e-3 {
		t.Errorf("Rosenbrock: got %v (stop %d)", x, stop)
	}
}

func TestCGImmediateConvergence(t *testing.T) {
	x, stop := cgFresh(quadratic(linalg.Identity(2), linalg.Vector{1, 1}), linalg.Vector{1, 1}, 200)
	if stop != stopConverged || !reflect.DeepEqual(x, linalg.Vector{1, 1}) {
		t.Errorf("at-optimum start: stop %d at %v", stop, x)
	}
}

// TestConvergedStartReportsZeroIterations: started at the optimum, cg
// reports convergence without taking a step or running a line search.
func TestConvergedStartReportsZeroIterations(t *testing.T) {
	r := record(quadratic(linalg.Identity(2), linalg.Vector{1, 1}))
	if _, stop := cgFresh(r.problem, linalg.Vector{1, 1}, 200); stop != stopConverged {
		t.Errorf("stop %d, want converged", stop)
	}
	if len(r.trials) > 1 || len(r.accepted) > 1 {
		t.Errorf("%d objective and %d gradient evaluations at a converged start (a step was taken)", len(r.trials), len(r.accepted))
	}
}

func TestNumericalGradientMatchesAnalytic(t *testing.T) {
	a := linalg.NewMatrixFrom(3, 3, []float64{4, 1, 0, 1, 3, 1, 0, 1, 5})
	b := linalg.Vector{1, -2, 0.5}
	p := quadratic(a, b)
	x := linalg.Vector{0.3, -1.1, 2.2}
	ga := make(linalg.Vector, 3)
	gn := make(linalg.Vector, 3)
	p.Grad(x, ga)
	numericalGradient(p.Eval, x, 1e-6, gn)
	if sub(ga, gn).NormInf() > 1e-5 {
		t.Errorf("analytic %v vs numeric %v", ga, gn)
	}
}

func TestLineSearchFailureOnDivergentObjective(t *testing.T) {
	// Unbounded-below linear objective: every step helps, so the line
	// search always succeeds; the iteration cap ends the loop.
	linear := problem{
		Eval: func(x linalg.Vector) float64 { return x[0] },
		Grad: func(x, g linalg.Vector) { g[0] = 1 },
	}
	if _, stop := cgFresh(linear, linalg.Vector{0}, 10); stop != stopStepCap {
		t.Errorf("stop = %d, want the step cap", stop)
	}
	// NaN-producing objective: the line search must bail out and the
	// last iterate must be left finite.
	nan := problem{
		Eval: func(x linalg.Vector) float64 {
			if x[0] != 0 {
				return math.NaN()
			}
			return 0
		},
		Grad: func(x, g linalg.Vector) { g[0] = 1 },
	}
	x, stop := cgFresh(nan, linalg.Vector{0}, 10)
	if stop != stopLineSearch {
		t.Errorf("stop = %d, want line search failed", stop)
	}
	if !x.IsFinite() {
		t.Errorf("left a non-finite iterate %v", x)
	}
}

func TestArmijoRejectsNegativeInfObjective(t *testing.T) {
	// An objective that returns −Inf off its domain (here x > 1)
	// trivially satisfies the sufficient-decrease inequality, so a line
	// search that only screens NaN would accept the divergent step and
	// poison every later iterate. The first trial, at 5, is off the
	// domain: the backtracking must shrink past the boundary instead and
	// keep the iterate finite.
	r := record(problem{
		Eval: func(x linalg.Vector) float64 {
			if x[0] > 1 {
				return math.Inf(-1)
			}
			return (x[0] - 1) * (x[0] - 1)
		},
		Grad: func(x, g linalg.Vector) {
			if x[0] > 1 {
				g[0] = math.Inf(-1)
				return
			}
			g[0] = 2 * (x[0] - 1)
		},
	})
	x, stop := cgFresh(r.problem, linalg.Vector{-3}, 100)
	if !x.IsFinite() || !finite(r.problem.Eval(x)) {
		t.Errorf("accepted a non-finite trial: x=%v", x)
	}
	if math.Abs(x[0]-1) > 1e-3 {
		t.Errorf("x = %v, want ≈ 1 (stop %d)", x, stop)
	}
	if !math.IsInf(r.values[1], -1) {
		t.Errorf("the first trial's value is %v; the test no longer leaves the domain", r.values[1])
	}
}

// TestAcceptedStepsSatisfyArmijo: whatever the first trial and the shrink
// rule propose, a step is taken only if its value is finite and meets
// f(x+t·d) ≤ f(x) + c·t·∇f(x)ᵀd. The test never sees t or d, but
// t·d = x⁺ − x, so the right-hand side is f(x) + c·∇f(x)ᵀ(x⁺ − x).
func TestAcceptedStepsSatisfyArmijo(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q, n := randomQuadratic(rng)
	x0 := make(linalg.Vector, n)
	for i := range x0 {
		x0[i] = 10 * rng.NormFloat64()
	}
	problems := map[string]cgCase{
		"rosenbrock": {rosenbrock, linalg.Vector{-1.2, 1}},
		"cosh":       {coshBowl(linalg.Vector{1, 2, 3, 4}), linalg.Vector{5, -4, 3, -2}},
		"quadratic":  {q, x0},
	}

	for name, tc := range problems {
		r := record(tc.p)
		cgFresh(r.problem, tc.x0, 300)
		if len(r.accepted) < 3 {
			t.Fatalf("%s: %d gradients; the test exercises little", name, len(r.accepted))
		}
		g := make(linalg.Vector, len(tc.x0))
		for k := 1; k < len(r.accepted); k++ {
			x, next := r.accepted[k-1], r.accepted[k]
			f, fNext := tc.p.Eval(x), tc.p.Eval(next)
			tc.p.Grad(x, g)
			bound := f + armijoC*g.Dot(sub(next, x))
			if !finite(fNext) || !next.IsFinite() {
				t.Fatalf("%s: step %d accepted a non-finite point", name, k)
			}
			// t·d is rounded when it is added to x, so the slope term is
			// recovered to a few ulps of f, not exactly.
			if fNext > bound+1e-12*(1+math.Abs(f)) {
				t.Errorf("%s: step %d accepted f=%v above the Armijo bound %v", name, k, fNext, bound)
			}
		}
	}
}

// TestNonFiniteTrialIsRejectedAndHalves drives one search along d = 1
// from x = 0 over an objective that is NaN, +Inf or −Inf beyond x = 1.5:
// from a first trial of 8 the search must visit 8, 4, 2 — nothing can be
// interpolated through a non-finite value — and accept 1.
func TestNonFiniteTrialIsRejectedAndHalves(t *testing.T) {
	for name, off := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)} {
		r := record(problem{Eval: func(x linalg.Vector) float64 {
			if x[0] > 1.5 {
				return off
			}
			return -x[0]
		}})
		s := newTaskSolver()
		s.prob, s.p, s.xt = r.problem, linalg.Vector{1}, linalg.Vector{0}
		ft, ok := s.armijo(linalg.Vector{0}, 0, -1, 8)
		if !ok || ft != -1 || s.xt[0] != 1 {
			t.Errorf("%s: accepted f=%v at x=%v (ok=%v), want −1 at 1", name, ft, s.xt[0], ok)
		}
		if want := []linalg.Vector{{8}, {4}, {2}, {1}}; !reflect.DeepEqual(r.trials, want) {
			t.Errorf("%s: trials at %v, want %v", name, r.trials, want)
		}
	}
	if got := shrink(2, 1, -1, math.NaN()); got != 1 {
		t.Errorf("a non-finite trial at 2 is followed by %v, want 1", got)
	}
}

// TestShrinkInterpolatesInsideSafeguard: the step after a rejected finite
// trial at t is the quadratic's minimizer when that lies in
// [0.1 t, 0.5 t], and t/2 otherwise — never anything else.
func TestShrinkInterpolatesInsideSafeguard(t *testing.T) {
	// φ(t) = (t−0.3)² has φ(0) = 0.09, φ′(0) = −0.6 and φ(1) = 0.49: the
	// model is exact and its minimizer 0.3 is inside [0.1, 0.5].
	if got := shrink(1, 0.09, -0.6, 0.49); math.Abs(got-0.3) > 1e-15 {
		t.Errorf("interpolated step = %v, want 0.3", got)
	}
	// A trial barely above the Armijo line puts the minimizer near t
	// (> 0.5 t); one far above it puts it near 0 (< 0.1 t).
	if got := shrink(1, 0, -1, -1e-6); got != 0.5 {
		t.Errorf("minimizer beyond 0.5 t: next step %v, want the fallback 0.5", got)
	}
	if got := shrink(1, 0, -1, 1e6); got != 0.5 {
		t.Errorf("minimizer below 0.1 t: next step %v, want the fallback 0.5", got)
	}
	rng := rand.New(rand.NewSource(7))
	interpolated := 0
	for i := 0; i < 10000; i++ {
		step := math.Exp(6 * rng.NormFloat64())
		f, slope := rng.NormFloat64(), -math.Exp(3*rng.NormFloat64())
		ft := f + slope*step*(1e-4-4*rng.Float64()*rng.Float64()) // on or above the Armijo line
		next := shrink(step, f, slope, ft)
		switch {
		case next == step/2:
		case next >= 0.1*step && next <= 0.5*step:
			interpolated++
		default:
			t.Fatalf("shrink(%v, %v, %v, %v) = %v: neither the fallback nor inside [0.1 t, 0.5 t]", step, f, slope, ft, next)
		}
	}
	if interpolated < 1000 {
		t.Errorf("only %d of 10000 random rejections interpolated; the property test exercises little", interpolated)
	}
}

// TestFirstTrialFallsBack: a guess that is zero, negative, NaN, infinite
// or above 1 is not used.
func TestFirstTrialFallsBack(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name                    string
		decrease, slope, wanted float64
	}{
		{"the quadratic-model step", 0.1, -1, 1.01 * 2 * 0.1},
		{"a guess above 1 is capped", 3, -1, 1},
		{"no decrease", 0, -1, 1},
		{"an increase", -0.5, -1, 1},
		{"NaN decrease", nan, -1, 1},
		{"infinite decrease", inf, -1, 1},
		{"zero slope, zero decrease (0/0)", 0, 0, 1},
		{"zero slope (x/0)", 0.5, 0, 1},
		{"NaN slope", 0.5, nan, 1},
		{"ascent slope", 0.5, 2, 1},
	} {
		if got := firstTrial(tc.decrease, tc.slope); got != tc.wanted {
			t.Errorf("%s: firstTrial(%v, %v) = %v, want %v", tc.name, tc.decrease, tc.slope, got, tc.wanted)
		}
	}
}

// halvingCG is the search cg ran before its line search learned from the
// last one: every line search starts at 1 and every rejection halves the
// step. It is the reference TestNeverMoreEvaluationsThanHalving counts
// against, and nothing else.
func halvingCG(p problem, x0 linalg.Vector, maxIter int) solveStop {
	n := len(x0)
	x, xt := x0.Clone(), make(linalg.Vector, n)
	g, gPrev, d := make(linalg.Vector, n), make(linalg.Vector, n), make(linalg.Vector, n)
	f := p.Eval(x)
	p.Grad(x, g)
	if g.NormInf() <= taskGradTol {
		return stopConverged
	}
	beta := 0.0
	for iter := 1; iter <= maxIter; iter++ {
		for i := range d {
			d[i] = -g[i] + beta*d[i]
		}
		slope := g.Dot(d)
		if slope >= 0 {
			for i := range d {
				d[i] = -g[i]
			}
			slope = g.Dot(d)
		}
		step, fNew, ok := 1.0, f, false
		for k := 0; k < cgMaxBacktracks && !ok; k++ {
			for i := range x {
				xt[i] = x[i] + step*d[i]
			}
			fNew = p.Eval(xt)
			ok = finite(fNew) && fNew <= f+armijoC*step*slope
			step /= 2
		}
		if !ok {
			return stopLineSearch
		}
		x, xt = xt, x
		copy(gPrev, g)
		p.Grad(x, g)
		relImp := (f - fNew) / (math.Abs(f) + 1e-12)
		f = fNew
		if g.NormInf() <= taskGradTol {
			return stopConverged
		}
		if relImp >= 0 && relImp < cgFuncTol {
			return stopStalled
		}
		var num, den float64
		for i := range g {
			num += g[i] * (g[i] - gPrev[i])
			den += gPrev[i] * gPrev[i]
		}
		beta = 0
		if den > 0 {
			beta = math.Max(0, num/den)
		}
	}
	return stopStepCap
}

// TestNeverMoreEvaluationsThanHalving: on the convex quadratics of
// TestCGQuadratic and TestCGRandomQuadratics cg reaches its stop with no
// more objective evaluations than halving from 1 did.
func TestNeverMoreEvaluationsThanHalving(t *testing.T) {
	type bowl struct {
		name    string
		p       problem
		x0      linalg.Vector
		maxIter int
	}
	bowls := []bowl{
		{"2x2", quadratic(linalg.NewMatrixFrom(2, 2, []float64{3, 1, 1, 2}), linalg.Vector{1, 2}), linalg.Vector{10, -10}, 200},
		{"diag(2,4)", quadratic(linalg.NewMatrixFrom(2, 2, []float64{2, 0, 0, 4}), linalg.Vector{2, 4}), linalg.Vector{9, 9}, 2000},
		{"diag(1,100)", quadratic(diagMatrix(1, 100), linalg.Vector{1, 100}), linalg.Vector{50, -50}, 5000},
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		p, n := randomQuadratic(rng)
		bowls = append(bowls, bowl{"random", p, make(linalg.Vector, n), 500})
	}
	for i, b := range bowls {
		now, before := record(b.p), record(b.p)
		_, stop := cgFresh(now.problem, b.x0, b.maxIter)
		halvingCG(before.problem, b.x0, b.maxIter)
		if stop == stopStepCap || stop == stopLineSearch {
			t.Errorf("bowl %d (%s): stopped with %d", i, b.name, stop)
		}
		if len(now.trials) > len(before.trials) {
			t.Errorf("bowl %d (%s): %d evaluations (%d steps), halving from 1 took %d (%d steps)",
				i, b.name, len(now.trials), len(now.accepted)-1, len(before.trials), len(before.accepted)-1)
		}
	}
}

// cgBits flattens what a cg solve returned so two can be compared bit for
// bit.
func cgBits(x linalg.Vector, stop solveStop) []uint64 {
	bits := []uint64{uint64(stop)}
	for _, v := range x {
		bits = append(bits, math.Float64bits(v))
	}
	return bits
}

// TestInterleavedProblemsMatchFresh: what a line search learns from its
// predecessor belongs to one solve. Two unlike problems solved alternately
// on one solver — the steep one leaves large decreases behind, the
// shallow one tiny ones — ask for exactly the trial points, and return
// exactly the bits, that each gets from a solver of its own (batch ≡
// sequential rests on this, DESIGN §8).
func TestInterleavedProblemsMatchFresh(t *testing.T) {
	steep := coshBowl(linalg.Vector{40, 90, 10})
	shallow := quadratic(diagMatrix(1e-3, 2e-3, 5e-4, 1e-3), linalg.Vector{1e-3, 0, -1e-3, 2e-3})
	xSteep, xShallow := linalg.Vector{3, -2, 6}, linalg.Vector{1, 2, 3, 4}
	s := newTaskSolver()
	for round := 0; round < 4; round++ {
		maxIter := 3 + 4*round
		for name, tc := range map[string]cgCase{"steep": {steep, xSteep}, "shallow": {shallow, xShallow}} {
			want := record(tc.p)
			wantBits := cgBits(cgFresh(want.problem, tc.x0, maxIter))
			got := record(tc.p)
			if bits := cgBits(cgOn(s, got.problem, tc.x0, maxIter)); !reflect.DeepEqual(bits, wantBits) {
				t.Errorf("round %d, %s: shared solver and fresh one disagree", round, name)
			}
			if !reflect.DeepEqual(got.trials, want.trials) {
				t.Errorf("round %d, %s: the shared solver tried other points than a fresh one (first trial %v vs %v)", round, name, got.trials[1], want.trials[1])
			}
		}
	}
}

// TestSolverReuseMatchesFresh: one solver carried across problems of
// different sizes — growing, shrinking, repeating, as the pooled
// projection scratch is across models of different K — returns, bit for
// bit, what a fresh solver returns for each.
func TestSolverReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := newTaskSolver()
	for trial, n := range []int{6, 20, 2, 20, 1, 9, 9} {
		c, x0 := make(linalg.Vector, n), make(linalg.Vector, n)
		for i := range c {
			c[i], x0[i] = 0.5+rng.Float64(), 3*rng.NormFloat64()
		}
		fresh := record(coshBowl(c))
		want := cgBits(cgFresh(fresh.problem, x0, 5+10*trial))
		if got := cgBits(cgOn(s, coshBowl(c), x0, 5+10*trial)); !reflect.DeepEqual(got, want) {
			t.Errorf("trial %d (n=%d): reused solver %v, fresh %v", trial, n, got, want)
		}
		if len(fresh.accepted) < 2 {
			t.Errorf("trial %d: no step was taken; the test exercises nothing", trial)
		}
	}
}
