package optimize

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"crowdselect/internal/linalg"
)

// recorded wraps a problem so a test sees what the optimizer asked of it:
// every trial point with its value, and every point a gradient was taken
// at — the start and then each accepted step, in order.
type recorded struct {
	Problem
	trials   []linalg.Vector
	values   []float64
	accepted []linalg.Vector
}

func record(p Problem) *recorded {
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

// start is a problem with the point a test minimizes it from.
type start struct {
	p  Problem
	x0 linalg.Vector
}

var rosenbrock = Problem{
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

// randomQuadratic is one of the SPD bowls TestCGRandomQuadratics solves.
func randomQuadratic(rng *rand.Rand) (Problem, int) {
	n := 2 + rng.Intn(8)
	raw := linalg.NewMatrix(n, n)
	for i := range raw.Data {
		raw.Data[i] = rng.NormFloat64()
	}
	a := raw.T().Mul(raw).AddScalarDiagInPlace(float64(n)).Symmetrize()
	b := make(linalg.Vector, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return quadratic(a, b), n
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
	problems := map[string]start{
		"rosenbrock": {rosenbrock, linalg.Vector{-1.2, 1}},
		"cosh":       {coshBowl(linalg.Vector{1, 2, 3, 4}), linalg.Vector{5, -4, 3, -2}},
		"quadratic":  {q, x0},
	}

	const c = 1e-4
	for name, tc := range problems {
		for alg, min := range map[string]func(Problem, linalg.Vector, Settings) Result{
			"cg": ConjugateGradient,
			"gd": GradientDescent,
		} {
			r := record(tc.p)
			res := min(r.Problem, tc.x0, Settings{MaxIter: 300, ArmijoC: c})
			if len(r.accepted) != res.Iterations+1 {
				t.Fatalf("%s/%s: %d gradients for %d iterations", name, alg, len(r.accepted), res.Iterations)
			}
			g := make(linalg.Vector, len(tc.x0))
			for k := 1; k < len(r.accepted); k++ {
				x, next := r.accepted[k-1], r.accepted[k]
				f, fNext := tc.p.Eval(x), tc.p.Eval(next)
				tc.p.Grad(x, g)
				bound := f + c*g.Dot(next.Sub(x))
				if !finite(fNext) || !next.IsFinite() {
					t.Fatalf("%s/%s: step %d accepted a non-finite point", name, alg, k)
				}
				// t·d is rounded when it is added to x, so the slope term is
				// recovered to a few ulps of f, not exactly.
				if fNext > bound+1e-12*(1+math.Abs(f)) {
					t.Errorf("%s/%s: step %d accepted f=%v above the Armijo bound %v", name, alg, k, fNext, bound)
				}
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
		r := record(Problem{Eval: func(x linalg.Vector) float64 {
			if x[0] > 1.5 {
				return off
			}
			return -x[0]
		}})
		var w Workspace
		w.resize(1)
		w.x[0], w.d[0] = 0, 1
		ft, ok := w.armijo(r.Problem, 0, -1, 8, Settings{}.withDefaults())
		if !ok || ft != -1 || w.xt[0] != 1 {
			t.Errorf("%s: accepted f=%v at x=%v (ok=%v), want −1 at 1", name, ft, w.xt[0], ok)
		}
		if want := []linalg.Vector{{8}, {4}, {2}, {1}}; !reflect.DeepEqual(r.trials, want) {
			t.Errorf("%s: trials at %v, want %v", name, r.trials, want)
		}
	}
	if got := shrink(2, 1, -1, math.NaN(), 0.25); got != 0.5 {
		t.Errorf("a non-finite trial at 2 with Backtrack 0.25 is followed by %v, want 0.5", got)
	}
}

// TestShrinkInterpolatesInsideSafeguard: the step after a rejected finite
// trial at t is the quadratic's minimizer when that lies in
// [0.1 t, 0.5 t], and backtrack·t otherwise — never anything else.
func TestShrinkInterpolatesInsideSafeguard(t *testing.T) {
	// φ(t) = (t−0.3)² has φ(0) = 0.09, φ′(0) = −0.6 and φ(1) = 0.49: the
	// model is exact and its minimizer 0.3 is inside [0.1, 0.5].
	if got := shrink(1, 0.09, -0.6, 0.49, 0.5); math.Abs(got-0.3) > 1e-15 {
		t.Errorf("interpolated step = %v, want 0.3", got)
	}
	// A trial barely above the Armijo line puts the minimizer near t
	// (> 0.5 t); one far above it puts it near 0 (< 0.1 t).
	if got := shrink(1, 0, -1, -1e-6, 0.5); got != 0.5 {
		t.Errorf("minimizer beyond 0.5 t: next step %v, want the fallback 0.5", got)
	}
	if got := shrink(1, 0, -1, 1e6, 0.5); got != 0.5 {
		t.Errorf("minimizer below 0.1 t: next step %v, want the fallback 0.5", got)
	}
	rng := rand.New(rand.NewSource(7))
	interpolated := 0
	for i := 0; i < 10000; i++ {
		step := math.Exp(6 * rng.NormFloat64())
		f, slope := rng.NormFloat64(), -math.Exp(3*rng.NormFloat64())
		ft := f + slope*step*(1e-4-4*rng.Float64()*rng.Float64()) // on or above the Armijo line
		backtrack := 0.05 + 0.9*rng.Float64()
		next := shrink(step, f, slope, ft, backtrack)
		switch {
		case next == backtrack*step:
		case next >= 0.1*step && next <= 0.5*step:
			interpolated++
		default:
			t.Fatalf("shrink(%v, %v, %v, %v, %v) = %v: neither the fallback nor inside [0.1 t, 0.5 t]", step, f, slope, ft, backtrack, next)
		}
	}
	if interpolated < 1000 {
		t.Errorf("only %d of 10000 random rejections interpolated; the property test exercises little", interpolated)
	}
}

// TestFirstTrialFallsBack: a guess that is zero, negative, NaN, infinite
// or above InitialStep is not used.
func TestFirstTrialFallsBack(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name                             string
		initial, decrease, slope, wanted float64
	}{
		{"the quadratic-model step", 1, 0.1, -1, 1.01 * 2 * 0.1},
		{"a guess above InitialStep is capped", 1, 3, -1, 1},
		{"a larger InitialStep lifts the cap", 4, 1, -1, 2.02},
		{"no decrease", 1, 0, -1, 1},
		{"an increase", 1, -0.5, -1, 1},
		{"NaN decrease", 1, nan, -1, 1},
		{"infinite decrease", 1, inf, -1, 1},
		{"zero slope, zero decrease (0/0)", 1, 0, 0, 1},
		{"zero slope (x/0)", 1, 0.5, 0, 1},
		{"NaN slope", 1, 0.5, nan, 1},
		{"ascent slope", 1, 0.5, 2, 1},
	} {
		if got := firstTrial(tc.initial, tc.decrease, tc.slope); got != tc.wanted {
			t.Errorf("%s: firstTrial(%v, %v, %v) = %v, want %v", tc.name, tc.initial, tc.decrease, tc.slope, got, tc.wanted)
		}
	}
}

// halvingCG is the search this package ran before: every line search
// starts at InitialStep and every rejection multiplies the step by
// Backtrack. It is the reference TestNeverMoreEvaluationsThanHalving
// counts against, and nothing else.
func halvingCG(p Problem, x0 linalg.Vector, s Settings) Result {
	s = s.withDefaults()
	n := len(x0)
	x, xt := x0.Clone(), make(linalg.Vector, n)
	g, gPrev, d := make(linalg.Vector, n), make(linalg.Vector, n), make(linalg.Vector, n)
	f := p.Eval(x)
	p.Grad(x, g)
	res := Result{X: x, F: f, GradNorm: g.NormInf(), Status: IterationLimit}
	if res.GradNorm <= s.GradTol {
		res.Status = GradientConverged
		return res
	}
	beta := 0.0
	for iter := 1; iter <= s.MaxIter; iter++ {
		res.Iterations = iter
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
		step, fNew, ok := s.InitialStep, f, false
		for k := 0; k < s.MaxBacktracks && !ok; k++ {
			for i := range x {
				xt[i] = x[i] + step*d[i]
			}
			fNew = p.Eval(xt)
			ok = finite(fNew) && fNew <= f+s.ArmijoC*step*slope
			step *= s.Backtrack
		}
		if !ok {
			res.Status = LineSearchFailed
			return res
		}
		x, xt = xt, x
		copy(gPrev, g)
		p.Grad(x, g)
		relImp := (f - fNew) / (math.Abs(f) + 1e-12)
		f = fNew
		res.X, res.F, res.GradNorm = x, f, g.NormInf()
		if res.GradNorm <= s.GradTol {
			res.Status = GradientConverged
			return res
		}
		if relImp >= 0 && relImp < s.FuncTol {
			res.Status = FunctionConverged
			return res
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
	return res
}

// TestNeverMoreEvaluationsThanHalving: on the convex quadratics of
// cg_test.go the search reaches the same tolerance with no more
// objective evaluations than halving from InitialStep did.
func TestNeverMoreEvaluationsThanHalving(t *testing.T) {
	type bowl struct {
		name string
		p    Problem
		x0   linalg.Vector
		s    Settings
	}
	bowls := []bowl{
		{"2x2", quadratic(linalg.NewMatrixFrom(2, 2, []float64{3, 1, 1, 2}), linalg.Vector{1, 2}), linalg.Vector{10, -10}, Settings{}},
		{"diag(2,4)", quadratic(linalg.NewMatrixFrom(2, 2, []float64{2, 0, 0, 4}), linalg.Vector{2, 4}), linalg.Vector{9, 9}, Settings{MaxIter: 2000, GradTol: 1e-8}},
		{"diag(1,100)", quadratic(linalg.NewDiag(linalg.Vector{1, 100}), linalg.Vector{1, 100}), linalg.Vector{50, -50}, Settings{MaxIter: 5000, GradTol: 1e-8}},
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		p, n := randomQuadratic(rng)
		bowls = append(bowls, bowl{"random", p, make(linalg.Vector, n), Settings{MaxIter: 500, GradTol: 1e-8, FuncTol: 1e-15}})
	}
	for i, b := range bowls {
		now, before := record(b.p), record(b.p)
		res := ConjugateGradient(now.Problem, b.x0, b.s)
		ref := halvingCG(before.Problem, b.x0, b.s)
		if res.Status == IterationLimit || res.Status == LineSearchFailed {
			t.Errorf("bowl %d (%s): stopped on %v", i, b.name, res.Status)
		}
		if len(now.trials) > len(before.trials) {
			t.Errorf("bowl %d (%s): %d evaluations (%d iterations), halving from 1 took %d (%d iterations)",
				i, b.name, len(now.trials), res.Iterations, len(before.trials), ref.Iterations)
		}
	}
}

// TestInterleavedProblemsMatchFresh: what a line search learns from its
// predecessor belongs to one minimization. Two unlike problems solved
// alternately on one workspace — the steep one leaves large decreases
// behind, the shallow one tiny ones — ask for exactly the trial points,
// and return exactly the bits, that each gets from a workspace of its
// own (batch ≡ sequential rests on this, DESIGN §8).
func TestInterleavedProblemsMatchFresh(t *testing.T) {
	steep := coshBowl(linalg.Vector{40, 90, 10})
	shallow := quadratic(linalg.NewDiag(linalg.Vector{1e-3, 2e-3, 5e-4, 1e-3}), linalg.Vector{1e-3, 0, -1e-3, 2e-3})
	xSteep, xShallow := linalg.Vector{3, -2, 6}, linalg.Vector{1, 2, 3, 4}
	fresh := func(p Problem, x0 linalg.Vector, s Settings) ([]uint64, *recorded) {
		r := record(p)
		return resultBits(ConjugateGradient(r.Problem, x0, s)), r
	}
	var w Workspace
	for round := 0; round < 4; round++ {
		s := Settings{MaxIter: 3 + 4*round}
		for name, tc := range map[string]start{"steep": {steep, xSteep}, "shallow": {shallow, xShallow}} {
			wantBits, want := fresh(tc.p, tc.x0, s)
			got := record(tc.p)
			if bits := resultBits(w.ConjugateGradient(got.Problem, tc.x0, s)); !reflect.DeepEqual(bits, wantBits) {
				t.Errorf("round %d, %s: shared workspace and fresh one disagree", round, name)
			}
			if !reflect.DeepEqual(got.trials, want.trials) {
				t.Errorf("round %d, %s: the shared workspace tried other points than a fresh one (first trial %v vs %v)", round, name, got.trials[1], want.trials[1])
			}
		}
	}
}
