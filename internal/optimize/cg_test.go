package optimize

import (
	"math"
	"math/rand"
	"testing"

	"crowdselect/internal/linalg"
)

// quadratic builds f(x) = ½ xᵀAx − bᵀx with SPD A; the minimum solves
// Ax = b.
func quadratic(a *linalg.Matrix, b linalg.Vector) Problem {
	return Problem{
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

func TestCGQuadratic(t *testing.T) {
	a := linalg.NewMatrixFrom(2, 2, []float64{3, 1, 1, 2})
	b := linalg.Vector{1, 2}
	want, err := linalg.SPDSolve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	res := ConjugateGradient(quadratic(a, b), linalg.Vector{10, -10}, Settings{})
	if !res.X.Equal(want, 1e-4) {
		t.Errorf("CG = %v (status %v), want %v", res.X, res.Status, want)
	}
	if res.Status != GradientConverged && res.Status != FunctionConverged {
		t.Errorf("status = %v", res.Status)
	}
}

func TestCGRandomQuadratics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
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
		want, err := linalg.SPDSolve(a, b)
		if err != nil {
			t.Fatal(err)
		}
		x0 := make(linalg.Vector, n)
		res := ConjugateGradient(quadratic(a, b), x0, Settings{MaxIter: 500, GradTol: 1e-8, FuncTol: 1e-15})
		if !res.X.Equal(want, 1e-4) {
			t.Fatalf("trial %d: CG off by %v", trial, res.X.Sub(want).NormInf())
		}
	}
}

func TestCGRosenbrock(t *testing.T) {
	res := ConjugateGradient(rosenbrock, linalg.Vector{-1.2, 1}, Settings{MaxIter: 20000, GradTol: 1e-7})
	if !res.X.Equal(linalg.Vector{1, 1}, 1e-3) {
		t.Errorf("Rosenbrock: got %v after %d iters (status %v)", res.X, res.Iterations, res.Status)
	}
}

func TestCGImmediateConvergence(t *testing.T) {
	a := linalg.Identity(2)
	b := linalg.Vector{1, 1}
	res := ConjugateGradient(quadratic(a, b), linalg.Vector{1, 1}, Settings{})
	if res.Status != GradientConverged || res.Iterations != 0 {
		t.Errorf("at-optimum start: status %v iterations %d", res.Status, res.Iterations)
	}
}

func TestCGDoesNotModifyX0(t *testing.T) {
	x0 := linalg.Vector{5, 5}
	ConjugateGradient(quadratic(linalg.Identity(2), linalg.Vector{0, 0}), x0, Settings{})
	if !x0.Equal(linalg.Vector{5, 5}, 0) {
		t.Errorf("x0 modified: %v", x0)
	}
}

func TestGradientDescentQuadratic(t *testing.T) {
	a := linalg.NewMatrixFrom(2, 2, []float64{2, 0, 0, 4})
	b := linalg.Vector{2, 4}
	res := GradientDescent(quadratic(a, b), linalg.Vector{9, 9}, Settings{MaxIter: 2000, GradTol: 1e-8})
	if !res.X.Equal(linalg.Vector{1, 1}, 1e-4) {
		t.Errorf("GD = %v, want [1 1]", res.X)
	}
}

// TestCGBeatsGDIterationsOnIllConditioned: conjugate directions are for
// bowls where steepest descent zigzags. The bowl needs more than two
// distinct curvatures for that: on a 2-D one a line search that lands
// near the 1-D minimizer lets steepest descent finish in three steps (on
// diag(1, 100) from (50, −50) it beats CG, 3 iterations to 5), so the
// eigenvalues here spread geometrically over 1…100 in eight dimensions,
// and CG must win on iterations and on objective evaluations both.
func TestCGBeatsGDIterationsOnIllConditioned(t *testing.T) {
	const n = 8
	diag, x0 := make(linalg.Vector, n), make(linalg.Vector, n)
	for i := range diag {
		diag[i] = math.Pow(100, float64(i)/(n-1))
		x0[i] = 50 - 100*float64(i%2)
	}
	base := quadratic(linalg.NewDiag(diag), diag) // minimum at (1, …, 1)
	evals := 0
	p := Problem{Eval: func(x linalg.Vector) float64 { evals++; return base.Eval(x) }, Grad: base.Grad}
	set := Settings{MaxIter: 5000, GradTol: 1e-8, FuncTol: 1e-15}
	cg := ConjugateGradient(p, x0, set)
	cgEvals := evals
	evals = 0
	gd := GradientDescent(p, x0, set)
	if 2*cg.Iterations >= gd.Iterations || 2*cgEvals >= evals {
		t.Errorf("CG (%d iterations, %d evaluations) not twice as fast as GD (%d, %d)", cg.Iterations, cgEvals, gd.Iterations, evals)
	}
	for name, res := range map[string]Result{"cg": cg, "gd": gd} {
		if !res.X.Equal(linalg.ConstVector(n, 1), 1e-3) {
			t.Errorf("%s stopped at %v (status %v), want all ones", name, res.X, res.Status)
		}
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
	NumericalGradient(p.Eval, x, 1e-6, gn)
	if !ga.Equal(gn, 1e-5) {
		t.Errorf("analytic %v vs numeric %v", ga, gn)
	}
}

func TestLineSearchFailureOnDivergentObjective(t *testing.T) {
	// Unbounded-below linear objective: every step helps, so the line
	// search always succeeds; use the iteration limit instead to be
	// sure the loop terminates.
	p := Problem{
		Eval: func(x linalg.Vector) float64 { return x[0] },
		Grad: func(x, g linalg.Vector) { g[0] = 1 },
	}
	res := ConjugateGradient(p, linalg.Vector{0}, Settings{MaxIter: 10})
	if res.Status != IterationLimit {
		t.Errorf("status = %v, want iteration limit", res.Status)
	}
	// NaN-producing objective: the line search must bail out and the
	// best iterate so far must be returned finite.
	nan := Problem{
		Eval: func(x linalg.Vector) float64 {
			if x[0] != 0 {
				return math.NaN()
			}
			return 0
		},
		Grad: func(x, g linalg.Vector) { g[0] = 1 },
	}
	res = ConjugateGradient(nan, linalg.Vector{0}, Settings{MaxIter: 10, MaxBacktracks: 5})
	if res.Status != LineSearchFailed {
		t.Errorf("status = %v, want line search failed", res.Status)
	}
	if !res.X.IsFinite() {
		t.Errorf("returned non-finite iterate %v", res.X)
	}
}

func TestArmijoRejectsNegativeInfObjective(t *testing.T) {
	// An objective that returns −Inf off its domain (here x > 1)
	// trivially satisfies the sufficient-decrease inequality, so a line
	// search that only screens NaN would accept the divergent step and
	// poison every later iterate. The backtracking must shrink past the
	// domain boundary instead and keep the iterate finite.
	p := Problem{
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
	}
	for name, min := range map[string]func(Problem, linalg.Vector, Settings) Result{
		"cg": ConjugateGradient,
		"gd": GradientDescent,
	} {
		res := min(p, linalg.Vector{-3}, Settings{MaxIter: 100, InitialStep: 4})
		if !res.X.IsFinite() || math.IsInf(res.F, 0) || math.IsNaN(res.F) {
			t.Errorf("%s: accepted a non-finite trial: X=%v F=%v", name, res.X, res.F)
		}
		if math.Abs(res.X[0]-1) > 1e-3 {
			t.Errorf("%s: X = %v, want ≈ 1 (status %v)", name, res.X, res.Status)
		}
	}
}

func TestConvergedStartReportsZeroIterations(t *testing.T) {
	// Starting at the optimum, both minimizers must report the
	// converged status without charging an iteration or running a line
	// search.
	evals := 0
	a := linalg.Identity(2)
	b := linalg.Vector{1, 1}
	base := quadratic(a, b)
	p := Problem{
		Eval: func(x linalg.Vector) float64 { evals++; return base.Eval(x) },
		Grad: base.Grad,
	}
	for name, min := range map[string]func(Problem, linalg.Vector, Settings) Result{
		"cg": ConjugateGradient,
		"gd": GradientDescent,
	} {
		evals = 0
		res := min(p, linalg.Vector{1, 1}, Settings{})
		if res.Status != GradientConverged || res.Iterations != 0 {
			t.Errorf("%s: status %v iterations %d, want gradient converged at 0", name, res.Status, res.Iterations)
		}
		if evals > 1 {
			t.Errorf("%s: %d objective evaluations at a converged start (line search ran)", name, evals)
		}
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		GradientConverged: "gradient converged",
		FunctionConverged: "function converged",
		IterationLimit:    "iteration limit",
		LineSearchFailed:  "line search failed",
		Status(99):        "unknown",
	} {
		if got := s.String(); got != want {
			t.Errorf("Status(%d).String() = %q, want %q", s, got, want)
		}
	}
}

func TestSettingsDefaults(t *testing.T) {
	s := Settings{}.withDefaults()
	if s.MaxIter != 200 || s.GradTol != 1e-6 || s.InitialStep != 1 || s.Backtrack != 0.5 {
		t.Errorf("defaults = %+v", s)
	}
	// Invalid values are normalized too.
	s = Settings{Backtrack: 2, ArmijoC: -1}.withDefaults()
	if s.Backtrack != 0.5 || s.ArmijoC != 1e-4 {
		t.Errorf("normalized = %+v", s)
	}
}
