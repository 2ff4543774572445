// Package optimize implements the smooth unconstrained minimizers used
// by the variational algorithm of the paper: nonlinear conjugate
// gradient (Polak–Ribière+ with automatic restarts and an Armijo line
// search whose first trial comes from the previous search's decrease and
// whose backtracking interpolates) and a numerical gradient checker for
// tests.
//
// All routines minimize; callers maximizing a lower bound L′(q) pass
// −L′ and −∇L′.
package optimize

import (
	"math"

	"crowdselect/internal/linalg"
)

// Problem bundles an objective and its gradient.
type Problem struct {
	// Eval returns the objective value at x.
	Eval func(x linalg.Vector) float64
	// Grad writes the gradient at x into g (len(g) == len(x)).
	Grad func(x linalg.Vector, g linalg.Vector)
}

// Settings controls the iteration. The zero value is usable: it is
// normalized by (*Settings).withDefaults.
type Settings struct {
	// MaxIter bounds the number of CG iterations (default 200).
	MaxIter int
	// GradTol stops when ‖∇f‖∞ ≤ GradTol (default 1e-6).
	GradTol float64
	// FuncTol stops when the relative objective improvement over one
	// iteration falls below FuncTol (default 1e-10).
	FuncTol float64
	// InitialStep is the first trial step of a minimization's first
	// line search and the cap on the first trial of every later one
	// (default 1).
	InitialStep float64
	// ArmijoC is the sufficient-decrease constant (default 1e-4).
	ArmijoC float64
	// Backtrack is the step-shrink factor in (0, 1) a rejected trial
	// falls back to when the quadratic through it has no minimizer in
	// [0.1 t, 0.5 t], or the trial's value was not finite (default 0.5).
	Backtrack float64
	// MaxBacktracks bounds each line search (default 50).
	MaxBacktracks int
}

func (s Settings) withDefaults() Settings {
	if s.MaxIter <= 0 {
		s.MaxIter = 200
	}
	if s.GradTol <= 0 {
		s.GradTol = 1e-6
	}
	if s.FuncTol <= 0 {
		s.FuncTol = 1e-10
	}
	if s.InitialStep <= 0 {
		s.InitialStep = 1
	}
	if s.ArmijoC <= 0 {
		s.ArmijoC = 1e-4
	}
	if s.Backtrack <= 0 || s.Backtrack >= 1 {
		s.Backtrack = 0.5
	}
	if s.MaxBacktracks <= 0 {
		s.MaxBacktracks = 50
	}
	return s
}

// Status describes why a minimizer stopped.
type Status int

const (
	// GradientConverged means ‖∇f‖∞ fell below GradTol.
	GradientConverged Status = iota
	// FunctionConverged means the relative objective improvement fell
	// below FuncTol.
	FunctionConverged
	// IterationLimit means MaxIter was reached first.
	IterationLimit
	// LineSearchFailed means no step satisfying the Armijo condition
	// was found; the best iterate so far is returned.
	LineSearchFailed
)

// String renders the status for logs.
func (s Status) String() string {
	switch s {
	case GradientConverged:
		return "gradient converged"
	case FunctionConverged:
		return "function converged"
	case IterationLimit:
		return "iteration limit"
	case LineSearchFailed:
		return "line search failed"
	default:
		return "unknown"
	}
}

// Result reports the outcome of a minimization.
type Result struct {
	// X is the best iterate. From a Workspace method it aliases the
	// workspace's storage and is valid until that workspace's next call:
	// copy out what must outlive it.
	X          linalg.Vector
	F          float64
	GradNorm   float64
	Iterations int
	Status     Status
}

// Workspace holds the iteration vectors of a minimization — the
// iterate, the gradient and its predecessor, the search direction and
// the line search's trial point — so a caller solving many small
// problems allocates them once. The zero value is ready to use; the
// vectors grow to the largest problem seen and successive problems may
// differ in size. A Workspace serves one minimization at a time.
type Workspace struct {
	x, g, gPrev, d, xt linalg.Vector
}

// resize shapes every vector to length n. Their contents are stale:
// each is fully written before it is read.
func (w *Workspace) resize(n int) {
	for _, v := range []*linalg.Vector{&w.x, &w.g, &w.gPrev, &w.d, &w.xt} {
		if cap(*v) < n {
			*v = make(linalg.Vector, n)
		}
		*v = (*v)[:n]
	}
}

// ConjugateGradient minimizes p starting from x0 using nonlinear CG
// with the Polak–Ribière+ update (β = max(0, βPR), which subsumes
// steepest-descent restarts) and an Armijo backtracking line search
// (see armijo for its first trial and its shrink rule), in w's vectors:
// it allocates nothing once w has seen a problem of this size. x0 is
// not modified; see Result.X for the lifetime of the returned iterate.
// What one line search hands the next — the decrease it accepted — is a
// local of this call, so a Workspace carries nothing from one
// minimization into another.
func (w *Workspace) ConjugateGradient(p Problem, x0 linalg.Vector, s Settings) Result {
	s = s.withDefaults()
	w.resize(len(x0))
	copy(w.x, x0)
	g, gPrev, d := w.g, w.gPrev, w.d

	f := p.Eval(w.x)
	p.Grad(w.x, g)
	for i := range d {
		d[i] = -g[i]
	}

	res := Result{X: w.x, F: f, GradNorm: g.NormInf(), Status: IterationLimit}
	if res.GradNorm <= s.GradTol {
		res.Status = GradientConverged
		return res
	}

	// What the last accepted step took off f: none yet, so the first
	// search starts at InitialStep.
	decrease := 0.0
	for iter := 1; iter <= s.MaxIter; iter++ {
		res.Iterations = iter
		// Ensure d is a descent direction; restart on failure.
		slope := g.Dot(d)
		if slope >= 0 {
			for i := range d {
				d[i] = -g[i]
			}
			slope = g.Dot(d)
		}

		fNew, ok := w.armijo(p, f, slope, firstTrial(s.InitialStep, decrease, slope), s)
		if !ok {
			res.Status = LineSearchFailed
			return res
		}
		// The accepted trial point becomes the iterate; the old iterate's
		// storage is the next line search's trial buffer.
		w.x, w.xt = w.xt, w.x

		copy(gPrev, g)
		p.Grad(w.x, g)

		decrease = f - fNew
		relImp := decrease / (math.Abs(f) + 1e-12)
		f = fNew
		res.X, res.F, res.GradNorm = w.x, f, g.NormInf()

		if res.GradNorm <= s.GradTol {
			res.Status = GradientConverged
			return res
		}
		if relImp >= 0 && relImp < s.FuncTol {
			res.Status = FunctionConverged
			return res
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
	return res
}

// firstTrial is the step a line search tries first when the previous one
// lowered the objective by decrease and the new direction's slope is
// slope < 0: the step at which a quadratic model of the new direction
// would repeat that decrease, 2·decrease/(−slope), times 1.01 so that a
// run of unit steps stays at the cap (Nocedal & Wright, Numerical
// Optimization, eq. 3.60), capped at initial. A guess that is not a
// positive finite number — no decrease, an overflow — is replaced by
// initial.
func firstTrial(initial, decrease, slope float64) float64 {
	t := 1.01 * 2 * decrease / -slope
	if !(t > 0) || math.IsInf(t, 0) {
		return initial
	}
	return math.Min(initial, t)
}

// shrink is the step tried after the trial at t was rejected with value
// ft: the minimizer of the quadratic through f, slope and ft when it lies
// in [0.1 t, 0.5 t] — the safeguard keeps a flat or a wild model from
// stalling or overshooting the search — and backtrack·t otherwise, which
// is also what follows a trial whose value was not finite (nothing can be
// fitted through it).
func shrink(t, f, slope, ft, backtrack float64) float64 {
	if finite(ft) {
		if tq := -slope * t * t / (2 * (ft - f - slope*t)); tq >= 0.1*t && tq <= 0.5*t {
			return tq
		}
	}
	return backtrack * t
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// armijo backtracks from the step t along w.d until
// f(x+t·d) ≤ f + c·t·slope, shrinking t by shrink's rule, leaving the
// accepted point in w.xt and returning its objective.
func (w *Workspace) armijo(p Problem, f, slope, t float64, s Settings) (float64, bool) {
	x, d, xt := w.x, w.d, w.xt
	for k := 0; k < s.MaxBacktracks; k++ {
		for i := range x {
			xt[i] = x[i] + t*d[i]
		}
		ft := p.Eval(xt)
		// A trial value of NaN or ±Inf means the step left the
		// objective's domain; −Inf in particular would satisfy the
		// sufficient-decrease inequality and poison the iterate, so any
		// non-finite value rejects the step.
		if finite(ft) && ft <= f+s.ArmijoC*t*slope {
			return ft, true
		}
		t = shrink(t, f, slope, ft, s.Backtrack)
	}
	return f, false
}

// NumericalGradient writes the central-difference gradient of eval at
// x into g, using step h per coordinate. It is intended for testing
// hand-derived gradients.
func NumericalGradient(eval func(linalg.Vector) float64, x linalg.Vector, h float64, g linalg.Vector) {
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
