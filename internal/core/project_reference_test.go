package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"crowdselect/internal/corpus"
	"crowdselect/internal/linalg"
	"crowdselect/internal/text"
)

// projectCG is Algorithm 3's first phase as it ran through KernelVersion 4
// and the reference the Newton projection is checked against: projectTo
// with each round's (λ_c, ν_c) update made by the conjugate-gradient
// solve training still runs (15 iterations, the same gradient stop).
func (m *Model) projectCG(sc *projectScratch, bag text.Bag) TaskCategory {
	k := m.K
	cat := TaskCategory{Lambda: make(linalg.Vector, k), Nu2: make(linalg.Vector, k)}
	lam, nu2 := cat.Lambda, cat.Nu2
	copy(lam, m.MuC)
	for i := range nu2 {
		nu2[i] = m.SigmaC.At(i, i)
	}
	ids, counts := inVocabulary(m, bag)
	if len(ids) == 0 {
		return cat
	}
	phi := sc.phiFor(len(ids), k)
	s := sc.solver
	for round := 0; round < m.projectInner(); round++ {
		s.updatePhi(phi, ids, lam, m.beta)
		s.obj.reset(k, m.MuC, m.sigmaCInv)
		s.obj.setEps(taylorPoint(lam, nu2))
		s.obj.addTokens(counts, phi)
		if !s.solve(lam, nu2, 15) {
			break
		}
	}
	return cat
}

// inVocabulary is projectTo's filter: the bag's in-vocabulary ids and
// their counts.
func inVocabulary(m *Model, bag text.Bag) (ids []int, counts []float64) {
	for p, v := range bag.IDs {
		if v >= 0 && v < m.V {
			ids = append(ids, v)
			counts = append(counts, bag.Counts[p])
		}
	}
	return ids, counts
}

// diagonal returns a copy of the square matrix m's diagonal.
func diagonal(m *linalg.Matrix) linalg.Vector {
	d := make(linalg.Vector, m.Rows)
	for i := range d {
		d[i] = m.At(i, i)
	}
	return d
}

// projectionCase is one model and the bags the Newton/CG comparisons
// project on it.
type projectionCase struct {
	m    *Model
	bags []text.Bag
}

// projectionCases trains small models at random K, corpus seed and
// initialization, and draws for each bench-style texts (bench/platform.go:
// 30 % of a task's tokens resampled from the vocabulary) and bags of
// random ids with random counts, a few out of vocabulary.
func projectionCases(t *testing.T) []projectionCase {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	var cases []projectionCase
	for _, k := range []int{3, 6, 10, 16} {
		p := corpus.Quora().Scaled(0.04)
		p.Seed = rng.Int63()
		d := corpus.MustGenerate(p)
		cfg := NewConfig(k)
		cfg.MaxIter = 6 + rng.Intn(6)
		cfg.Seed = rng.Int63()
		m, _, err := Train(tasksFromDataset(d), len(d.Workers), d.Vocab.Size(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		bags := benchStyleBags(d, 120)
		for i := 0; i < 60; i++ {
			n := 1 + rng.Intn(30)
			bag := text.Bag{IDs: make([]int, n), Counts: make([]float64, n)}
			for p := range bag.IDs {
				bag.IDs[p] = rng.Intn(m.V + m.V/20)
				bag.Counts[p] = float64(1 + rng.Intn(4))
			}
			bags = append(bags, bag)
		}
		cases = append(cases, projectionCase{m, bags})
	}
	return cases
}

// TestNewtonProjectionAtLeastCG is the property the Newton projection
// rests on: it maximizes the same bound as the conjugate gradient it
// replaced, never worse. Round by round along the Newton projection, from
// the identical φ/ε inputs and start, both solvers maximize the round's
// objective; F at Newton's point must be at least F at CG's, and Newton
// must have stopped at ‖∇F‖∞ ≤ 1e-5, at its step cap or with its line
// search exhausted — never for want of a factor. Where both met the
// gradient stop, CG may have ended deeper inside it; there F at Newton's
// point plus its Newton decrement ∇Fᵀ H⁻¹ ∇F — twice the gap to the
// optimum its quadratic model predicts (Boyd & Vandenberghe, Convex
// Optimization, §9.5.1) — must reach F at CG's. The rounds are run here step for step as projectTo
// runs them, which the bitwise comparison with Model.Project at the end
// of each bag holds.
func TestNewtonProjectionAtLeastCG(t *testing.T) {
	var rounds, capped, stalled, steps, within int
	var worstGap float64
	for _, pc := range projectionCases(t) {
		m, k := pc.m, pc.m.K
		sc := &projectScratch{solver: newTaskSolver()}
		s := sc.solver
		stepCounter := 0
		s.factor = func(a linalg.Vector, n int) bool { stepCounter++; return cholesky(a, n) }
		g := make(linalg.Vector, 2*k)
		for b, bag := range pc.bags {
			lam, nu2 := slices.Clone(m.MuC), diagonal(m.SigmaC)
			ids, counts := inVocabulary(m, bag)
			for round := 0; len(ids) > 0 && round < m.projectInner(); round++ {
				phi := sc.phiFor(len(ids), k)
				s.updatePhi(phi, ids, lam, m.beta)
				s.obj.reset(k, m.MuC, m.sigmaCInv)
				s.obj.setEps(taylorPoint(lam, nu2))
				s.obj.addTokens(counts, phi)
				x := s.start(lam, nu2)
				xCG := x.Clone()
				cgStop := s.cg(xCG, 15)
				fCG := s.obj.value(xCG)
				stop := s.newton(x, projectNewtonIter)
				fNewton := s.obj.value(x)
				rounds++
				s.obj.grad(x, g)
				if !(fNewton >= fCG) {
					dec := newtonDecrement(t, &s.obj, x)
					if !(stop == stopConverged && cgStop == stopConverged && fNewton+dec >= fCG) {
						t.Errorf("K=%d bag %d round %d: F at Newton's point %.17g (%d, decrement %g) < F at CG's %.17g (%d)", k, b, round, fNewton, stop, dec, fCG, cgStop)
					}
					within++
					worstGap = math.Max(worstGap, fCG-fNewton)
				}
				switch stop {
				case stopConverged:
					if gn := g.NormInf(); gn > taskGradTol {
						t.Errorf("K=%d bag %d round %d: converged with ‖∇F‖∞ = %g", k, b, round, gn)
					}
				case stopStepCap:
					capped++
				case stopLineSearch:
					stalled++
				default:
					t.Errorf("K=%d bag %d round %d: Newton stopped with status %d at ‖∇F‖∞ = %g", k, b, round, stop, g.NormInf())
				}
				if !s.finish(x, lam, nu2) {
					break
				}
			}
			if got := m.Project(bag); !reflect.DeepEqual(got, TaskCategory{Lambda: lam, Nu2: nu2}) {
				t.Fatalf("K=%d bag %d: the rounds above project to %v, Model.Project to %v", k, b, TaskCategory{Lambda: lam, Nu2: nu2}, got)
			}
		}
		steps += stepCounter
	}
	t.Logf("%d rounds, %d Newton steps: %d at the step cap, %d with the line search exhausted; CG higher by at most %.2g inside the decrement in %d", rounds, steps, capped, stalled, worstGap, within)
}

// newtonHessian returns the negative Hessian H of the loaded objective
// (no feedback terms) at x, dense and 2K×2K, from the second derivatives
// of the task objective's type comment.
func newtonHessian(o *taskObjective, x linalg.Vector) *linalg.Matrix {
	o.at(x)
	k := o.k
	r := o.total / o.eps
	h := linalg.NewMatrix(2*k, 2*k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			h.Set(i, j, o.sigmaCInv.At(i, j))
		}
		nu2, e := o.nu2[i], o.e[i]
		h.AddAt(i, i, r*e)
		h.Set(i, k+i, r*e*nu2/2)
		h.Set(k+i, i, r*e*nu2/2)
		h.Set(k+i, k+i, o.sigmaCInv.At(i, i)*nu2/2+r*e*nu2/2*(1+nu2/2))
	}
	return h
}

// newtonDecrement returns ∇Fᵀ H⁻¹ ∇F at x.
func newtonDecrement(t *testing.T, o *taskObjective, x linalg.Vector) float64 {
	t.Helper()
	g := make(linalg.Vector, len(x))
	o.grad(x, g)
	return g.Dot(mustSPDSolve(t, newtonHessian(o, x), g))
}

// TestNewtonStepSolvesHessian checks newton's Schur-complement step
// against a dense solve: at the start of random projection rounds, the
// dense H of newtonHessian matches central differences of the gradient,
// and the step one Newton iteration leaves in the solver is H⁻¹∇F.
func TestNewtonStepSolvesHessian(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, pc := range projectionCases(t) {
		m, k := pc.m, pc.m.K
		sc := &projectScratch{solver: newTaskSolver()}
		s := sc.solver
		for trial := 0; trial < 20; trial++ {
			ids, counts := inVocabulary(m, pc.bags[rng.Intn(len(pc.bags))])
			if len(ids) == 0 {
				continue
			}
			lam, nu2 := slices.Clone(m.MuC), diagonal(m.SigmaC)
			for kk := range lam {
				lam[kk] += 0.5 * rng.NormFloat64()
				nu2[kk] *= math.Exp(rng.NormFloat64())
			}
			phi := sc.phiFor(len(ids), k)
			s.updatePhi(phi, ids, lam, m.beta)
			s.obj.reset(k, m.MuC, m.sigmaCInv)
			s.obj.setEps(taylorPoint(lam, nu2))
			s.obj.addTokens(counts, phi)
			x := s.start(lam, nu2).Clone()
			h := newtonHessian(&s.obj, x)
			gp, gm := make(linalg.Vector, 2*k), make(linalg.Vector, 2*k)
			for j := range x {
				const step = 1e-6
				xp, xm := x.Clone(), x.Clone()
				xp[j] += step
				xm[j] -= step
				s.obj.grad(xp, gp)
				s.obj.grad(xm, gm)
				for i := range x {
					num := -(gp[i] - gm[i]) / (2 * step)
					if math.Abs(num-h.At(i, j)) > 1e-5*(1+math.Abs(num)) {
						t.Fatalf("K=%d: H[%d][%d] = %g, central difference %g", k, i, j, h.At(i, j), num)
					}
				}
			}
			g := make(linalg.Vector, 2*k)
			s.obj.grad(x, g)
			want := mustSPDSolve(t, h, g)
			if g.NormInf() <= taskGradTol {
				continue
			}
			s.newton(x.Clone(), 1)
			for i, v := range want {
				if math.Abs(s.p[i]-v) > 1e-9*(1+want.NormInf()) {
					t.Fatalf("K=%d: Newton step %v, dense H⁻¹∇F %v", k, s.p, want)
				}
			}
		}
	}
}

// TestNewtonProjectionNearCG: Model.Project lands within 5e-3 of the
// conjugate-gradient projection it replaced (projectCG) in every λ_c
// component. Both stop at ‖∇F‖∞ ≤ 1e-5, so they differ by how far inside
// the stop each ends and by where six rounds of each lead the φ/ε fixed
// point; on the bench platform model the largest difference over 2 000
// texts was 1.1e-3.
func TestNewtonProjectionNearCG(t *testing.T) {
	var worst float64
	for _, pc := range projectionCases(t) {
		sc := &projectScratch{solver: newTaskSolver()}
		for b, bag := range pc.bags {
			newton, cg := pc.m.Project(bag), pc.m.projectCG(sc, bag)
			var diff float64
			for kk, v := range newton.Lambda {
				diff = math.Max(diff, math.Abs(v-cg.Lambda[kk]))
			}
			if !(diff <= 5e-3) {
				t.Errorf("K=%d bag %d: ‖λ_Newton − λ_CG‖∞ = %g\n Newton %v\n CG     %v", pc.m.K, b, diff, newton.Lambda, cg.Lambda)
			}
			worst = math.Max(worst, diff)
		}
	}
	t.Logf("max ‖λ_Newton − λ_CG‖∞ = %.2g", worst)
}
