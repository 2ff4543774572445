package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"crowdselect/internal/linalg"
	"crowdselect/internal/randx"
	"crowdselect/internal/rank"
	"crowdselect/internal/text"
)

// TaskCategory is the variational posterior over a task's latent
// category: cⱼ ≈ Normal(λ, diag(ν²)).
type TaskCategory struct {
	Lambda linalg.Vector
	Nu2    linalg.Vector
}

// Mean returns the posterior mean of cⱼ.
func (t TaskCategory) Mean() linalg.Vector { return t.Lambda }

// Sample draws cⱼ ~ Normal(λ, diag(ν²)) — Algorithm 3 line 6.
func (t TaskCategory) Sample(rng *randx.RNG) linalg.Vector {
	sigma := make(linalg.Vector, len(t.Nu2))
	for i, v := range t.Nu2 {
		sigma[i] = math.Sqrt(v)
	}
	return rng.NormalVecDiag(t.Lambda, sigma)
}

// projectScratch holds the per-call working set of a projection: the
// in-vocabulary filter, the φ matrix and the task solver (objective,
// optimizer workspace, start vector and the round's e^λ). Pooled because
// projection is the serving hot path: with the scratch warm, a projection
// writes only the two vectors it is given, which never alias the
// scratch.
type projectScratch struct {
	ids    []int
	counts []float64
	phi    linalg.Matrix
	solver *taskSolver
}

var projectScratchPool = sync.Pool{New: func() any { return &projectScratch{solver: newTaskSolver()} }}

// scratchVec returns a zeroed length-n view of buf, growing it as needed.
func scratchVec(buf *linalg.Vector, n int) linalg.Vector {
	if cap(*buf) < n {
		*buf = make(linalg.Vector, n)
	}
	v := (*buf)[:n]
	for i := range v {
		v[i] = 0
	}
	return v
}

// phiFor shapes the scratch φ matrix to rows×cols, reusing its backing
// array. Rows are fully overwritten before being read, so no zeroing.
func (sc *projectScratch) phiFor(rows, cols int) *linalg.Matrix {
	if cap(sc.phi.Data) < rows*cols {
		sc.phi.Data = make([]float64, rows*cols)
	}
	sc.phi.Rows, sc.phi.Cols = rows, cols
	sc.phi.Data = sc.phi.Data[:rows*cols]
	return &sc.phi
}

// Project estimates the latent category of a new, unscored task
// (Algorithm 3, first phase): it iterates the φ update (Eq. 12), the ε
// update (Eq. 13) and the conjugate-gradient update of (λ_c, ν_c) with
// the feedback terms removed (Eqs. 22–23), holding the trained model
// parameters fixed. A task whose terms are all unknown projects to the
// prior (λ = μ_c). It reads only MuC, SigmaC (through its cached inverse)
// and LogBeta (through the table of its exponentials) — never a worker
// posterior — which is why a skill update cannot stale a cached
// projection.
func (m *Model) Project(bag text.Bag) TaskCategory {
	sc := projectScratchPool.Get().(*projectScratch)
	defer projectScratchPool.Put(sc)
	return m.projectWith(sc, bag)
}

// projectWith is Project on the caller's scratch.
func (m *Model) projectWith(sc *projectScratch, bag text.Bag) TaskCategory {
	cat := TaskCategory{Lambda: make(linalg.Vector, m.K), Nu2: make(linalg.Vector, m.K)}
	m.projectTo(sc, bag, cat)
	return cat
}

// projectTo is Project written into cat, whose two vectors must have K
// components: it starts them at the prior (λ = μ_c, ν² = diag Σ_c) and
// leaves the projection in them.
func (m *Model) projectTo(sc *projectScratch, bag text.Bag, cat TaskCategory) {
	k := m.K
	lam, nu2 := cat.Lambda, cat.Nu2
	copy(lam, m.MuC)
	for i := range nu2 {
		nu2[i] = m.SigmaC.At(i, i)
	}
	// Keep only in-vocabulary terms.
	ids, counts := sc.ids[:0], sc.counts[:0]
	for p, v := range bag.IDs {
		if v >= 0 && v < m.V {
			ids = append(ids, v)
			counts = append(counts, bag.Counts[p])
		}
	}
	sc.ids, sc.counts = ids, counts // keep grown capacity pooled
	if len(ids) == 0 {
		return
	}
	phi := sc.phiFor(len(ids), k)
	s := sc.solver
	for round := 0; round < m.projectInner(); round++ {
		s.updatePhi(phi, ids, lam, m.beta) // Eq. 12
		// CG update of (λ, ν) without feedback (Eqs. 22–23) at the Taylor
		// point of Eq. 13; solve copies the optimum out of the optimizer's
		// workspace into lam and nu2 before the next round reuses it.
		s.obj.reset(k, m.MuC, m.sigmaCInv)
		s.obj.setEps(taylorPoint(lam, nu2))
		s.obj.addTokens(counts, phi)
		if !s.solve(lam, nu2, 15) {
			break
		}
	}
}

func (m *Model) projectInner() int {
	if m.ProjectIters > 0 {
		return m.ProjectIters
	}
	return 6
}

// Score returns worker i's predictive performance wᵢ·cⱼ on a task with
// latent category c (§4.2).
func (m *Model) Score(worker int, c linalg.Vector) float64 {
	return m.LambdaW[worker].Dot(c)
}

// SelectTopK implements Eq. 1: among candidates, the k workers
// maximizing wᵢ·cⱼ, best first. A nil candidates slice means all
// workers; that path shares one lazily built [0, M) slice instead of
// allocating M ints per call (rank.TopK never mutates candidates).
func (m *Model) SelectTopK(c linalg.Vector, candidates []int, k int) []int {
	if candidates == nil {
		candidates = m.allWorkerIDs()
	}
	return rank.TopK(candidates, func(id int) float64 { return m.Score(id, c) }, k)
}

// SelectTopKScored is SelectTopK keeping the Eq. 1 scores: the k best
// candidates as rank.Items, best first. A shard serving a
// scatter-gather coordinator must return scores — per-shard ranks
// cannot be merged into a global top-k, per-shard scores can, because
// wᵢ·cⱼ lives in the one shared latent space and is comparable across
// shards.
func (m *Model) SelectTopKScored(c linalg.Vector, candidates []int, k int) []rank.Item {
	return m.selectTopKScoredInto(nil, c, candidates, k)
}

// selectTopKScoredInto is SelectTopKScored ranking into dst's storage
// (rank.TopKScoredInto).
func (m *Model) selectTopKScoredInto(dst []rank.Item, c linalg.Vector, candidates []int, k int) []rank.Item {
	if candidates == nil {
		candidates = m.allWorkerIDs()
	}
	return rank.TopKScoredInto(dst, candidates, func(id int) float64 { return m.Score(id, c) }, k)
}

// allWorkerIDs returns the shared identity candidate slice [0, M).
// Callers must treat it as read-only.
func (m *Model) allWorkerIDs() []int {
	m.allWorkersOnce.Do(func() {
		ids := make([]int, m.M)
		for i := range ids {
			ids[i] = i
		}
		m.allWorkers = ids
	})
	return m.allWorkers
}

// SelectForTask is the end-to-end Algorithm 3: project the task into
// the latent category space, then choose the top-k candidates by
// predictive performance. When rng is non-nil the category is sampled
// (Algorithm 3 line 6); otherwise the posterior mean is used.
func (m *Model) SelectForTask(bag text.Bag, candidates []int, k int, rng *randx.RNG) []int {
	cat := m.Project(bag)
	c := cat.Mean()
	if rng != nil {
		c = cat.Sample(rng)
	}
	return m.SelectTopK(c, candidates, k)
}

// projectInto projects bags[j] into out[j], whose vectors must have K
// components, with at most parallelism goroutines, each on one pooled
// scratch. It returns only after every one of them has, cancelled or
// not, so the caller may reuse bags and out.
func (m *Model) projectInto(ctx context.Context, bags []text.Bag, out []TaskCategory, parallelism int) error {
	parallelFor(len(bags), parallelism, func(lo, hi int) {
		sc := projectScratchPool.Get().(*projectScratch)
		defer projectScratchPool.Put(sc)
		for j := lo; j < hi; j++ {
			if ctx.Err() != nil {
				return
			}
			m.projectTo(sc, bags[j], out[j])
		}
	})
	return ctx.Err()
}

// Name identifies the algorithm in reports (TDPM, §7.2.1).
func (m *Model) Name() string { return "TDPM" }

// Rank orders the candidate workers best first for the task: it
// projects the task (Algorithm 3) and ranks by wᵢ·cⱼ. It is the
// Selector-interface form of SelectForTask.
func (m *Model) Rank(bag text.Bag, candidates []int) []int {
	return m.SelectForTask(bag, candidates, len(candidates), nil)
}

// ErrBadUpdate is returned by UpdateWorkerSkill[Drift] when the
// arguments cannot describe a valid posterior update.
var ErrBadUpdate = errors.New("core: invalid skill update")

// UpdateWorkerSkill folds newly resolved tasks into one worker's
// posterior without a full retrain — the crowd-update path of §4.2
// issue (2). cats and scores pair the projected categories of the new
// tasks with the worker's feedback on them; prior responsibilities are
// carried by the worker's current posterior acting as the prior. An
// empty evidence set is a no-op; invalid input returns ErrBadUpdate
// and a failed solve returns the solver's error, in both cases leaving
// the posterior untouched.
func (m *Model) UpdateWorkerSkill(worker int, cats []TaskCategory, scores []float64) error {
	return m.UpdateWorkerSkillDrift(worker, cats, scores, 0)
}

// UpdateWorkerSkillDrift is UpdateWorkerSkill with Kalman-style
// process noise: processVar is added to every skill-coordinate
// variance before conditioning on the new evidence. With stationary
// skills use 0 (the posterior only ever sharpens); for non-stationary
// crowds set it near the per-answer skill-drift variance so the
// posterior keeps enough uncertainty to track the walk (see the
// SkillDrift corpus extension and BenchmarkAblationDriftTracking).
//
// The update is transactional: LambdaW and NuW2 are only written —
// both together, as freshly allocated vectors — after the solve
// succeeds, so an error never leaves a half-applied posterior behind.
func (m *Model) UpdateWorkerSkillDrift(worker int, cats []TaskCategory, scores []float64, processVar float64) error {
	k := m.K
	switch {
	case worker < 0 || worker >= m.M:
		return fmt.Errorf("%w: worker %d out of range [0,%d)", ErrBadUpdate, worker, m.M)
	case len(cats) != len(scores):
		return fmt.Errorf("%w: %d categories vs %d scores", ErrBadUpdate, len(cats), len(scores))
	case processVar < 0:
		return fmt.Errorf("%w: negative process variance %g", ErrBadUpdate, processVar)
	case len(cats) == 0:
		return nil // no evidence: nothing to fold in
	}
	// Prior: the worker's current Gaussian posterior, widened by the
	// process noise. The widening is staged locally so a failed solve
	// cannot leave the stored variances already inflated.
	widened := make(linalg.Vector, k)
	prec := linalg.NewMatrix(k, k)
	rhs := linalg.NewVector(k)
	for kk := 0; kk < k; kk++ {
		widened[kk] = m.NuW2[worker][kk] + processVar
		p := 1 / widened[kk]
		prec.Set(kk, kk, p)
		rhs[kk] = p * m.LambdaW[worker][kk]
	}
	invTau2 := 1 / m.Tau2
	quad := linalg.NewVector(k)
	for t, cat := range cats {
		if len(cat.Lambda) != k || len(cat.Nu2) != k {
			return fmt.Errorf("%w: category %d has dimensions %d/%d, want %d", ErrBadUpdate, t, len(cat.Lambda), len(cat.Nu2), k)
		}
		prec.AddOuterInPlace(invTau2, cat.Lambda, cat.Lambda)
		prec.AddScaledDiagInPlace(invTau2, cat.Nu2)
		rhs.AddScaledInPlace(invTau2*scores[t], cat.Lambda)
		for kk := 0; kk < k; kk++ {
			quad[kk] += cat.Lambda[kk]*cat.Lambda[kk] + cat.Nu2[kk]
		}
	}
	lw, err := linalg.SPDSolve(prec.Symmetrize(), rhs)
	if err != nil {
		return fmt.Errorf("core: skill update for worker %d: %w", worker, err)
	}
	nu2 := make(linalg.Vector, k)
	for kk := 0; kk < k; kk++ {
		nu2[kk] = 1 / (1/widened[kk] + quad[kk]*invTau2)
	}
	// Commit both moments as a swap of fresh slices: a reader holding a
	// LambdaW row never observes in-place mutation.
	m.LambdaW[worker] = lw
	m.NuW2[worker] = nu2
	return nil
}
