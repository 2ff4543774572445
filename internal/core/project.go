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
// Newton working set, start vector and the round's e^λ). Pooled because
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
// update (Eq. 13) and the Newton update of (λ_c, ν_c) with the feedback
// terms removed (Eqs. 22–23), holding the trained model
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
		// Newton update of (λ, ν) without feedback (Eqs. 22–23) at the
		// Taylor point of Eq. 13, written back into lam and nu2.
		s.obj.reset(k, m.MuC, m.sigmaCInv)
		s.obj.setEps(taylorPoint(lam, nu2))
		s.obj.addTokens(counts, phi)
		if !s.solveNewton(lam, nu2, projectNewtonIter) {
			break
		}
	}
}

// projectInner is the number of φ/ε/Newton rounds Project runs:
// ProjectIters, or 6.
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
// workers; that path shares one lazily built set instead of allocating
// M ints per call. candidates is only read.
func (m *Model) SelectTopK(c linalg.Vector, candidates []int, k int) []int {
	return rank.IDs(m.SelectTopKScored(c, candidates, k))
}

// SelectTopKScored is SelectTopK keeping the Eq. 1 scores: the k best
// candidates as rank.Items, best first. A shard serving a
// scatter-gather coordinator must return scores — per-shard ranks
// cannot be merged into a global top-k, per-shard scores can, because
// wᵢ·cⱼ lives in the one shared latent space and is comparable across
// shards. All workers (nil candidates) rank through the skill index; a
// candidate slice is scanned.
func (m *Model) SelectTopKScored(c linalg.Vector, candidates []int, k int) []rank.Item {
	if candidates != nil {
		return m.rankInto(nil, nil, c, Candidates{ids: candidates}, k)
	}
	sc := batchScratchPool.Get().(*batchScratch)
	defer sc.release()
	return m.rankInto(nil, &sc.index, c, m.allCandidates(), k)
}

// rankInto is Eq. 1 over cands into dst's storage: it returns dst[:n],
// n = min(k, the candidate count), holding the n best candidates. A set
// the skill index can rank — one with a bitset, ids below M, more than
// k ≥ 1 of them, at least indexMinCandidates and M/indexMinDensity of
// them, in a crowd the index covers — goes through the index on the
// scratch sc, any other through the scan (rank.TopKScoredInto), which is
// also the index's oracle: both return the same list, ids and score
// bits.
func (m *Model) rankInto(dst []rank.Item, sc *indexScratch, c linalg.Vector, cands Candidates, k int) []rank.Item {
	ids := cands.ids
	if cands.bits == nil || k <= 0 || k >= len(ids) || len(ids) < indexMinCandidates || indexMinDensity*len(ids) < m.M ||
		len(c) != m.K || ids[len(ids)-1] >= m.M || m.M > maxIndexedWorkers {
		return rank.TopKScoredInto(dst, ids, func(id int) float64 { return m.Score(id, c) }, k)
	}
	return m.index().topK(dst, sc, m, c, cands.bits, k)
}

// index returns the skill index over LambdaW, building it on first use.
// Concurrent first callers may each build one; all of them use the one
// published first.
func (m *Model) index() *skillIndex {
	if x := m.skills.Load(); x != nil {
		return x
	}
	x := newSkillIndex(m.LambdaW[:m.M], m.K)
	if !m.skills.CompareAndSwap(nil, x) {
		x = m.skills.Load()
	}
	return x
}

// allCandidates returns the shared candidate set of every worker, [0, M).
func (m *Model) allCandidates() Candidates {
	m.allWorkersOnce.Do(func() {
		ids := make([]int, m.M)
		for i := range ids {
			ids[i] = i
		}
		m.allWorkers = NewCandidates(ids)
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
// components, on f's goroutines: a batch of n bags is cut into blocks of
// ⌈n/width⌉, one per goroutine, each block on one pooled scratch. It
// returns only after every block has, cancelled or not, so the caller
// may reuse bags and out.
func (m *Model) projectInto(ctx context.Context, f *fanOut, bags []text.Bag, out []TaskCategory) error {
	f.run(len(bags), len(bags), func(_, lo, hi int) {
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
// and leaves the posterior untouched. Neither slice is retained.
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
// The posterior precision of the mean is D + τ⁻²·ΛΛᵀ, where D is
// diagonal (the widened prior precision plus τ⁻²·Σν_c²) and Λ is the
// K×n block of the n categories' means. By Woodbury the new mean is
// D⁻¹r − D⁻¹Λ·C⁻¹·ΛᵀD⁻¹r with the n×n capacitance C = τ²Iₙ + ΛᵀD⁻¹Λ,
// which is SPD with every eigenvalue at least τ²: its factorisation
// needs no pivot check and no jitter. At n = 1 C is a scalar and the
// fold is Sherman–Morrison, two O(K) passes. ν_w² is the diagonal
// formula 1/(1/(ν_w²+q) + τ⁻²·Σ(λ_c²+ν_c²)).
//
// The update is transactional: LambdaW and NuW2 are only written —
// both together, as freshly allocated vectors — once the whole input
// and both new moments have been checked, so an error never leaves a
// half-applied or non-finite posterior behind. Those two vectors are
// the only allocations of a fold of up to four categories.
func (m *Model) UpdateWorkerSkillDrift(worker int, cats []TaskCategory, scores []float64, processVar float64) error {
	k, n := m.K, len(cats)
	switch {
	case worker < 0 || worker >= m.M:
		return fmt.Errorf("%w: worker %d out of range [0,%d)", ErrBadUpdate, worker, m.M)
	case n != len(scores):
		return fmt.Errorf("%w: %d categories vs %d scores", ErrBadUpdate, n, len(scores))
	case processVar < 0 || !finite(processVar):
		return fmt.Errorf("%w: process variance %g is not finite and non-negative", ErrBadUpdate, processVar)
	case n == 0:
		return nil // no evidence: nothing to fold in
	}
	for t, cat := range cats {
		if len(cat.Lambda) != k || len(cat.Nu2) != k {
			return fmt.Errorf("%w: category %d has dimensions %d/%d, want %d", ErrBadUpdate, t, len(cat.Lambda), len(cat.Nu2), k)
		}
		if !finite(scores[t]) {
			return fmt.Errorf("%w: score %d is %g", ErrBadUpdate, t, scores[t])
		}
		for kk := 0; kk < k; kk++ {
			if !finite(cat.Lambda[kk]) || cat.Nu2[kk] < 0 || !finite(cat.Nu2[kk]) {
				return fmt.Errorf("%w: category %d coordinate %d is λ=%g ν²=%g", ErrBadUpdate, t, kk, cat.Lambda[kk], cat.Nu2[kk])
			}
		}
	}
	invTau2 := 1 / m.Tau2
	priorMean, priorVar := m.LambdaW[worker], m.NuW2[worker]
	// c holds the capacitance's lower triangle, row-major n×n, and y
	// the n-vector ΛᵀD⁻¹r that the solve turns into C⁻¹ΛᵀD⁻¹r in place;
	// both start zeroed, on the stack for up to four categories.
	var small [20]float64
	scratch := small[:]
	if n*n+n > len(small) {
		scratch = make([]float64, n*n+n)
	}
	c, y := scratch[:n*n], scratch[n*n:n*n+n]
	// Pass 1: lw ← D⁻¹r, nu2 ← D⁻¹ (staged there until pass 2), and the
	// sums over k that build y and C.
	lw := make(linalg.Vector, k)
	nu2 := make(linalg.Vector, k)
	for kk := 0; kk < k; kk++ {
		widened := priorVar[kk] + processVar
		p := 1 / widened
		if widened <= 0 || !finite(widened) || !finite(p) {
			return fmt.Errorf("%w: worker %d's widened variance %g at coordinate %d", ErrBadUpdate, worker, widened, kk)
		}
		d, r := p, p*priorMean[kk]
		for t, cat := range cats {
			d += invTau2 * cat.Nu2[kk]
			r += invTau2 * scores[t] * cat.Lambda[kk]
		}
		dInv := 1 / d
		x := r * dInv
		lw[kk], nu2[kk] = x, dInv
		for s, cs := range cats {
			ls := cs.Lambda[kk]
			y[s] += ls * x
			a := ls * dInv
			for t := 0; t <= s; t++ {
				c[s*n+t] += a * cats[t].Lambda[kk]
			}
		}
	}
	solveCapacitance(c, y, n, m.Tau2)
	// Pass 2: lw ← D⁻¹r − D⁻¹Λz with z = C⁻¹ΛᵀD⁻¹r, and ν_w².
	for kk := 0; kk < k; kk++ {
		var corr, quad float64
		for t, cat := range cats {
			l := cat.Lambda[kk]
			corr += l * y[t]
			quad += l*l + cat.Nu2[kk]
		}
		lw[kk] -= corr * nu2[kk]
		nu2[kk] = 1 / (1/(priorVar[kk]+processVar) + quad*invTau2)
		if !finite(lw[kk]) || !(nu2[kk] > 0) {
			return fmt.Errorf("%w: worker %d's posterior overflows at coordinate %d (λ=%g ν²=%g)", ErrBadUpdate, worker, kk, lw[kk], nu2[kk])
		}
	}
	// Commit both moments as a swap of fresh slices: a reader holding a
	// LambdaW row never observes in-place mutation. The skill index, once
	// built, re-bounds the worker's block in place.
	m.LambdaW[worker] = lw
	m.NuW2[worker] = nu2
	if x := m.skills.Load(); x != nil {
		x.refresh(m.LambdaW, worker)
	}
	return nil
}

// solveCapacitance overwrites y with C⁻¹y, where c holds ΛᵀD⁻¹Λ's lower
// triangle row-major n×n and C adds tau2 to its diagonal. It factors C
// = LDLᵀ in place (L unit lower, its D on c's diagonal); every pivot is
// at least tau2, so none is checked. At n = 1 it is y / (c + tau2).
func solveCapacitance(c, y []float64, n int, tau2 float64) {
	for j := 0; j < n; j++ {
		c[j*n+j] += tau2
		for i := j; i < n; i++ {
			v := c[i*n+j]
			for p := 0; p < j; p++ {
				v -= c[i*n+p] * c[j*n+p] * c[p*n+p]
			}
			if i == j {
				c[j*n+j] = v
			} else {
				c[i*n+j] = v / c[j*n+j]
			}
		}
	}
	for i := 0; i < n; i++ {
		for p := 0; p < i; p++ {
			y[i] -= c[i*n+p] * y[p]
		}
	}
	for i := n - 1; i >= 0; i-- {
		y[i] /= c[i*n+i]
		for p := i + 1; p < n; p++ {
			y[i] -= c[p*n+i] * y[p]
		}
	}
}

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return math.Abs(x) <= math.MaxFloat64 }
