package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"

	"crowdselect/internal/linalg"
	"crowdselect/internal/randx"
)

// TrainStats reports how training went.
type TrainStats struct {
	// Sweeps is the number of variational EM sweeps run.
	Sweeps int
	// ELBO is the bound L′(q) after each sweep.
	ELBO []float64
	// Converged reports whether the relative-improvement criterion was
	// met before MaxIter; the last ELBO is then the highest of the run.
	Converged bool
}

// Train fits a TDPM on the resolved tasks (Algorithm 2). numWorkers
// and vocabSize fix the dimensions of W and β; tasks reference workers
// by index and vocabulary terms by id.
func Train(tasks []ResolvedTask, numWorkers, vocabSize int, cfg Config) (*Model, *TrainStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if err := validateTasks(tasks, numWorkers, vocabSize); err != nil {
		return nil, nil, err
	}

	return newTrainer(tasks, numWorkers, vocabSize, cfg).train()
}

// train runs Algorithm 2's sweeps until the stop rule or MaxIter ends
// them.
func (tr *trainer) train() (*Model, *TrainStats, error) {
	stats := &TrainStats{}
	stop := newStopRule(tr.cfg)
	for sweep := 1; sweep <= tr.cfg.MaxIter; sweep++ {
		tr.updateTasks()   // λ_c, ν_c (CG), φ (Eq. 12), ε (Eq. 13)
		tr.updateWorkers() // λ_w (Eq. 10), ν_w (Eq. 11)
		tr.mStep()         // μ_w, Σ_w, μ_c, Σ_c, τ², β (Eqs. 16–21)
		if err := tr.m.refreshDerived(); err != nil {
			return nil, nil, err
		}
		// Deliberately no inner equilibration of the skill side here:
		// iterating (λ_w, Σ_w, τ²) to their joint fixed point within a
		// sweep lets the empirical-Bayes covariance inflate against
		// the sparse per-worker evidence (few answers per worker) and
		// overfits. The gradual one-step-per-sweep ramp acts as the
		// regularizer that makes the skill regression generalize.
		elbo := tr.elbo()
		stats.Sweeps = sweep
		stats.ELBO = append(stats.ELBO, elbo)
		if stop.observe(elbo) {
			stats.Converged = true
			break
		}
	}
	return tr.m, stats, nil
}

// validateTasks checks Train's input: worker and term references in
// range, finite scores and at least one response.
func validateTasks(tasks []ResolvedTask, numWorkers, vocabSize int) error {
	if numWorkers < 1 {
		return fmt.Errorf("core: numWorkers = %d", numWorkers)
	}
	if vocabSize < 1 {
		return fmt.Errorf("core: vocabSize = %d", vocabSize)
	}
	responses := 0
	for j, t := range tasks {
		for _, r := range t.Responses {
			if r.Worker < 0 || r.Worker >= numWorkers {
				return fmt.Errorf("core: task %d references worker %d of %d", j, r.Worker, numWorkers)
			}
			if math.IsNaN(r.Score) || math.IsInf(r.Score, 0) {
				return fmt.Errorf("core: task %d has non-finite score", j)
			}
			responses++
		}
		for _, id := range t.Bag.IDs {
			if id < 0 || id >= vocabSize {
				return fmt.Errorf("core: task %d references term %d of %d", j, id, vocabSize)
			}
		}
	}
	if len(tasks) == 0 || responses == 0 {
		return ErrNoData
	}
	return nil
}

// stopRule is Train's convergence test: stop once the ELBO has been flat
// — a relative improvement in [0, tol) over the sweep before — for
// patience consecutive sweeps, minIter sweeps at the earliest. A sweep
// counts as flat only while the ELBO is at its running maximum. The
// empirical-Bayes ramp (see Train) does not climb monotonically: on the
// larger platforms the bound peaks within a few sweeps, sinks for twenty
// or more, turns and then climbs well past the first peak, and the turn
// is three or four sweeps of tiny positive improvement — flat by the
// relative test alone, in a trough several percent below where training
// ends.
type stopRule struct {
	tol               float64
	patience, minIter int

	sweeps     int
	prev, best float64 // the last sweep's ELBO and the highest so far
	flat       int
}

// newStopRule is Train's stop rule for cfg. minIter is a floor under the
// stop rule, never under MaxIter: a caller capping MaxIter below it gets
// exactly MaxIter sweeps.
func newStopRule(cfg Config) stopRule {
	return stopRule{tol: stopTol, patience: stopPatience, minIter: min(minIter, cfg.MaxIter), best: math.Inf(-1)}
}

// observe takes the ELBO after the next sweep and reports whether
// training has converged.
func (r *stopRule) observe(elbo float64) bool {
	r.sweeps++
	atMax := elbo >= r.best
	if atMax {
		r.best = elbo
	}
	// At the running maximum the improvement over the last sweep is ≥ 0.
	if r.sweeps > 1 && atMax && (elbo-r.prev)/(math.Abs(r.prev)+1e-12) < r.tol {
		r.flat++
	} else {
		r.flat = 0
	}
	r.prev = elbo
	return r.flat >= r.patience && r.sweeps >= r.minIter
}

// trainer holds the full variational state of Algorithm 2.
type trainer struct {
	cfg   Config
	tasks []ResolvedTask
	m     *Model

	// Per-task variational parameters.
	lambdaC []linalg.Vector
	nuC2    []linalg.Vector
	phi     []*linalg.Matrix // distinct-terms × K, rows sum to 1
	eps     []float64

	// workerTasks[i] lists the task indices worker i responded to,
	// with the matching score (the adjacency form of A and S).
	workerTasks  [][]int
	workerScores [][]float64

	numResponses int

	// The fan-out of the three per-item phases — updateTasks,
	// updateWorkers and elbo's summands — and one slot of scratch per
	// goroutine it may run (setWidth).
	fan   *fanOut
	slots []trainSlot

	// The ELBO's summands (elbo): workerTerms holds two per worker;
	// terms holds, for task j from termOff[j], its cross term and
	// entropy, one Z-term per distinct term and category, the token
	// normaliser and one term per response.
	workerTerms []float64
	terms       []float64
	termOff     []int
}

// trainSlot is the scratch of one fan-out slot: the E-step's solver,
// the worker update's precision matrix, its Cholesky factor, the
// right-hand side and the quadratic aggregate, and the ELBO's λ−μ.
type trainSlot struct {
	solver            *taskSolver
	prec              *linalg.Matrix
	factor, rhs, quad linalg.Vector
	d                 linalg.Vector
}

// trainBlock is the most tasks or workers a fan-out goroutine claims at
// a time: small enough that the goroutines finish together although one
// task's conjugate gradient may take twice another's steps, large enough
// that claiming costs nothing beside the work.
const trainBlock = 64

func newTrainer(tasks []ResolvedTask, numWorkers, vocabSize int, cfg Config) *trainer {
	k := cfg.K
	m := &Model{
		K:       k,
		V:       vocabSize,
		M:       numWorkers,
		LambdaW: make([]linalg.Vector, numWorkers),
		NuW2:    make([]linalg.Vector, numWorkers),
		MuW:     linalg.NewVector(k),
		SigmaW:  linalg.Identity(k),
		MuC:     linalg.NewVector(k),
		SigmaC:  linalg.Identity(k),
		Tau2:    1,
		LogBeta: linalg.NewMatrix(k, vocabSize),
	}
	m.sigmaWInv = linalg.Identity(k)
	m.sigmaCInv = linalg.Identity(k)

	rng := randx.New(cfg.Seed)
	// β init: near-uniform rows with multiplicative noise, normalized
	// in log space.
	for kk := 0; kk < k; kk++ {
		row := m.LogBeta.Row(kk)
		var sum float64
		for v := 0; v < vocabSize; v++ {
			w := 1 + 0.5*rng.Float64()
			row[v] = w
			sum += w
		}
		for v := 0; v < vocabSize; v++ {
			row[v] = math.Log(row[v] / sum)
		}
	}
	m.beta = betaTable(m.LogBeta)
	for i := 0; i < numWorkers; i++ {
		m.LambdaW[i] = linalg.NewVector(k)
		m.NuW2[i] = linalg.ConstVector(k, 1)
	}

	tr := &trainer{
		cfg:          cfg,
		tasks:        tasks,
		m:            m,
		lambdaC:      make([]linalg.Vector, len(tasks)),
		nuC2:         make([]linalg.Vector, len(tasks)),
		phi:          make([]*linalg.Matrix, len(tasks)),
		eps:          make([]float64, len(tasks)),
		workerTasks:  make([][]int, numWorkers),
		workerScores: make([][]float64, numWorkers),
		workerTerms:  make([]float64, 2*numWorkers),
		termOff:      make([]int, len(tasks)+1),
	}
	for j, t := range tasks {
		tr.termOff[j+1] = tr.termOff[j] + 2 + t.Bag.Len()*k + 1 + len(t.Responses)
		tr.lambdaC[j] = linalg.NewVector(k)
		tr.nuC2[j] = linalg.ConstVector(k, 1)
		tr.phi[j] = linalg.NewMatrix(t.Bag.Len(), k)
		for p := 0; p < t.Bag.Len(); p++ {
			tr.phi[j].Row(p).Fill(1 / float64(k))
		}
		tr.eps[j] = float64(k) * exp(0.5)
		for _, r := range t.Responses {
			tr.workerTasks[r.Worker] = append(tr.workerTasks[r.Worker], j)
			tr.workerScores[r.Worker] = append(tr.workerScores[r.Worker], r.Score)
			tr.numResponses++
		}
	}
	tr.terms = make([]float64, tr.termOff[len(tasks)])
	tr.setWidth(runtime.GOMAXPROCS(0))
	return tr
}

// setWidth sizes the fan-out and its scratch to width goroutines. Train
// reads GOMAXPROCS; the tests force other widths. Every width computes
// the same bits: a task's update reads the global parameters and its
// answerers' λ_w, ν_w and writes only its own φ, ε, λ_c and ν_c; a
// worker's reads the λ_c, ν_c of its tasks and writes only its own λ_w
// and ν_w; a solver carries nothing from one solve into the next (cg);
// and elbo adds its summands in one fixed order whichever goroutine
// computed them.
func (tr *trainer) setWidth(width int) {
	k := tr.cfg.K
	tr.fan = newFanOut(width)
	tr.slots = make([]trainSlot, tr.fan.width())
	for s := range tr.slots {
		tr.slots[s] = trainSlot{
			solver: newTaskSolver(),
			prec:   linalg.NewMatrix(k, k),
			factor: linalg.NewVector(k * k),
			rhs:    linalg.NewVector(k),
			quad:   linalg.NewVector(k),
			d:      linalg.NewVector(k),
		}
	}
}

// updateWorkers applies the closed-form coordinate updates of
// Eqs. 10–11 to every worker's variational posterior, fanned out by
// blocks of workers. The precision matrix, its Cholesky factor, the
// right-hand side and the quadratic aggregate are buffers of the slot
// and a response's ν_c²/τ² goes onto the diagonal in place, so a sweep
// allocates one new λ_w per worker, Σ_w⁻¹μ_w and the fan-out's closure,
// and nothing per response.
func (tr *trainer) updateWorkers() {
	m := tr.m
	muWTerm := m.sigmaWInv.MulVec(m.MuW)
	invTau2 := 1 / m.Tau2
	tr.fan.run(m.M, trainBlock, func(slot, lo, hi int) {
		for i := lo; i < hi; i++ {
			tr.updateWorker(&tr.slots[slot], i, muWTerm, invTau2)
		}
	})
}

// updateWorker is Eqs. 10–11 for worker i on the slot's buffers.
func (tr *trainer) updateWorker(sl *trainSlot, i int, muWTerm linalg.Vector, invTau2 float64) {
	k := tr.cfg.K
	m := tr.m
	prec, rhs, quad := sl.prec, sl.rhs, sl.quad // quad: Σ_j λc_k² + νc_k²
	prec.Zero()
	prec.AddInPlace(m.sigmaWInv)
	copy(rhs, muWTerm)
	quad.Zero()
	for jj, j := range tr.workerTasks[i] {
		lc, nc := tr.lambdaC[j], tr.nuC2[j]
		prec.AddOuterInPlace(invTau2, lc, lc)
		prec.AddScaledDiagInPlace(invTau2, nc)
		rhs.AddScaledInPlace(invTau2*tr.workerScores[i][jj], lc)
		for kk := 0; kk < k; kk++ {
			quad[kk] += lc[kk]*lc[kk] + nc[kk]
		}
	}
	if spdFactor(sl.factor, prec.Symmetrize()) {
		lw := slices.Clone(rhs)
		cholSolve(sl.factor, k, lw)
		m.LambdaW[i] = lw
	}
	for kk := 0; kk < k; kk++ {
		m.NuW2[i][kk] = 1 / (quad[kk]*invTau2 + m.sigmaWInv.At(kk, kk))
	}
}

// updateTasks runs, for every task, InnerIter rounds of the φ update
// (Eq. 12), the ε update (Eq. 13), and the conjugate-gradient update
// of (λ_c, ν_c) (§5.2), fanned out by blocks of tasks, each on its
// slot's solver.
func (tr *trainer) updateTasks() {
	tr.fan.run(len(tr.tasks), trainBlock, func(slot, lo, hi int) {
		s := tr.slots[slot].solver
		for j := lo; j < hi; j++ {
			for round := 0; round < tr.cfg.InnerIter; round++ {
				s.updatePhi(tr.phi[j], tr.tasks[j].Bag.IDs, tr.lambdaC[j], tr.m.beta)
				tr.eps[j] = taylorPoint(tr.lambdaC[j], tr.nuC2[j])
				tr.updateLambdaNuC(s, j, true)
			}
		}
	})
}
