package core

import (
	"fmt"
	"math"
	"slices"

	"crowdselect/internal/linalg"
	"crowdselect/internal/randx"
)

// This file implements an alternative inference engine for the same
// TDPM generative model (§4.3): Monte-Carlo EM with Gibbs sampling.
// The paper chooses variational inference (§5) for speed; a sampler is
// the natural comparator, and `BenchmarkAblationInferenceMethod`
// (ablation_test.go) pits the two against each other. No program trains
// with it, so it lives among the tests.
//
// Per sweep:
//
//  1. each task's category cⱼ moves by Metropolis–Hastings random-walk
//     steps on the exact (z-marginalized) log density
//         log p(cⱼ | ·) = log N(cⱼ; μ_c, Σ_c)
//                        + Σ_p #v_p · log Σₖ softmax(cⱼ)ₖ β_{k,v_p}
//                        + Σ_{i: aᵢⱼ=1} log N(sᵢⱼ; wᵢ·cⱼ, τ²)
//     (no Taylor bound needed — the sampler does not require a
//     tractable expectation);
//  2. each worker's skills wᵢ are drawn from their exact Gaussian
//     conditional (the sampling analogue of Eqs. 10–11);
//  3. token categories z are drawn given cⱼ and β (Eqs. 4–5);
//  4. every MStepEvery sweeps the hyperparameters ϕ are re-estimated
//     from the current state (stochastic EM), mirroring Eqs. 16–21.
//
// After burn-in, per-worker posterior means and variances are
// accumulated; the returned *Model is drop-in compatible with the
// variational one (Project, SelectTopK, Save all work).

// MCEMConfig controls the Monte-Carlo EM trainer.
type MCEMConfig struct {
	// K is the number of latent categories.
	K int
	// Sweeps is the total number of Gibbs sweeps; BurnIn of them are
	// discarded before accumulating posterior statistics.
	Sweeps, BurnIn int
	// MHSteps random-walk proposals (stddev MHStep) update each task
	// category per sweep.
	MHSteps int
	MHStep  float64
	// MStepEvery is the hyperparameter re-estimation cadence. The
	// M-step regularizes exactly as the variational one does.
	MStepEvery int
	// Seed drives all sampling.
	Seed int64
}

// NewMCEMConfig returns defaults for K categories.
func NewMCEMConfig(k int) MCEMConfig {
	return MCEMConfig{
		K:          k,
		Sweeps:     150,
		BurnIn:     50,
		MHSteps:    4,
		MHStep:     0.25,
		MStepEvery: 5,
		Seed:       1,
	}
}

// Validate reports the first problem with the configuration.
func (c MCEMConfig) Validate() error {
	switch {
	case c.K < 1:
		return fmt.Errorf("core: mcem: K = %d", c.K)
	case c.Sweeps < 1 || c.BurnIn < 0 || c.BurnIn >= c.Sweeps:
		return fmt.Errorf("core: mcem: sweeps %d with burn-in %d", c.Sweeps, c.BurnIn)
	case c.MHSteps < 1 || c.MHStep <= 0:
		return fmt.Errorf("core: mcem: MH steps %d, step %g", c.MHSteps, c.MHStep)
	case c.MStepEvery < 1:
		return fmt.Errorf("core: mcem: MStepEvery = %d", c.MStepEvery)
	}
	return nil
}

// MCEMStats reports sampler behaviour.
type MCEMStats struct {
	// Sweeps actually run, and the MH acceptance rate over all task
	// updates (healthy random-walk samplers sit around 0.2–0.6).
	Sweeps     int
	AcceptRate float64
	// Kept is the number of post-burn-in sweeps accumulated.
	Kept int
}

// TrainMCEM fits TDPM by Monte-Carlo EM. The input contract matches
// Train.
func TrainMCEM(tasks []ResolvedTask, numWorkers, vocabSize int, cfg MCEMConfig) (*Model, *MCEMStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if err := validateTasks(tasks, numWorkers, vocabSize); err != nil {
		return nil, nil, err
	}
	s := newSampler(tasks, numWorkers, vocabSize, cfg)
	stats := &MCEMStats{}
	var proposals, accepts int
	for sweep := 1; sweep <= cfg.Sweeps; sweep++ {
		a, p := s.sweepTasks()
		accepts += a
		proposals += p
		s.sweepWorkers()
		s.sweepTokens()
		if sweep%cfg.MStepEvery == 0 {
			if err := s.mStep(); err != nil {
				return nil, nil, err
			}
		}
		if sweep > cfg.BurnIn {
			s.accumulate()
			stats.Kept++
		}
		stats.Sweeps = sweep
	}
	if proposals > 0 {
		stats.AcceptRate = float64(accepts) / float64(proposals)
	}
	m, err := s.finalize()
	if err != nil {
		return nil, nil, err
	}
	return m, stats, nil
}

// sampler holds the Markov-chain state.
type sampler struct {
	cfg   MCEMConfig
	rng   *randx.RNG
	tasks []ResolvedTask

	m *Model // hyperparameters + live worker state

	c []linalg.Vector // current task categories
	w []linalg.Vector // current worker skills (aliases m.LambdaW)
	// zCounts[k][v] accumulates token-category assignments of the
	// current sweep (for β's M-step).
	zCounts *linalg.Matrix

	workerTasks  [][]int
	workerScores [][]float64
	numResponses int

	// Posterior accumulators over kept sweeps.
	wSum, wSqSum []linalg.Vector
	kept         int
}

func newSampler(tasks []ResolvedTask, numWorkers, vocabSize int, cfg MCEMConfig) *sampler {
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

	s := &sampler{
		cfg:          cfg,
		rng:          randx.New(cfg.Seed),
		tasks:        tasks,
		m:            m,
		c:            make([]linalg.Vector, len(tasks)),
		w:            m.LambdaW,
		zCounts:      linalg.NewMatrix(k, vocabSize),
		workerTasks:  make([][]int, numWorkers),
		workerScores: make([][]float64, numWorkers),
		wSum:         make([]linalg.Vector, numWorkers),
		wSqSum:       make([]linalg.Vector, numWorkers),
	}
	// β init: uniform rows with noise (as in the variational trainer).
	for kk := 0; kk < k; kk++ {
		row := m.LogBeta.Row(kk)
		var sum float64
		for v := 0; v < vocabSize; v++ {
			x := 1 + 0.5*s.rng.Float64()
			row[v] = x
			sum += x
		}
		for v := 0; v < vocabSize; v++ {
			row[v] = math.Log(row[v] / sum)
		}
	}
	for i := 0; i < numWorkers; i++ {
		m.LambdaW[i] = linalg.NewVector(k)
		m.NuW2[i] = linalg.ConstVector(k, 1)
		s.wSum[i] = linalg.NewVector(k)
		s.wSqSum[i] = linalg.NewVector(k)
	}
	for j := range tasks {
		s.c[j] = stdNormalVec(s.rng, k).ScaleInPlace(0.1)
		for _, r := range tasks[j].Responses {
			s.workerTasks[r.Worker] = append(s.workerTasks[r.Worker], j)
			s.workerScores[r.Worker] = append(s.workerScores[r.Worker], r.Score)
			s.numResponses++
		}
	}
	return s
}

// logDensityC evaluates the exact z-marginalized log density of one
// task's category (up to constants).
func (s *sampler) logDensityC(j int, c linalg.Vector) float64 {
	m := s.m
	// Prior.
	d := sub(c, m.MuC)
	lp := -0.5 * m.sigmaCInv.QuadForm(d, d)
	// Tokens: Σ #v log Σₖ πₖ β_{k,v}.
	pi := softmax(c)
	bag := s.tasks[j].Bag
	for p, v := range bag.IDs {
		var pv float64
		for kk := 0; kk < m.K; kk++ {
			pv += pi[kk] * math.Exp(m.LogBeta.At(kk, v))
		}
		if pv < 1e-300 {
			pv = 1e-300
		}
		lp += bag.Counts[p] * math.Log(pv)
	}
	// Feedback.
	for _, r := range s.tasks[j].Responses {
		res := r.Score - s.w[r.Worker].Dot(c)
		lp -= res * res / (2 * m.Tau2)
	}
	return lp
}

// sweepTasks updates every task category with MH random-walk steps;
// returns (accepted, proposed).
func (s *sampler) sweepTasks() (int, int) {
	accepted, proposed := 0, 0
	for j := range s.tasks {
		cur := s.c[j]
		lp := s.logDensityC(j, cur)
		for step := 0; step < s.cfg.MHSteps; step++ {
			prop := add(cur, stdNormalVec(s.rng, s.cfg.K).ScaleInPlace(s.cfg.MHStep))
			lpProp := s.logDensityC(j, prop)
			proposed++
			if math.Log(s.rng.Float64()+1e-300) < lpProp-lp {
				cur, lp = prop, lpProp
				accepted++
			}
		}
		s.c[j] = cur
	}
	return accepted, proposed
}

// sweepWorkers draws each worker's skills from the exact Gaussian
// conditional — the sampling analogue of Eqs. 10–11.
func (s *sampler) sweepWorkers() {
	k := s.cfg.K
	m := s.m
	invTau2 := 1 / m.Tau2
	muTerm := m.sigmaWInv.MulVec(m.MuW)
	prec := linalg.NewMatrix(k, k)
	l := linalg.NewVector(k * k)
	rhs := linalg.NewVector(k)
	for i := 0; i < m.M; i++ {
		prec.Zero()
		prec.AddInPlace(m.sigmaWInv)
		copy(rhs, muTerm)
		for jj, j := range s.workerTasks[i] {
			cj := s.c[j]
			prec.AddOuterInPlace(invTau2, cj, cj)
			rhs.AddScaledInPlace(invTau2*s.workerScores[i][jj], cj)
		}
		if !spdFactor(l, prec.Symmetrize()) {
			continue // keep previous sample on numerical failure
		}
		mean := slices.Clone(rhs)
		cholSolve(l, k, mean)
		// Draw from N(mean, prec⁻¹): mean + L⁻ᵀ·z.
		z := stdNormalVec(s.rng, k)
		draw := add(mean, solveLT(l, z))
		s.w[i] = draw
	}
}

// solveLT solves Lᵀ x = z for the Cholesky factor L of the precision
// (row-major, as cholesky leaves it), giving a draw with covariance
// (L·Lᵀ)⁻¹.
func solveLT(l, z linalg.Vector) linalg.Vector {
	// (LLᵀ)⁻¹ = L⁻ᵀ L⁻¹; for x = L⁻ᵀ z, cov(x) = L⁻ᵀ I L⁻¹ = prec⁻¹.
	n := len(z)
	x := make(linalg.Vector, n)
	for i := n - 1; i >= 0; i-- {
		sum := z[i]
		for kk := i + 1; kk < n; kk++ {
			sum -= l[kk*n+i] * x[kk]
		}
		x[i] = sum / l[i*n+i]
	}
	return x
}

// softmax returns the logistic transform of Eq. 4 of the paper:
// softmax(x)ᵢ = exp(xᵢ)/Σ exp(xⱼ), computed stably.
func softmax(x linalg.Vector) linalg.Vector {
	dst := make(linalg.Vector, len(x))
	if len(x) == 0 {
		return dst
	}
	m := x.Max()
	var s float64
	for i, v := range x {
		e := math.Exp(v - m)
		dst[i] = e
		s += e
	}
	for i := range dst {
		dst[i] /= s
	}
	return dst
}

// add returns x + y as a new vector.
func add(x, y linalg.Vector) linalg.Vector {
	z := make(linalg.Vector, len(x))
	for i, v := range x {
		z[i] = v + y[i]
	}
	return z
}

// stdNormalVec draws a length-n vector of independent N(0, 1) variates.
func stdNormalVec(r *randx.RNG, n int) linalg.Vector {
	v := make(linalg.Vector, n)
	for i := range v {
		v[i] = r.Normal(0, 1)
	}
	return v
}

// sweepTokens draws token categories given the current cⱼ and β,
// refreshing the z-count matrix used by β's M-step.
func (s *sampler) sweepTokens() {
	s.zCounts.Zero()
	k := s.cfg.K
	weights := make(linalg.Vector, k)
	for j := range s.tasks {
		pi := softmax(s.c[j])
		bag := s.tasks[j].Bag
		for p, v := range bag.IDs {
			for kk := 0; kk < k; kk++ {
				weights[kk] = pi[kk] * math.Exp(s.m.LogBeta.At(kk, v))
			}
			z := s.rng.Categorical(weights)
			s.zCounts.AddAt(z, v, bag.Counts[p])
		}
	}
}

// mStep re-estimates the hyperparameters from the current chain state
// (stochastic EM; cf. Eqs. 16–21 with point samples in place of
// variational moments).
func (s *sampler) mStep() error {
	k := s.cfg.K
	m := s.m
	ridge := Config{K: k}.covRidge()

	m.MuW = meanOf(m.LambdaW, k)
	m.SigmaW = scatterOfSamples(m.LambdaW, m.MuW, k, ridge)
	m.MuC = meanOf(s.c, k)
	m.SigmaC = scatterOfSamples(s.c, m.MuC, k, ridge)

	var sum float64
	for j, t := range s.tasks {
		for _, r := range t.Responses {
			res := r.Score - s.w[r.Worker].Dot(s.c[j])
			sum += res * res
		}
	}
	if s.numResponses > 0 {
		m.Tau2 = sum / float64(s.numResponses)
	}
	if m.Tau2 < tauFloor {
		m.Tau2 = tauFloor
	}

	for kk := 0; kk < k; kk++ {
		row := s.zCounts.Row(kk)
		var rowSum float64
		for v := 0; v < m.V; v++ {
			rowSum += row[v] + betaSmoothing
		}
		dst := m.LogBeta.Row(kk)
		for v := 0; v < m.V; v++ {
			dst[v] = math.Log((row[v] + betaSmoothing) / rowSum)
		}
	}
	return m.refreshDerived()
}

// scatterOfSamples is scatterOf with zero within-sample variance.
func scatterOfSamples(xs []linalg.Vector, mu linalg.Vector, k int, ridge float64) *linalg.Matrix {
	out := linalg.NewMatrix(k, k)
	for _, x := range xs {
		d := sub(x, mu)
		out.AddOuterInPlace(1, d, d)
	}
	if len(xs) > 0 {
		out.ScaleInPlace(1 / float64(len(xs)))
	}
	out.AddScalarDiagInPlace(ridge)
	return out.Symmetrize()
}

// accumulate folds the current worker samples into the posterior-mean
// accumulators.
func (s *sampler) accumulate() {
	for i := range s.w {
		s.wSum[i].AddScaledInPlace(1, s.w[i])
		for kk, v := range s.w[i] {
			s.wSqSum[i][kk] += v * v
		}
	}
	s.kept++
}

// finalize builds the returned model: posterior-mean skills with
// sample variances, current hyperparameters.
func (s *sampler) finalize() (*Model, error) {
	if s.kept == 0 {
		return nil, fmt.Errorf("core: mcem: no post-burn-in sweeps kept")
	}
	n := float64(s.kept)
	for i := range s.wSum {
		mean := s.wSum[i].Scale(1 / n)
		s.m.LambdaW[i] = mean
		for kk := range mean {
			v := s.wSqSum[i][kk]/n - mean[kk]*mean[kk]
			if v < 1e-8 {
				v = 1e-8
			}
			s.m.NuW2[i][kk] = v
		}
	}
	if err := s.m.refreshDerived(); err != nil {
		return nil, err
	}
	return s.m, nil
}
