// Package core implements TDPM, the Task-Driven Probabilistic Model of
// the paper (§§4–6): a Bayesian generative model whose worker skills
// live in an *unnormalized* latent-category space, inferred from past
// resolved tasks with feedback scores by a variational algorithm
// (Algorithm 2, Eqs. 10–21), with incremental projection of new tasks
// into the learned category space for real-time crowd selection
// (Algorithm 3, Eqs. 1, 22–23).
//
// # Generative model
//
//	wᵢ ~ Normal(μ_w, Σ_w)                 worker skills      (Eq. 2)
//	cⱼ ~ Normal(μ_c, Σ_c)                 task categories    (Eq. 3)
//	zⱼₚ ~ Discrete(logistic(cⱼ))          token categories   (Eq. 4)
//	vⱼₚ ~ β_zⱼₚ                           tokens             (Eq. 5)
//	sᵢⱼ ~ Normal(wᵢ·cⱼ, τ²)               feedback scores    (Eq. 6)
//
// # Inference
//
// The mean-field family of §5.1 uses Gaussian factors with diagonal
// covariance for wᵢ and cⱼ and a discrete factor per token. The
// log-normalizer of Eq. 4 is bounded with the first-order Taylor trick
// that introduces per-task ε (§5.2). The printed gradients of
// Eqs. 14–15 and 22–23 carry OCR sign typos; this implementation uses
// the gradients obtained by differentiating the bound L′(q) directly,
// which reproduce the closed-form updates of Eqs. 10–13 and 16–21
// verbatim at their stationary points.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"crowdselect/internal/linalg"
	"crowdselect/internal/text"
)

// Scored is one (worker, feedback score) pair on a resolved task —
// an (aᵢⱼ = 1, sᵢⱼ) entry of the paper's A and S matrices.
type Scored struct {
	Worker int
	Score  float64
}

// ResolvedTask is a past task used for training: its bag of
// vocabularies and the scored jobs done on it.
type ResolvedTask struct {
	Bag       text.Bag
	Responses []Scored
}

// Config controls training. NewConfig supplies the defaults used in
// the experiments.
type Config struct {
	// K is the number of latent categories.
	K int
	// MaxIter bounds the variational EM sweeps (Algorithm 2's nmax).
	MaxIter int
	// InnerIter is the number of φ/ε/conjugate-gradient rounds per task
	// per sweep.
	InnerIter int
	// Seed initializes β and the variational state.
	Seed int64
}

// Training's fixed regularization and stop rule.
const (
	// minIter floors the sweeps — the coupled skill/category ramp
	// routinely plateaus in ELBO mid-training while selection quality is
	// still improving, so early sweeps must not trigger the stop rule.
	minIter = 30
	// stopTol stops training when the relative ELBO improvement stays
	// below it for stopPatience consecutive sweeps, each at the ELBO's
	// running maximum (a bound creeping up from a trough it sank into
	// is not done).
	stopTol      = 1e-5
	stopPatience = 3
	// tauFloor keeps τ² away from zero.
	tauFloor = 1e-3
	// betaSmoothing is the additive smoothing of the language model β.
	betaSmoothing = 0.01
)

// NewConfig returns the default configuration with K latent
// categories.
func NewConfig(k int) Config {
	return Config{K: k, MaxIter: 60, InnerIter: 1, Seed: 1}
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.K < 1:
		return fmt.Errorf("core: K = %d", c.K)
	case c.MaxIter < 1:
		return fmt.Errorf("core: MaxIter = %d", c.MaxIter)
	case c.InnerIter < 1:
		return fmt.Errorf("core: InnerIter = %d", c.InnerIter)
	}
	return nil
}

// covRidge is added to the diagonals of Σ_w and Σ_c each M-step:
// 0.004·K, clamped to [0.02, 0.3]. The empirical-Bayes covariances need
// proportionally more damping as the latent dimension grows past what a
// short task text identifies, or the skill regression overfits.
func (c Config) covRidge() float64 {
	r := 0.004 * float64(c.K)
	if r < 0.02 {
		r = 0.02
	}
	if r > 0.3 {
		r = 0.3
	}
	return r
}

// Model is a trained TDPM: the variational worker posteriors, the
// model parameters ϕ = {μ_w, Σ_w, μ_c, Σ_c, τ, β}, and cached inverses.
type Model struct {
	K int // latent categories
	V int // vocabulary size
	M int // workers

	// LambdaW[i] and NuW2[i] are the variational posterior mean and
	// per-coordinate variance of worker i's skills (q(wᵢ) of §5.1). Once
	// the model has ranked, only UpdateWorkerSkillDrift writes a row:
	// the skill index (skills) bounds the rows it has seen.
	LambdaW []linalg.Vector
	NuW2    []linalg.Vector

	// Model parameters ϕ.
	MuW    linalg.Vector
	SigmaW *linalg.Matrix
	MuC    linalg.Vector
	SigmaC *linalg.Matrix
	Tau2   float64
	// LogBeta is the K×V log language model (rows normalized).
	LogBeta *linalg.Matrix

	// ProjectIters overrides the number of φ/ε/Newton rounds Project runs
	// on a new task (Algorithm 3's nmax); 0 uses the default of 6.
	// Fewer rounds trade projection accuracy for selection latency.
	ProjectIters int

	// Derived state, rebuilt from the parameters above by refreshDerived
	// and never persisted: the covariance inverses and beta, the V×K
	// term-major table exp(LogBeta) whose row v is what Eq. 12 reads of
	// term v. Each is immutable once built and replaced whole, so
	// concurrent projections share it.
	sigmaWInv *linalg.Matrix
	sigmaCInv *linalg.Matrix
	beta      *linalg.Matrix

	// allWorkers is the shared candidate set of every worker [0, M),
	// built lazily for SelectTopK's nil-candidates path so serving does
	// not allocate an M-element slice per selection. Ranking only reads
	// candidates, so sharing one set across goroutines is safe.
	allWorkersOnce sync.Once
	allWorkers     Candidates

	// skills is the block-max index over LambdaW that Eq. 1's top-k
	// prunes with (skillIndex), built by the first ranking that takes it
	// and kept exact by UpdateWorkerSkillDrift, the one writer of a
	// LambdaW row once the model ranks.
	skills atomic.Pointer[skillIndex]
}

// ErrNoData is returned when Train is given nothing to learn from.
var ErrNoData = errors.New("core: no resolved tasks with responses")

// refreshDerived rebuilds the model's derived state — the cached Σ⁻¹
// matrices and the β table — from its parameters. Everything that writes
// SigmaW, SigmaC or LogBeta calls it before the model is read again.
func (m *Model) refreshDerived() error {
	var ok bool
	if m.sigmaWInv, ok = spdInverse(m.SigmaW); !ok {
		return errors.New("core: Σ_w is not symmetric positive definite")
	}
	if m.sigmaCInv, ok = spdInverse(m.SigmaC); !ok {
		return errors.New("core: Σ_c is not symmetric positive definite")
	}
	m.beta = betaTable(m.LogBeta)
	return nil
}

// betaTable returns exp(logBeta) transposed: V×K, one contiguous row per
// term. It is always taken from the stored K×V LogBeta through the
// kernel's exp — never from the counts the M-step normalised — so a node
// that trained the model and one that loaded its checkpoint hold the same
// bits.
func betaTable(logBeta *linalg.Matrix) *linalg.Matrix {
	t := linalg.NewMatrix(logBeta.Cols, logBeta.Rows)
	for kk := 0; kk < logBeta.Rows; kk++ {
		for v, lb := range logBeta.Row(kk) {
			t.Set(v, kk, exp(lb))
		}
	}
	return t
}
