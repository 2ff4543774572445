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
	// MaxIter bounds the variational EM sweeps (Algorithm 2's nmax);
	// MinIter floors them — the coupled skill/category ramp routinely
	// plateaus in ELBO mid-training while selection quality is still
	// improving, so early sweeps must not trigger the stop rule.
	MaxIter int
	MinIter int
	// Tol stops when the relative ELBO improvement stays below it for
	// Patience consecutive sweeps, each at the ELBO's running maximum
	// (a bound creeping up from a trough it sank into is not done).
	Tol      float64
	Patience int
	// InnerIter is the number of φ/ε/CG rounds per task per sweep.
	InnerIter int
	// CGIter bounds the conjugate-gradient iterations of each λc/νc
	// update (§5.2).
	CGIter int
	// ProjectInner is the number of φ/ε/CG rounds when projecting a
	// new task (Algorithm 3's nmax).
	ProjectInner int
	// TauFloor keeps τ² away from zero.
	TauFloor float64
	// CovRidge is added to the diagonals of Σ_w and Σ_c each M-step.
	// 0 selects the automatic setting 0.004·K (clamped to
	// [0.02, 0.3]): the empirical-Bayes covariances need proportionally
	// more damping as the latent dimension grows past what a short
	// task text identifies, or the skill regression overfits.
	CovRidge float64
	// BetaSmoothing is the additive smoothing of the language model β.
	BetaSmoothing float64
	// DiagonalCov constrains Σ_w and Σ_c to diagonal matrices — the
	// independent-skills special case the paper notes under Eq. 2
	// ("a special way is to assume the independence of skills on
	// latent categories; in that case, Σ_w is a diagonal matrix").
	DiagonalCov bool
	// Parallelism bounds the goroutines used for the per-task and
	// per-worker E-step updates (they are independent given the model
	// parameters, so parallel and sequential runs produce identical
	// results). ≤ 1 runs sequentially; 0 is treated as 1.
	Parallelism int
	// Seed initializes β and the variational state.
	Seed int64
}

// NewConfig returns the default configuration with K latent
// categories.
func NewConfig(k int) Config {
	return Config{
		K:             k,
		MaxIter:       60,
		MinIter:       30,
		Tol:           1e-5,
		Patience:      3,
		InnerIter:     1,
		CGIter:        12,
		ProjectInner:  8,
		TauFloor:      1e-3,
		CovRidge:      0, // automatic: 0.004·K
		BetaSmoothing: 0.01,
		Seed:          1,
	}
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.K < 1:
		return fmt.Errorf("core: K = %d", c.K)
	case c.MaxIter < 1:
		return fmt.Errorf("core: MaxIter = %d", c.MaxIter)
	case c.MinIter < 0:
		return fmt.Errorf("core: MinIter = %d", c.MinIter)
	case c.Patience < 0:
		return fmt.Errorf("core: Patience = %d", c.Patience)
	case c.InnerIter < 1 || c.CGIter < 1 || c.ProjectInner < 1:
		return fmt.Errorf("core: iteration counts must be positive")
	case c.TauFloor <= 0 || c.CovRidge < 0 || c.BetaSmoothing < 0:
		return fmt.Errorf("core: invalid regularization")
	}
	return nil
}

// effCovRidge resolves the automatic covariance ridge.
func (c Config) effCovRidge() float64 {
	if c.CovRidge > 0 {
		return c.CovRidge
	}
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
	// per-coordinate variance of worker i's skills (q(wᵢ) of §5.1).
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

	// ProjectIters overrides the number of φ/ε/CG rounds Project runs
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

	// allWorkers is the shared identity candidate slice [0, M), built
	// lazily for SelectTopK's nil-candidates path so serving does not
	// allocate an M-element slice per selection. rank.TopK only reads
	// candidates, so sharing one slice across goroutines is safe.
	allWorkersOnce sync.Once
	allWorkers     []int
}

// ErrNoData is returned when Train is given nothing to learn from.
var ErrNoData = errors.New("core: no resolved tasks with responses")

// refreshDerived rebuilds the model's derived state — the cached Σ⁻¹
// matrices and the β table — from its parameters. Everything that writes
// SigmaW, SigmaC or LogBeta calls it before the model is read again.
func (m *Model) refreshDerived() error {
	var err error
	if m.sigmaWInv, err = linalg.SPDInverse(m.SigmaW); err != nil {
		return fmt.Errorf("core: Σ_w not invertible: %w", err)
	}
	if m.sigmaCInv, err = linalg.SPDInverse(m.SigmaC); err != nil {
		return fmt.Errorf("core: Σ_c not invertible: %w", err)
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
