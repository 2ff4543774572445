// Package randx provides the deterministic random sampling used by the
// generative process of the paper (Algorithm 1) and by the incremental
// selection algorithm (Algorithm 3, line 6): Normal, diagonal
// multivariate Normal, Gamma, Beta, Dirichlet, Poisson and categorical
// draws, all driven by an explicitly seeded source so that corpora and
// experiments are reproducible run to run.
package randx

import (
	"fmt"
	"math"
	"math/rand"

	"crowdselect/internal/linalg"
)

// RNG wraps a seeded math/rand source with the distribution samplers
// the models need. It is not safe for concurrent use; create one RNG
// per goroutine.
type RNG struct {
	src *rand.Rand
}

// New returns an RNG seeded with seed.
func New(seed int64) *RNG {
	return &RNG{src: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform draw in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// Intn returns a uniform draw in [0, n).
func (r *RNG) Intn(n int) int { return r.src.Intn(n) }

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// Shuffle randomizes the order of n elements via swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// Normal returns a draw from Normal(mu, sigma²). sigma must be ≥ 0.
func (r *RNG) Normal(mu, sigma float64) float64 {
	if sigma < 0 {
		panic(fmt.Sprintf("randx: Normal with sigma %g < 0", sigma))
	}
	return mu + sigma*r.src.NormFloat64()
}

// NormalVecDiag returns a draw from Normal(mu, diag(sigma²)), i.e.
// independent per-coordinate Gaussians — the variational posterior
// family of §5.1 of the paper.
func (r *RNG) NormalVecDiag(mu, sigma linalg.Vector) linalg.Vector {
	if len(mu) != len(sigma) {
		panic(fmt.Sprintf("randx: NormalVecDiag with lens %d, %d", len(mu), len(sigma)))
	}
	v := make(linalg.Vector, len(mu))
	for i := range v {
		v[i] = r.Normal(mu[i], sigma[i])
	}
	return v
}

// Gamma returns a draw from Gamma(shape, scale) using the
// Marsaglia–Tsang squeeze method (with the standard boost for
// shape < 1).
func (r *RNG) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic(fmt.Sprintf("randx: Gamma(%g, %g) requires positive parameters", shape, scale))
	}
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) · U^{1/a}
		u := r.src.Float64()
		for u == 0 {
			u = r.src.Float64()
		}
		return r.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.src.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.src.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Beta returns a draw from Beta(a, b).
func (r *RNG) Beta(a, b float64) float64 {
	x := r.Gamma(a, 1)
	y := r.Gamma(b, 1)
	return x / (x + y)
}

// Dirichlet returns a draw from Dirichlet(alpha). The result sums to 1.
func (r *RNG) Dirichlet(alpha linalg.Vector) linalg.Vector {
	v := make(linalg.Vector, len(alpha))
	var sum float64
	for i, a := range alpha {
		v[i] = r.Gamma(a, 1)
		sum += v[i]
	}
	if sum == 0 {
		// All-gamma-zero underflow: fall back to uniform.
		for i := range v {
			v[i] = 1 / float64(len(v))
		}
		return v
	}
	for i := range v {
		v[i] /= sum
	}
	return v
}

// SymmetricDirichlet returns a draw from Dirichlet(alpha·1) in n
// dimensions.
func (r *RNG) SymmetricDirichlet(n int, alpha float64) linalg.Vector {
	return r.Dirichlet(linalg.ConstVector(n, alpha))
}

// Poisson returns a draw from Poisson(lambda) (Knuth's method for
// small lambda, normal approximation with continuity correction above
// 30 — adequate for document-length sampling).
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		n := int(math.Round(r.Normal(lambda, math.Sqrt(lambda))))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= r.src.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Categorical returns an index drawn with probability proportional to
// weights (which need not be normalized; negative weights are treated
// as zero). It panics if all weights are non-positive.
func (r *RNG) Categorical(weights linalg.Vector) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("randx: Categorical with no positive weight")
	}
	u := r.src.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		u -= w
		if u < 0 {
			return i
		}
	}
	return len(weights) - 1 // guard against floating-point drift
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool { return r.src.Float64() < p }
