// Package plsa implements Probabilistic Latent Semantic Analysis
// (Hofmann, SIGIR 1999) trained with EM. It is the topic-model
// substrate of the DRM baseline (§7.2.1 of the paper, after Xu et al.,
// SIGIR 2012), which estimates worker skills and task categories with
// PLSA.
package plsa

import (
	"fmt"

	"crowdselect/internal/linalg"
	"crowdselect/internal/randx"
	"crowdselect/internal/text"
)

// Config controls PLSA training.
type Config struct {
	// K is the number of latent aspects.
	K int
	// Iterations is the number of EM sweeps; FoldIterations is used by
	// Infer on new documents.
	Iterations, FoldIterations int
	// Smoothing is added to every count in the M-step to avoid zeros.
	Smoothing float64
	// Seed randomizes the initialization.
	Seed int64
}

// NewConfig returns sensible defaults for K aspects.
func NewConfig(k int) Config {
	return Config{K: k, Iterations: 60, FoldIterations: 30, Smoothing: 1e-3, Seed: 1}
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.K < 1:
		return fmt.Errorf("plsa: K = %d", c.K)
	case c.Iterations < 1 || c.FoldIterations < 1:
		return fmt.Errorf("plsa: iteration counts must be positive")
	case c.Smoothing < 0:
		return fmt.Errorf("plsa: Smoothing = %g", c.Smoothing)
	}
	return nil
}

// Model is a trained PLSA model: the aspect-word distributions.
type Model struct {
	K, V int
	cfg  Config
	// PW is the K×V matrix of p(w|z) (rows sum to 1).
	PW *linalg.Matrix
}

// Train runs EM over the documents and returns the model and the
// per-document aspect distributions p(z|d).
func Train(docs []text.Bag, vocabSize int, cfg Config) (*Model, []linalg.Vector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if vocabSize < 1 {
		return nil, nil, fmt.Errorf("plsa: vocabSize = %d", vocabSize)
	}
	k := cfg.K
	var nTokens float64
	for d, bag := range docs {
		for _, v := range bag.IDs {
			if v < 0 || v >= vocabSize {
				return nil, nil, fmt.Errorf("plsa: doc %d references term %d of %d", d, v, vocabSize)
			}
		}
		nTokens += bag.Total()
	}
	if nTokens == 0 {
		return nil, nil, fmt.Errorf("plsa: no tokens to train on")
	}

	rng := randx.New(cfg.Seed)
	pw := linalg.NewMatrix(k, vocabSize)
	for kk := 0; kk < k; kk++ {
		row := pw.Row(kk)
		var sum float64
		for v := 0; v < vocabSize; v++ {
			row[v] = 0.5 + rng.Float64()
			sum += row[v]
		}
		row.ScaleInPlace(1 / sum)
	}
	pzd := make([]linalg.Vector, len(docs))
	for d := range docs {
		pzd[d] = rng.SymmetricDirichlet(k, 1)
	}

	post := make(linalg.Vector, k)
	for it := 0; it < cfg.Iterations; it++ {
		nextPW := linalg.NewMatrix(k, vocabSize)
		for d, bag := range docs {
			nextPZ := linalg.NewVector(k)
			for p, v := range bag.IDs {
				cnt := bag.Counts[p]
				// E-step: p(z|d,w) ∝ p(z|d)·p(w|z).
				var sum float64
				for kk := 0; kk < k; kk++ {
					post[kk] = pzd[d][kk] * pw.At(kk, v)
					sum += post[kk]
				}
				if sum <= 0 {
					continue
				}
				for kk := 0; kk < k; kk++ {
					r := cnt * post[kk] / sum
					nextPW.AddAt(kk, v, r)
					nextPZ[kk] += r
				}
			}
			// M-step for p(z|d).
			total := nextPZ.Sum() + float64(k)*cfg.Smoothing
			for kk := 0; kk < k; kk++ {
				pzd[d][kk] = (nextPZ[kk] + cfg.Smoothing) / total
			}
		}
		// M-step for p(w|z).
		for kk := 0; kk < k; kk++ {
			row := nextPW.Row(kk)
			var sum float64
			for v := 0; v < vocabSize; v++ {
				row[v] += cfg.Smoothing
				sum += row[v]
			}
			row.ScaleInPlace(1 / sum)
		}
		pw = nextPW
	}
	return &Model{K: k, V: vocabSize, cfg: cfg, PW: pw}, pzd, nil
}

// Infer folds a new document in by EM over p(z|d) with p(w|z) fixed
// and returns its aspect distribution. Unknown terms are skipped; a
// document with no known terms returns the uniform distribution.
func (m *Model) Infer(doc text.Bag) linalg.Vector {
	k := m.K
	pz := linalg.ConstVector(k, 1/float64(k))
	ids := make([]int, 0, len(doc.IDs))
	counts := make([]float64, 0, len(doc.IDs))
	for p, v := range doc.IDs {
		if v >= 0 && v < m.V {
			ids = append(ids, v)
			counts = append(counts, doc.Counts[p])
		}
	}
	if len(ids) == 0 {
		return pz
	}
	post := make(linalg.Vector, k)
	for it := 0; it < m.cfg.FoldIterations; it++ {
		next := linalg.NewVector(k)
		for p, v := range ids {
			var sum float64
			for kk := 0; kk < k; kk++ {
				post[kk] = pz[kk] * m.PW.At(kk, v)
				sum += post[kk]
			}
			if sum <= 0 {
				continue
			}
			for kk := 0; kk < k; kk++ {
				next[kk] += counts[p] * post[kk] / sum
			}
		}
		total := next.Sum() + float64(k)*m.cfg.Smoothing
		for kk := 0; kk < k; kk++ {
			pz[kk] = (next[kk] + m.cfg.Smoothing) / total
		}
	}
	return pz
}
