// Package lda implements Latent Dirichlet Allocation with collapsed
// Gibbs sampling. It is the topic-model substrate of the TSPM baseline
// (§7.2.1 of the paper, after Zhou et al., CIKM 2012): TSPM estimates
// worker skills and task categories with LDA, in contrast to TDPM's
// logistic-Normal model.
package lda

import (
	"fmt"

	"crowdselect/internal/linalg"
	"crowdselect/internal/randx"
	"crowdselect/internal/text"
)

// Config controls LDA training.
type Config struct {
	// K is the number of topics.
	K int
	// Burn is the number of Gibbs sweeps.
	Burn int
	// Seed drives the sampler.
	Seed int64
}

// The sampler's fixed settings. alpha and beta are the symmetric
// Dirichlet hyperparameters of the document-topic and topic-word
// distributions; alpha is small because crowdsourced tasks are short
// documents: a large smoothing mass would drown the handful of observed
// tokens. inferSweeps is the number of fold-in sweeps Infer runs.
const (
	alpha       = 0.1
	beta        = 0.01
	inferSweeps = 24
)

// NewConfig returns sensible defaults for K topics.
func NewConfig(k int) Config {
	return Config{K: k, Burn: 120, Seed: 1}
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.K < 1:
		return fmt.Errorf("lda: K = %d", c.K)
	case c.Burn < 1:
		return fmt.Errorf("lda: Burn = %d", c.Burn)
	}
	return nil
}

// Model is a trained LDA topic model.
type Model struct {
	K, V int
	// Phi is the K×V topic-word matrix (rows sum to 1).
	Phi *linalg.Matrix
}

// Train runs collapsed Gibbs sampling over the documents and returns
// the model plus the per-document topic proportions θ.
func Train(docs []text.Bag, vocabSize int, cfg Config) (*Model, []linalg.Vector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if vocabSize < 1 {
		return nil, nil, fmt.Errorf("lda: vocabSize = %d", vocabSize)
	}
	k := cfg.K
	// Expand bags to token streams.
	type tokenDoc struct {
		words  []int
		topics []int
	}
	tdocs := make([]tokenDoc, len(docs))
	nTokens := 0
	for d, bag := range docs {
		for p, v := range bag.IDs {
			if v < 0 || v >= vocabSize {
				return nil, nil, fmt.Errorf("lda: doc %d references term %d of %d", d, v, vocabSize)
			}
			for c := 0; c < int(bag.Counts[p]); c++ {
				tdocs[d].words = append(tdocs[d].words, v)
			}
		}
		tdocs[d].topics = make([]int, len(tdocs[d].words))
		nTokens += len(tdocs[d].words)
	}
	if nTokens == 0 {
		return nil, nil, fmt.Errorf("lda: no tokens to train on")
	}

	rng := randx.New(cfg.Seed)
	ndk := linalg.NewMatrix(len(docs), k) // doc-topic counts
	nkv := linalg.NewMatrix(k, vocabSize) // topic-word counts
	nk := linalg.NewVector(k)             // topic totals
	for d := range tdocs {
		for p, w := range tdocs[d].words {
			z := rng.Intn(k)
			tdocs[d].topics[p] = z
			ndk.AddAt(d, z, 1)
			nkv.AddAt(z, w, 1)
			nk[z]++
		}
	}

	vBeta := float64(vocabSize) * beta
	weights := make(linalg.Vector, k)
	for sweep := 0; sweep < cfg.Burn; sweep++ {
		for d := range tdocs {
			doc := &tdocs[d]
			drow := ndk.Row(d)
			for p, w := range doc.words {
				z := doc.topics[p]
				drow[z]--
				nkv.AddAt(z, w, -1)
				nk[z]--
				for kk := 0; kk < k; kk++ {
					weights[kk] = (drow[kk] + alpha) * (nkv.At(kk, w) + beta) / (nk[kk] + vBeta)
				}
				z = rng.Categorical(weights)
				doc.topics[p] = z
				drow[z]++
				nkv.AddAt(z, w, 1)
				nk[z]++
			}
		}
	}

	m := &Model{K: k, V: vocabSize, Phi: linalg.NewMatrix(k, vocabSize)}
	for kk := 0; kk < k; kk++ {
		row := m.Phi.Row(kk)
		for v := 0; v < vocabSize; v++ {
			row[v] = (nkv.At(kk, v) + beta) / (nk[kk] + vBeta)
		}
	}
	thetas := make([]linalg.Vector, len(docs))
	for d := range tdocs {
		thetas[d] = thetaOf(ndk.Row(d), alpha)
	}
	return m, thetas, nil
}

// Infer folds a new document into the trained topics with Gibbs
// sweeps over its tokens (Φ held fixed) and returns its topic
// proportions. Out-of-vocabulary terms are skipped; a document with no
// known terms returns the uniform distribution.
func (m *Model) Infer(doc text.Bag, rng *randx.RNG) linalg.Vector {
	k := m.K
	var words []int
	for p, v := range doc.IDs {
		if v < 0 || v >= m.V {
			continue
		}
		for c := 0; c < int(doc.Counts[p]); c++ {
			words = append(words, v)
		}
	}
	counts := linalg.NewVector(k)
	if len(words) == 0 {
		return thetaOf(counts, alpha)
	}
	topics := make([]int, len(words))
	for p := range words {
		z := rng.Intn(k)
		topics[p] = z
		counts[z]++
	}
	weights := make(linalg.Vector, k)
	for sweep := 0; sweep < inferSweeps; sweep++ {
		for p, w := range words {
			z := topics[p]
			counts[z]--
			for kk := 0; kk < k; kk++ {
				weights[kk] = (counts[kk] + alpha) * m.Phi.At(kk, w)
			}
			z = rng.Categorical(weights)
			topics[p] = z
			counts[z]++
		}
	}
	return thetaOf(counts, alpha)
}

// thetaOf normalizes topic counts with the Dirichlet prior.
func thetaOf(counts linalg.Vector, alpha float64) linalg.Vector {
	k := len(counts)
	theta := make(linalg.Vector, k)
	total := counts.Sum() + float64(k)*alpha
	for kk := range theta {
		theta[kk] = (counts[kk] + alpha) / total
	}
	return theta
}
