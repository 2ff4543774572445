// Package drm implements the Dual Role Model baseline of §7.2.1
// (after Xu et al., SIGIR 2012): task categories come from PLSA
// (probabilistic latent semantic analysis), and each worker's
// answerer-role skill is a Multinomial over latent aspects — the
// aggregate aspect mass of the tasks they resolved, normalized to one.
// Selection ranks candidates by the predictive score wᵢ·cⱼ.
//
// Like TSPM, the Multinomial normalization ties a worker's per-aspect
// skill to their activity volume, which is the weakness the paper's
// TDPM removes.
package drm

import (
	"fmt"

	"crowdselect/internal/linalg"
	"crowdselect/internal/plsa"
	"crowdselect/internal/rank"
	"crowdselect/internal/text"
)

// Selector is a trained DRM baseline.
type Selector struct {
	model  *plsa.Model
	skills []linalg.Vector // Multinomial per worker (sums to 1)
}

// Train fits PLSA on the task texts and aggregates each worker's
// Multinomial skill from the aspect distributions of the tasks they
// resolved. Scores are deliberately ignored: DRM is content-based.
func Train(bags []text.Bag, respondents [][]int, numWorkers, vocabSize int, cfg plsa.Config) (*Selector, error) {
	if len(bags) != len(respondents) {
		return nil, fmt.Errorf("drm: %d bags but %d respondent lists", len(bags), len(respondents))
	}
	if numWorkers < 1 {
		return nil, fmt.Errorf("drm: numWorkers = %d", numWorkers)
	}
	model, pzd, err := plsa.Train(bags, vocabSize, cfg)
	if err != nil {
		return nil, fmt.Errorf("drm: %w", err)
	}
	skills := make([]linalg.Vector, numWorkers)
	for w := range skills {
		skills[w] = linalg.ConstVector(cfg.K, 1/float64(cfg.K))
	}
	acc := make([]linalg.Vector, numWorkers)
	for j, workers := range respondents {
		for _, w := range workers {
			if w < 0 || w >= numWorkers {
				return nil, fmt.Errorf("drm: task %d references worker %d of %d", j, w, numWorkers)
			}
			if acc[w] == nil {
				acc[w] = linalg.NewVector(cfg.K)
			}
			acc[w].AddScaledInPlace(1, pzd[j])
		}
	}
	for w, a := range acc {
		if a == nil {
			continue
		}
		if total := a.Sum(); total > 0 {
			skills[w] = a.Scale(1 / total)
		}
	}
	return &Selector{model: model, skills: skills}, nil
}

// Name identifies the algorithm in reports.
func (s *Selector) Name() string { return "DRM" }

// Infer returns the task's aspect distribution under the trained PLSA.
func (s *Selector) Infer(bag text.Bag) linalg.Vector {
	return s.model.Infer(bag)
}

// Rank orders the candidate workers best first by wᵢ·cⱼ.
func (s *Selector) Rank(bag text.Bag, candidates []int) []int {
	c := s.Infer(bag)
	return rank.RankAll(candidates, func(id int) float64 { return s.skills[id].Dot(c) })
}
