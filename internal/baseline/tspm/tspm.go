// Package tspm implements the Topic Sensitive Probabilistic Model
// baseline of §7.2.1 (after Guo et al., CIKM 2008, and Zhou et al.,
// CIKM 2012): task categories come from LDA, and each worker's skill
// is a Multinomial distribution over topics — the aggregate topic mass
// of the tasks they resolved, normalized to sum to one. Selection
// ranks candidates by the predictive score wᵢ·cⱼ.
//
// The normalization Σₖ wᵢₖ = 1 is precisely the property the paper
// criticizes (§1): it makes a prolific worker's skill mass mimic their
// volume rather than their quality, so skills on a specific category
// are not comparable across workers with different activity profiles.
package tspm

import (
	"fmt"

	"crowdselect/internal/lda"
	"crowdselect/internal/linalg"
	"crowdselect/internal/randx"
	"crowdselect/internal/rank"
	"crowdselect/internal/text"
)

// Selector is a trained TSPM baseline.
type Selector struct {
	model  *lda.Model
	skills []linalg.Vector // Multinomial per worker (sums to 1)
	seed   int64
}

// Train fits LDA on the task texts and aggregates each worker's
// Multinomial skill from the topic proportions of the tasks they
// resolved. Scores are deliberately ignored: TSPM is content-based.
func Train(bags []text.Bag, respondents [][]int, numWorkers, vocabSize int, cfg lda.Config) (*Selector, error) {
	if len(bags) != len(respondents) {
		return nil, fmt.Errorf("tspm: %d bags but %d respondent lists", len(bags), len(respondents))
	}
	if numWorkers < 1 {
		return nil, fmt.Errorf("tspm: numWorkers = %d", numWorkers)
	}
	model, thetas, err := lda.Train(bags, vocabSize, cfg)
	if err != nil {
		return nil, fmt.Errorf("tspm: %w", err)
	}
	skills := make([]linalg.Vector, numWorkers)
	for w := range skills {
		skills[w] = linalg.ConstVector(cfg.K, 1/float64(cfg.K))
	}
	acc := make([]linalg.Vector, numWorkers)
	for j, workers := range respondents {
		for _, w := range workers {
			if w < 0 || w >= numWorkers {
				return nil, fmt.Errorf("tspm: task %d references worker %d of %d", j, w, numWorkers)
			}
			if acc[w] == nil {
				acc[w] = linalg.NewVector(cfg.K)
			}
			acc[w].AddScaledInPlace(1, thetas[j])
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
	return &Selector{model: model, skills: skills, seed: cfg.Seed + 1}, nil
}

// Name identifies the algorithm in reports.
func (s *Selector) Name() string { return "TSPM" }

// Infer returns the task's topic proportions under the trained LDA.
func (s *Selector) Infer(bag text.Bag) linalg.Vector {
	return s.model.Infer(bag, randx.New(s.seed))
}

// Rank orders the candidate workers best first by wᵢ·cⱼ.
func (s *Selector) Rank(bag text.Bag, candidates []int) []int {
	c := s.Infer(bag)
	return rank.RankAll(candidates, func(id int) float64 { return s.skills[id].Dot(c) })
}
