// Package multinomial implements the two Multinomial-skill baselines of
// §7.2.1. TSPM (Topic Sensitive Probabilistic Model, after Guo et al.,
// CIKM 2008, and Zhou et al., CIKM 2012) takes its task categories from
// LDA; DRM (Dual Role Model, after Xu et al., SIGIR 2012) from PLSA,
// with the worker's answerer-role skill. Both make each worker's skill
// a Multinomial over the latent categories — the aggregate category
// mass of the tasks they resolved, normalized to sum to one — and rank
// candidates by the predictive score wᵢ·cⱼ. Scores are deliberately
// ignored: both are content-based.
//
// The normalization Σₖ wᵢₖ = 1 is precisely the property the paper
// criticizes (§1): it makes a prolific worker's skill mass mimic their
// volume rather than their quality, so skills on a specific category
// are not comparable across workers with different activity profiles.
package multinomial

import (
	"fmt"
	"strings"

	"crowdselect/internal/lda"
	"crowdselect/internal/linalg"
	"crowdselect/internal/plsa"
	"crowdselect/internal/randx"
	"crowdselect/internal/rank"
	"crowdselect/internal/text"
)

// Selector is a trained Multinomial-skill baseline.
type Selector struct {
	name   string
	infer  func(text.Bag) linalg.Vector // the task's category distribution
	skills []linalg.Vector              // Multinomial per worker (sums to 1)
}

// TrainTSPM fits LDA on the task texts and aggregates each worker's
// skill from the topic proportions of the tasks they resolved.
func TrainTSPM(bags []text.Bag, respondents [][]int, numWorkers, vocabSize int, cfg lda.Config) (*Selector, error) {
	if err := validate("tspm", bags, respondents, numWorkers); err != nil {
		return nil, err
	}
	model, thetas, err := lda.Train(bags, vocabSize, cfg)
	if err != nil {
		return nil, fmt.Errorf("tspm: %w", err)
	}
	seed := cfg.Seed + 1
	infer := func(bag text.Bag) linalg.Vector { return model.Infer(bag, randx.New(seed)) }
	return train("TSPM", infer, thetas, respondents, numWorkers, cfg.K)
}

// TrainDRM fits PLSA on the task texts and aggregates each worker's
// skill from the aspect distributions of the tasks they resolved.
func TrainDRM(bags []text.Bag, respondents [][]int, numWorkers, vocabSize int, cfg plsa.Config) (*Selector, error) {
	if err := validate("drm", bags, respondents, numWorkers); err != nil {
		return nil, err
	}
	model, pzd, err := plsa.Train(bags, vocabSize, cfg)
	if err != nil {
		return nil, fmt.Errorf("drm: %w", err)
	}
	return train("DRM", model.Infer, pzd, respondents, numWorkers, cfg.K)
}

// validate checks the training inputs before a topic model is fitted.
func validate(prefix string, bags []text.Bag, respondents [][]int, numWorkers int) error {
	if len(bags) != len(respondents) {
		return fmt.Errorf("%s: %d bags but %d respondent lists", prefix, len(bags), len(respondents))
	}
	if numWorkers < 1 {
		return fmt.Errorf("%s: numWorkers = %d", prefix, numWorkers)
	}
	return nil
}

// train aggregates each worker's Multinomial skill over k categories
// from the category distributions cats of the tasks they resolved; an
// idle worker keeps the uniform skill.
func train(name string, infer func(text.Bag) linalg.Vector, cats []linalg.Vector, respondents [][]int, numWorkers, k int) (*Selector, error) {
	skills := make([]linalg.Vector, numWorkers)
	for w := range skills {
		skills[w] = linalg.ConstVector(k, 1/float64(k))
	}
	acc := make([]linalg.Vector, numWorkers)
	for j, workers := range respondents {
		for _, w := range workers {
			if w < 0 || w >= numWorkers {
				return nil, fmt.Errorf("%s: task %d references worker %d of %d", strings.ToLower(name), j, w, numWorkers)
			}
			if acc[w] == nil {
				acc[w] = linalg.NewVector(k)
			}
			acc[w].AddScaledInPlace(1, cats[j])
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
	return &Selector{name: name, infer: infer, skills: skills}, nil
}

// Name identifies the algorithm in reports: "TSPM" or "DRM".
func (s *Selector) Name() string { return s.name }

// Infer returns the task's category distribution under the trained
// topic model.
func (s *Selector) Infer(bag text.Bag) linalg.Vector { return s.infer(bag) }

// Rank orders the candidate workers best first by wᵢ·cⱼ.
func (s *Selector) Rank(bag text.Bag, candidates []int) []int {
	c := s.Infer(bag)
	return rank.RankAll(candidates, func(id int) float64 { return s.skills[id].Dot(c) })
}
