// Package vsm implements the Vector Space Model baseline of §7.2.1:
// workers are ranked by the cosine similarity between the incoming
// task and the union bag of the tasks they resolved historically,
//
//	sᵢⱼ = tⱼ·tᵢ_w / (‖tⱼ‖·‖tᵢ_w‖),   tᵢ_w = ∪_{j: aᵢⱼ=1} tⱼ.
package vsm

import (
	"fmt"
	"math"

	"crowdselect/internal/rank"
	"crowdselect/internal/text"
)

// Selector ranks workers by cosine similarity to their task history.
type Selector struct {
	histories []text.Bag
	idf       []float64 // nil for raw term counts
	name      string
}

// Train builds per-worker history bags. bags[j] is task j's bag and
// respondents[j] the workers who resolved it.
func Train(bags []text.Bag, respondents [][]int, numWorkers int) (*Selector, error) {
	return train(bags, respondents, numWorkers, false)
}

// TrainTFIDF builds the TF-IDF-weighted variant: term counts are
// re-weighted by log(N/df) on both the task and the history side
// before the cosine. The paper's VSM uses raw counts; this variant is
// an ablation (BenchmarkAblationVSMWeighting) probing how much of
// VSM's gap is representational.
func TrainTFIDF(bags []text.Bag, respondents [][]int, numWorkers int) (*Selector, error) {
	return train(bags, respondents, numWorkers, true)
}

func train(bags []text.Bag, respondents [][]int, numWorkers int, tfidf bool) (*Selector, error) {
	if len(bags) != len(respondents) {
		return nil, fmt.Errorf("vsm: %d bags but %d respondent lists", len(bags), len(respondents))
	}
	if numWorkers < 1 {
		return nil, fmt.Errorf("vsm: numWorkers = %d", numWorkers)
	}
	counts := make([]map[int]float64, numWorkers)
	maxTerm := -1
	df := map[int]int{}
	for j, bag := range bags {
		for _, id := range bag.IDs {
			df[id]++
			if id > maxTerm {
				maxTerm = id
			}
		}
		for _, w := range respondents[j] {
			if w < 0 || w >= numWorkers {
				return nil, fmt.Errorf("vsm: task %d references worker %d of %d", j, w, numWorkers)
			}
			if counts[w] == nil {
				counts[w] = make(map[int]float64)
			}
			for p, id := range bag.IDs {
				counts[w][id] += bag.Counts[p]
			}
		}
	}
	s := &Selector{histories: make([]text.Bag, numWorkers), name: "VSM"}
	if tfidf {
		s.name = "VSM-TFIDF"
		s.idf = make([]float64, maxTerm+1)
		n := float64(len(bags))
		for id, d := range df {
			s.idf[id] = math.Log(1 + n/float64(d))
		}
	}
	for w, c := range counts {
		if c != nil {
			s.histories[w] = s.weight(text.BagFromCounts(c))
		}
	}
	return s, nil
}

// weight applies the selector's term weighting to a bag (identity for
// the raw-count variant).
func (s *Selector) weight(b text.Bag) text.Bag {
	if s.idf == nil {
		return b
	}
	out := text.Bag{IDs: append([]int(nil), b.IDs...), Counts: make([]float64, len(b.Counts))}
	for p, id := range b.IDs {
		w := 0.0
		if id < len(s.idf) {
			w = s.idf[id]
		}
		out.Counts[p] = b.Counts[p] * w
	}
	return out
}

// Name identifies the algorithm in reports.
func (s *Selector) Name() string { return s.name }

// Score returns the cosine similarity between the task and worker w's
// history (0 for workers with no history).
func (s *Selector) Score(w int, bag text.Bag) float64 {
	return s.weight(bag).Cosine(s.histories[w])
}

// Rank orders the candidate workers best first for the task.
func (s *Selector) Rank(bag text.Bag, candidates []int) []int {
	return rank.RankAll(candidates, func(id int) float64 { return s.Score(id, bag) })
}
