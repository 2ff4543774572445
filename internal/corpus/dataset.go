package corpus

import (
	"fmt"

	"crowdselect/internal/linalg"
	"crowdselect/internal/text"
)

// Response records one worker's job on a task and its feedback score —
// one (aᵢⱼ = 1, sᵢⱼ) entry of the paper's assignment and score
// matrices (§4.1.4–4.1.5).
type Response struct {
	// Worker indexes Dataset.Workers.
	Worker int `json:"worker"`
	// Score is the feedback score sᵢⱼ.
	Score float64 `json:"score"`
	// Best marks the ground-truth "right worker" for the task (the
	// best answerer on Yahoo, the top-scored answerer elsewhere).
	Best bool `json:"best,omitempty"`
	// AnswerTokens is the simulated answer text (present only for
	// BestAnswer-feedback datasets, where Jaccard feedback needs it).
	AnswerTokens []string `json:"answer_tokens,omitempty"`
}

// Task is one crowdsourced task: its text (bag of vocabularies,
// §4.1.1) and the responses it received.
type Task struct {
	// ID is the task's index in Dataset.Tasks.
	ID int `json:"id"`
	// Tokens is the generated task text.
	Tokens []string `json:"tokens"`
	// Responses are the workers who solved the task, with feedback.
	Responses []Response `json:"responses"`
	// TrueMix is the hidden ground-truth category mixture cⱼ (kept for
	// diagnostics and model-recovery tests; algorithms must not read it).
	TrueMix linalg.Vector `json:"true_mix,omitempty"`

	bag    text.Bag
	hasBag bool
}

// Bag returns the task's bag-of-vocabularies over v, caching the
// result.
func (t *Task) Bag(v *text.Vocabulary) text.Bag {
	if !t.hasBag {
		t.bag = text.NewBagKnown(v, t.Tokens)
		t.hasBag = true
	}
	return t.bag
}

// BestWorker returns the ground-truth right worker for the task and
// false when the task has no responses.
func (t *Task) BestWorker() (int, bool) {
	for _, r := range t.Responses {
		if r.Best {
			return r.Worker, true
		}
	}
	return 0, false
}

// Worker is a crowd worker with hidden ground truth.
type Worker struct {
	// ID is the worker's index in Dataset.Workers.
	ID int `json:"id"`
	// TrueSkill is the hidden ground-truth skill vector wᵢ over the
	// generator's categories (diagnostics only).
	TrueSkill linalg.Vector `json:"true_skill,omitempty"`
	// Activity is the hidden sampling weight that drove assignment.
	Activity float64 `json:"activity,omitempty"`
	// TaskCount is the number of tasks the worker answered.
	TaskCount int `json:"task_count"`
}

// Dataset is a fully generated synthetic platform.
type Dataset struct {
	// Profile records the generation parameters.
	Profile Profile `json:"profile"`
	// Vocab interns every term used by tasks and answers.
	Vocab *text.Vocabulary `json:"-"`
	// VocabTerms carries the vocabulary through JSON (id order).
	VocabTerms []string `json:"vocab_terms"`
	// Workers and Tasks are the populations.
	Workers []Worker `json:"workers"`
	Tasks   []*Task  `json:"tasks"`
}

// Stats summarizes a dataset the way Table 2 of the paper does.
type Stats struct {
	Name         string
	Tasks        int
	Workers      int // workers who answered ≥ 1 task
	Answers      int
	MeanAnswers  float64
	VocabSize    int
	MeanTaskLen  float64
	MaxTaskCount int
}

// Stats computes Table 2-style statistics.
func (d *Dataset) Stats() Stats {
	s := Stats{Name: d.Profile.Name, Tasks: len(d.Tasks), VocabSize: d.Vocab.Size()}
	var tokens int
	for _, t := range d.Tasks {
		s.Answers += len(t.Responses)
		tokens += len(t.Tokens)
	}
	for _, w := range d.Workers {
		if w.TaskCount > 0 {
			s.Workers++
		}
		if w.TaskCount > s.MaxTaskCount {
			s.MaxTaskCount = w.TaskCount
		}
	}
	if len(d.Tasks) > 0 {
		s.MeanAnswers = float64(s.Answers) / float64(len(d.Tasks))
		s.MeanTaskLen = float64(tokens) / float64(len(d.Tasks))
	}
	return s
}

// String renders the stats as one Table 2-style row.
func (s Stats) String() string {
	return fmt.Sprintf("%-14s tasks=%-7d users=%-6d answers=%-7d answers/task=%.2f vocab=%d",
		s.Name, s.Tasks, s.Workers, s.Answers, s.MeanAnswers, s.VocabSize)
}

// Validate checks referential integrity: every response points at a
// live worker, scores are finite, and every task with responses has
// exactly one Best marker.
func (d *Dataset) Validate() error {
	for _, t := range d.Tasks {
		best := 0
		for _, r := range t.Responses {
			if r.Worker < 0 || r.Worker >= len(d.Workers) {
				return fmt.Errorf("corpus: task %d references worker %d of %d", t.ID, r.Worker, len(d.Workers))
			}
			if r.Score < 0 || r.Score != r.Score {
				return fmt.Errorf("corpus: task %d worker %d has score %g", t.ID, r.Worker, r.Score)
			}
			if r.Best {
				best++
			}
		}
		if len(t.Responses) > 0 && best != 1 {
			return fmt.Errorf("corpus: task %d has %d best markers", t.ID, best)
		}
	}
	return nil
}
