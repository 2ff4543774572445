package multinomial

import (
	"math"
	"testing"

	"crowdselect/internal/lda"
	"crowdselect/internal/plsa"
	"crowdselect/internal/text"
)

// baselines trains each Multinomial-skill baseline with K = 2.
var baselines = []struct {
	name  string
	train func(bags []text.Bag, respondents [][]int, numWorkers, vocab int) (*Selector, error)
}{
	{"TSPM", func(bags []text.Bag, respondents [][]int, numWorkers, vocab int) (*Selector, error) {
		return TrainTSPM(bags, respondents, numWorkers, vocab, lda.NewConfig(2))
	}},
	{"DRM", func(bags []text.Bag, respondents [][]int, numWorkers, vocab int) (*Selector, error) {
		return TrainDRM(bags, respondents, numWorkers, vocab, plsa.NewConfig(2))
	}},
}

// fixture: two disjoint topic vocabularies; worker 0 answers topic-A
// tasks, worker 1 topic-B tasks, worker 2 a few of both.
func fixture() (bags []text.Bag, respondents [][]int, vocab int) {
	a := text.BagFromCounts(map[int]float64{0: 3, 1: 2, 2: 2})
	b := text.BagFromCounts(map[int]float64{5: 3, 6: 2, 7: 2})
	for i := 0; i < 20; i++ {
		bags = append(bags, a, b)
		ra := []int{0}
		rb := []int{1}
		if i%5 == 0 {
			ra = append(ra, 2)
			rb = append(rb, 2)
		}
		respondents = append(respondents, ra, rb)
	}
	return bags, respondents, 10
}

func TestTrainValidation(t *testing.T) {
	bags, resp, v := fixture()
	for _, b := range baselines {
		t.Run(b.name, func(t *testing.T) {
			if _, err := b.train(bags, resp[:3], 3, v); err == nil {
				t.Error("mismatched lengths accepted")
			}
			if _, err := b.train(bags, resp, 0, v); err == nil {
				t.Error("zero workers accepted")
			}
			if _, err := b.train(bags, [][]int{{77}}, 3, v); err == nil {
				t.Error("dangling worker accepted")
			}
		})
	}
}

func TestSkillsAreMultinomial(t *testing.T) {
	bags, resp, v := fixture()
	for _, b := range baselines {
		t.Run(b.name, func(t *testing.T) {
			s, err := b.train(bags, resp, 4, v) // worker 3 idle
			if err != nil {
				t.Fatal(err)
			}
			for w, skill := range s.skills {
				if math.Abs(skill.Sum()-1) > 1e-9 {
					t.Errorf("worker %d skill sums to %v", w, skill.Sum())
				}
				for _, x := range skill {
					if x < 0 {
						t.Errorf("worker %d has negative skill %v", w, x)
					}
				}
			}
			// Idle workers carry the uniform skill.
			if math.Abs(s.skills[3][0]-0.5) > 1e-9 {
				t.Errorf("idle worker skill = %v, want uniform", s.skills[3])
			}
		})
	}
}

func TestRankRoutesByTopic(t *testing.T) {
	bags, resp, v := fixture()
	for _, b := range baselines {
		t.Run(b.name, func(t *testing.T) {
			s, err := b.train(bags, resp, 3, v)
			if err != nil {
				t.Fatal(err)
			}
			if s.Name() != b.name {
				t.Errorf("Name = %q", s.Name())
			}
			taskA := text.BagFromCounts(map[int]float64{0: 2, 2: 1})
			if got := s.Rank(taskA, []int{0, 1}); got[0] != 0 {
				t.Errorf("topic-A task ranked %v, want worker 0 first", got)
			}
			taskB := text.BagFromCounts(map[int]float64{5: 2, 7: 1})
			if got := s.Rank(taskB, []int{0, 1}); got[0] != 1 {
				t.Errorf("topic-B task ranked %v, want worker 1 first", got)
			}
		})
	}
}

func TestRankDeterministic(t *testing.T) {
	bags, resp, v := fixture()
	for _, b := range baselines {
		t.Run(b.name, func(t *testing.T) {
			s, err := b.train(bags, resp, 3, v)
			if err != nil {
				t.Fatal(err)
			}
			task := text.BagFromCounts(map[int]float64{0: 1, 5: 1})
			if r1, r2 := s.Rank(task, []int{0, 1}), s.Rank(task, []int{0, 1}); r1[0] != r2[0] || r1[1] != r2[1] {
				t.Error("Rank not deterministic")
			}
		})
	}
}

// The multinomial normalization is the flaw the paper targets: a
// worker who answers a category *exclusively* carries full skill mass
// on it and outranks a genuinely stronger generalist, regardless of
// feedback quality. Pin that behaviour so the contrast with TDPM in
// the experiments is meaningful.
func TestMultinomialSkillIgnoresQuality(t *testing.T) {
	a := text.BagFromCounts(map[int]float64{0: 3, 1: 2})
	bb := text.BagFromCounts(map[int]float64{5: 3, 6: 2})
	var bags []text.Bag
	var resp [][]int
	for i := 0; i < 20; i++ {
		// Worker 0 answers only topic-A; worker 1 answers A and B
		// equally often.
		bags = append(bags, a)
		resp = append(resp, []int{0, 1})
		bags = append(bags, bb)
		resp = append(resp, []int{1})
	}
	for _, b := range baselines {
		t.Run(b.name, func(t *testing.T) {
			s, err := b.train(bags, resp, 2, 10)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.Rank(a, []int{0, 1}); got[0] != 0 {
				t.Errorf("specialist-by-volume should outrank generalist: %v", got)
			}
		})
	}
}

func TestInferUnknownUniform(t *testing.T) {
	bags, resp, v := fixture()
	for _, b := range baselines {
		t.Run(b.name, func(t *testing.T) {
			s, err := b.train(bags, resp, 3, v)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.Infer(text.BagFromCounts(map[int]float64{99: 1})); math.Abs(got[0]-0.5) > 1e-9 {
				t.Errorf("unknown inference = %v", got)
			}
		})
	}
}
