package tspm

import (
	"math"
	"testing"

	"crowdselect/internal/lda"
	"crowdselect/internal/text"
)

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
	cfg := lda.NewConfig(2)
	if _, err := Train(bags, resp[:3], 3, v, cfg); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := Train(bags, resp, 0, v, cfg); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := Train(bags, [][]int{{77}}, 3, v, cfg); err == nil {
		t.Error("dangling worker accepted")
	}
}

func TestSkillsAreMultinomial(t *testing.T) {
	bags, resp, v := fixture()
	s, err := Train(bags, resp, 3, v, lda.NewConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 3; w++ {
		skill := s.skills[w]
		if math.Abs(skill.Sum()-1) > 1e-9 {
			t.Errorf("worker %d skill sums to %v", w, skill.Sum())
		}
		for _, x := range skill {
			if x < 0 {
				t.Errorf("worker %d has negative skill %v", w, x)
			}
		}
	}
}

func TestRankRoutesByTopic(t *testing.T) {
	bags, resp, v := fixture()
	s, err := Train(bags, resp, 3, v, lda.NewConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "TSPM" {
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
}

// The multinomial normalization is the flaw the paper targets: a
// worker who answers a category *exclusively* carries full skill mass
// on it and outranks a genuinely stronger generalist, regardless of
// feedback quality. Pin that behaviour so the contrast with TDPM in
// the experiments is meaningful.
func TestMultinomialSkillIgnoresQuality(t *testing.T) {
	a := text.BagFromCounts(map[int]float64{0: 3, 1: 2})
	b := text.BagFromCounts(map[int]float64{5: 3, 6: 2})
	var bags []text.Bag
	var resp [][]int
	for i := 0; i < 20; i++ {
		// Worker 0 answers only topic-A; worker 1 answers A and B
		// equally often.
		bags = append(bags, a)
		resp = append(resp, []int{0, 1})
		bags = append(bags, b)
		resp = append(resp, []int{1})
	}
	s, err := Train(bags, resp, 2, 10, lda.NewConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	got := s.Rank(a, []int{0, 1})
	if got[0] != 0 {
		t.Errorf("specialist-by-volume should outrank generalist under TSPM: %v", got)
	}
}

func TestInferUnknownUniform(t *testing.T) {
	bags, resp, v := fixture()
	s, err := Train(bags, resp, 3, v, lda.NewConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	got := s.Infer(text.BagFromCounts(map[int]float64{99: 1}))
	if math.Abs(got[0]-0.5) > 1e-9 {
		t.Errorf("unknown inference = %v", got)
	}
}
