package drm

import (
	"math"
	"testing"

	"crowdselect/internal/plsa"
	"crowdselect/internal/text"
)

func fixture() (bags []text.Bag, respondents [][]int, vocab int) {
	a := text.BagFromCounts(map[int]float64{0: 3, 1: 2, 2: 2})
	b := text.BagFromCounts(map[int]float64{5: 3, 6: 2, 7: 2})
	for i := 0; i < 20; i++ {
		bags = append(bags, a, b)
		respondents = append(respondents, []int{0}, []int{1})
	}
	return bags, respondents, 10
}

func TestTrainValidation(t *testing.T) {
	bags, resp, v := fixture()
	cfg := plsa.NewConfig(2)
	if _, err := Train(bags, resp[:3], 2, v, cfg); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := Train(bags, resp, 0, v, cfg); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := Train(bags, [][]int{{42}}, 2, v, cfg); err == nil {
		t.Error("dangling worker accepted")
	}
}

func TestSkillsAreMultinomial(t *testing.T) {
	bags, resp, v := fixture()
	s, err := Train(bags, resp, 3, v, plsa.NewConfig(2)) // worker 2 idle
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 3; w++ {
		if math.Abs(s.skills[w].Sum()-1) > 1e-9 {
			t.Errorf("worker %d skill sums to %v", w, s.skills[w].Sum())
		}
	}
	// Idle workers carry the uniform skill.
	if math.Abs(s.skills[2][0]-0.5) > 1e-9 {
		t.Errorf("idle worker skill = %v, want uniform", s.skills[2])
	}
}

func TestRankRoutesByAspect(t *testing.T) {
	bags, resp, v := fixture()
	s, err := Train(bags, resp, 2, v, plsa.NewConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "DRM" {
		t.Errorf("Name = %q", s.Name())
	}
	taskA := text.BagFromCounts(map[int]float64{0: 2, 1: 1})
	if got := s.Rank(taskA, []int{0, 1}); got[0] != 0 {
		t.Errorf("aspect-A task ranked %v, want worker 0 first", got)
	}
	taskB := text.BagFromCounts(map[int]float64{6: 2, 7: 1})
	if got := s.Rank(taskB, []int{0, 1}); got[0] != 1 {
		t.Errorf("aspect-B task ranked %v, want worker 1 first", got)
	}
}

func TestRankDeterministic(t *testing.T) {
	bags, resp, v := fixture()
	s, err := Train(bags, resp, 2, v, plsa.NewConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	task := text.BagFromCounts(map[int]float64{0: 1, 5: 1})
	r1 := s.Rank(task, []int{0, 1})
	r2 := s.Rank(task, []int{0, 1})
	if r1[0] != r2[0] || r1[1] != r2[1] {
		t.Error("Rank not deterministic")
	}
}
