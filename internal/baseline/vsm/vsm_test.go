package vsm

import (
	"reflect"
	"testing"

	"crowdselect/internal/text"
)

func corpusFixture() (bags []text.Bag, respondents [][]int) {
	// Worker 0 answers database tasks (terms 0–2), worker 1 answers
	// math tasks (terms 10–12), worker 2 answers both.
	db := text.BagFromCounts(map[int]float64{0: 2, 1: 1, 2: 1})
	mth := text.BagFromCounts(map[int]float64{10: 2, 11: 1, 12: 1})
	bags = []text.Bag{db, mth, db, mth}
	respondents = [][]int{{0, 2}, {1, 2}, {0}, {1}}
	return
}

func TestTrainValidation(t *testing.T) {
	bags, resp := corpusFixture()
	if _, err := Train(bags, resp[:2], 3); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := Train(bags, resp, 0); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := Train(bags, [][]int{{9}, {}, {}, {}}, 3); err == nil {
		t.Error("dangling worker accepted")
	}
}

func TestRankPrefersMatchingHistory(t *testing.T) {
	bags, resp := corpusFixture()
	s, err := Train(bags, resp, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "VSM" {
		t.Errorf("Name = %q", s.Name())
	}
	dbTask := text.BagFromCounts(map[int]float64{0: 1, 2: 1})
	got := s.Rank(dbTask, []int{0, 1, 2})
	if got[0] != 0 {
		t.Errorf("database task ranked %v, want worker 0 first", got)
	}
	if got[len(got)-1] != 1 {
		t.Errorf("math-only worker should rank last: %v", got)
	}
	mathTask := text.BagFromCounts(map[int]float64{11: 1, 12: 1})
	got = s.Rank(mathTask, []int{0, 1, 2})
	if got[0] != 1 {
		t.Errorf("math task ranked %v, want worker 1 first", got)
	}
}

func TestScoreNoHistoryIsZero(t *testing.T) {
	bags, resp := corpusFixture()
	s, err := Train(bags, resp, 5) // workers 3, 4 never answered
	if err != nil {
		t.Fatal(err)
	}
	task := text.BagFromCounts(map[int]float64{0: 1})
	if got := s.Score(4, task); got != 0 {
		t.Errorf("Score(no history) = %v, want 0", got)
	}
}

func TestHistoryMergesCounts(t *testing.T) {
	bags, resp := corpusFixture()
	s, err := Train(bags, resp, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Worker 0 answered the db bag twice: counts double.
	h := s.histories[0]
	want := text.BagFromCounts(map[int]float64{0: 4, 1: 2, 2: 2})
	if !reflect.DeepEqual(h, want) {
		t.Errorf("history of worker 0 = %+v, want %+v", h, want)
	}
}

func TestTFIDFVariant(t *testing.T) {
	// Term 0 appears in every task (low idf), term 5 in one (high
	// idf). A task containing both should rank the worker who owns the
	// rare term higher under TF-IDF.
	common := text.BagFromCounts(map[int]float64{0: 3})
	rare := text.BagFromCounts(map[int]float64{0: 3, 5: 1})
	bags := []text.Bag{common, common, common, rare}
	resp := [][]int{{0}, {0}, {0}, {1}}
	s, err := TrainTFIDF(bags, resp, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "VSM-TFIDF" {
		t.Errorf("Name = %q", s.Name())
	}
	probe := text.BagFromCounts(map[int]float64{0: 1, 5: 1})
	got := s.Rank(probe, []int{0, 1})
	if got[0] != 1 {
		t.Errorf("TF-IDF did not promote the rare-term specialist: %v (scores %v vs %v)",
			got, s.Score(0, probe), s.Score(1, probe))
	}
	// The variants weigh terms differently: TF-IDF must widen the
	// specialist's margin relative to raw counts.
	raw, err := Train(bags, resp, 2)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Name() != "VSM" {
		t.Errorf("raw Name = %q", raw.Name())
	}
	rawMargin := raw.Score(1, probe) - raw.Score(0, probe)
	tfidfMargin := s.Score(1, probe) - s.Score(0, probe)
	if tfidfMargin <= rawMargin {
		t.Errorf("TF-IDF margin %.3f not wider than raw %.3f", tfidfMargin, rawMargin)
	}
}

func TestTFIDFUnknownTermScoresZeroWeight(t *testing.T) {
	bags := []text.Bag{text.BagFromCounts(map[int]float64{0: 1})}
	s, err := TrainTFIDF(bags, [][]int{{0}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A probe with only an unseen term has zero weighted mass.
	probe := text.BagFromCounts(map[int]float64{99: 2})
	if got := s.Score(0, probe); got != 0 {
		t.Errorf("unseen-term score = %v", got)
	}
}

func TestRankDeterministicOnTies(t *testing.T) {
	bags, resp := corpusFixture()
	s, err := Train(bags, resp, 4)
	if err != nil {
		t.Fatal(err)
	}
	// A task no one matches: all scores zero, expect id order.
	task := text.BagFromCounts(map[int]float64{40: 1})
	got := s.Rank(task, []int{3, 1, 0, 2})
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Errorf("tie ranking = %v", got)
	}
}
