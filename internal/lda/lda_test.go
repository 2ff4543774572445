package lda

import (
	"math"
	"slices"
	"testing"

	"crowdselect/internal/linalg"
	"crowdselect/internal/randx"
	"crowdselect/internal/text"
)

// twoTopicCorpus builds documents over two disjoint vocabularies:
// terms 0–4 (topic A) and 5–9 (topic B).
func twoTopicCorpus() ([]text.Bag, int) {
	var docs []text.Bag
	for i := 0; i < 30; i++ {
		docs = append(docs, text.BagFromCounts(map[int]float64{
			0: 3, 1: 2, 2: 2, 3: 1, 4: 1,
		}))
		docs = append(docs, text.BagFromCounts(map[int]float64{
			5: 3, 6: 2, 7: 2, 8: 1, 9: 1,
		}))
	}
	return docs, 10
}

func TestConfigValidate(t *testing.T) {
	if err := NewConfig(5).Validate(); err != nil {
		t.Error(err)
	}
	bad := NewConfig(0)
	if err := bad.Validate(); err == nil {
		t.Error("K=0 accepted")
	}
	bad = NewConfig(3)
	bad.Beta = 0
	if err := bad.Validate(); err == nil {
		t.Error("Beta=0 accepted")
	}
}

func TestTrainInputValidation(t *testing.T) {
	cfg := NewConfig(2)
	if _, _, err := Train(nil, 10, cfg); err == nil {
		t.Error("empty corpus accepted")
	}
	bad := []text.Bag{text.BagFromCounts(map[int]float64{99: 1})}
	if _, _, err := Train(bad, 10, cfg); err == nil {
		t.Error("out-of-vocabulary term accepted")
	}
	if _, _, err := Train(bad, 0, cfg); err == nil {
		t.Error("vocabSize=0 accepted")
	}
}

func TestTrainSeparatesTopics(t *testing.T) {
	docs, v := twoTopicCorpus()
	cfg := NewConfig(2)
	cfg.Seed = 5
	m, thetas, err := Train(docs, v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Each topic should concentrate on one of the two vocabulary
	// blocks.
	massA0 := blockMass(m.Phi.Row(0), 0, 5)
	massA1 := blockMass(m.Phi.Row(1), 0, 5)
	if !(massA0 > 0.9 && massA1 < 0.1) && !(massA1 > 0.9 && massA0 < 0.1) {
		t.Errorf("topics not separated: block-A mass %.3f / %.3f", massA0, massA1)
	}
	// Documents should be assigned nearly purely.
	for d, theta := range thetas {
		if math.Abs(theta.Sum()-1) > 1e-9 {
			t.Fatalf("theta %d sums to %v", d, theta.Sum())
		}
		if theta.Max() < 0.8 {
			t.Errorf("doc %d not concentrated: %v", d, theta)
		}
	}
	// Topic-word rows are distributions.
	for kk := 0; kk < m.K; kk++ {
		if s := m.Phi.Row(kk).Sum(); math.Abs(s-1) > 1e-9 {
			t.Errorf("Phi row %d sums to %v", kk, s)
		}
	}
}

func TestInferMatchesTrainingTopics(t *testing.T) {
	docs, v := twoTopicCorpus()
	cfg := NewConfig(2)
	cfg.Seed = 6
	m, thetas, err := Train(docs, v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Infer a fresh topic-A document; it must land on the same topic
	// as the training topic-A documents.
	trainTopic := slices.Index(thetas[0], slices.Max(thetas[0]))
	got := m.Infer(text.BagFromCounts(map[int]float64{0: 2, 2: 2, 4: 1}), randx.New(9))
	if topic := slices.Index(got, slices.Max(got)); topic != trainTopic {
		t.Errorf("inferred topic %d, want %d (theta %v)", topic, trainTopic, got)
	}
	if math.Abs(got.Sum()-1) > 1e-9 {
		t.Errorf("inferred theta sums to %v", got.Sum())
	}
}

func TestInferUnknownTermsUniform(t *testing.T) {
	docs, v := twoTopicCorpus()
	m, _, err := Train(docs, v, NewConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	got := m.Infer(text.BagFromCounts(map[int]float64{99: 3}), randx.New(1))
	want := linalg.ConstVector(2, 0.5)
	if got.Sub(want).NormInf() > 1e-9 {
		t.Errorf("unknown-term inference = %v, want uniform", got)
	}
	got = m.Infer(text.Bag{}, randx.New(1))
	if got.Sub(want).NormInf() > 1e-9 {
		t.Errorf("empty-doc inference = %v, want uniform", got)
	}
}

func TestTrainDeterministic(t *testing.T) {
	docs, v := twoTopicCorpus()
	cfg := NewConfig(2)
	m1, t1, err := Train(docs, v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, t2, err := Train(docs, v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(m1.Phi.Data, m2.Phi.Data) {
		t.Error("Phi differs across identical runs")
	}
	for d := range t1 {
		if !slices.Equal(t1[d], t2[d]) {
			t.Fatalf("theta %d differs across identical runs", d)
		}
	}
}

func blockMass(row linalg.Vector, lo, hi int) float64 {
	var s float64
	for v := lo; v < hi; v++ {
		s += row[v]
	}
	return s
}
