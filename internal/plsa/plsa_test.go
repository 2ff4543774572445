package plsa

import (
	"math"
	"slices"
	"testing"

	"crowdselect/internal/linalg"
	"crowdselect/internal/text"
)

func twoAspectCorpus() ([]text.Bag, int) {
	var docs []text.Bag
	for i := 0; i < 30; i++ {
		docs = append(docs, text.BagFromCounts(map[int]float64{0: 3, 1: 2, 2: 2, 3: 1}))
		docs = append(docs, text.BagFromCounts(map[int]float64{5: 3, 6: 2, 7: 2, 8: 1}))
	}
	return docs, 10
}

func TestConfigValidate(t *testing.T) {
	if err := NewConfig(4).Validate(); err != nil {
		t.Error(err)
	}
	bad := NewConfig(0)
	if err := bad.Validate(); err == nil {
		t.Error("K=0 accepted")
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
}

func TestTrainSeparatesAspects(t *testing.T) {
	docs, v := twoAspectCorpus()
	cfg := NewConfig(2)
	cfg.Seed = 4
	m, pzd, err := Train(docs, v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mass00 := blockMass(m.PW.Row(0), 0, 5)
	mass01 := blockMass(m.PW.Row(1), 0, 5)
	if !(mass00 > 0.9 && mass01 < 0.1) && !(mass01 > 0.9 && mass00 < 0.1) {
		t.Errorf("aspects not separated: block-A mass %.3f / %.3f", mass00, mass01)
	}
	for d, pz := range pzd {
		if math.Abs(pz.Sum()-1) > 1e-9 {
			t.Fatalf("p(z|d) %d sums to %v", d, pz.Sum())
		}
		if pz.Max() < 0.9 {
			t.Errorf("doc %d not concentrated: %v", d, pz)
		}
	}
	for kk := 0; kk < m.K; kk++ {
		if s := m.PW.Row(kk).Sum(); math.Abs(s-1) > 1e-9 {
			t.Errorf("PW row %d sums to %v", kk, s)
		}
	}
}

func TestLogLikelihoodImprovesWithTraining(t *testing.T) {
	docs, v := twoAspectCorpus()
	short := NewConfig(2)
	short.Iterations = 1
	long := NewConfig(2)
	long.Iterations = 50
	m1, p1, err := Train(docs, v, short)
	if err != nil {
		t.Fatal(err)
	}
	m2, p2, err := Train(docs, v, long)
	if err != nil {
		t.Fatal(err)
	}
	if ll1, ll2 := logLikelihood(m1, docs, p1), logLikelihood(m2, docs, p2); ll2 < ll1 {
		t.Errorf("training reduced log likelihood: %v -> %v", ll1, ll2)
	}
}

func TestInferMatchesTrainingAspects(t *testing.T) {
	docs, v := twoAspectCorpus()
	cfg := NewConfig(2)
	m, pzd, err := Train(docs, v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	trainAspect := argMax(pzd[0])
	got := m.Infer(text.BagFromCounts(map[int]float64{0: 2, 1: 2}))
	if argMax(got) != trainAspect {
		t.Errorf("inferred aspect %d, want %d (%v)", argMax(got), trainAspect, got)
	}
}

func TestInferUnknownTermsUniform(t *testing.T) {
	docs, v := twoAspectCorpus()
	m, _, err := Train(docs, v, NewConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	got := m.Infer(text.BagFromCounts(map[int]float64{999: 2}))
	if sub(got, linalg.ConstVector(2, 0.5)).NormInf() > 1e-9 {
		t.Errorf("unknown-term inference = %v, want uniform", got)
	}
}

func TestTrainDeterministic(t *testing.T) {
	docs, v := twoAspectCorpus()
	cfg := NewConfig(3)
	m1, _, err := Train(docs, v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := Train(docs, v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(m1.PW.Data, m2.PW.Data) {
		t.Error("PW differs across identical runs")
	}
}

// logLikelihood is the log likelihood of the documents under m with the
// given per-document aspect distributions: the quantity EM raises.
func logLikelihood(m *Model, docs []text.Bag, pzd []linalg.Vector) float64 {
	var ll float64
	for d, bag := range docs {
		for p, v := range bag.IDs {
			var pwd float64
			for kk := 0; kk < m.K; kk++ {
				pwd += pzd[d][kk] * m.PW.At(kk, v)
			}
			if pwd > 0 {
				ll += bag.Counts[p] * math.Log(pwd)
			}
		}
	}
	return ll
}

// argMax is the index of the largest entry of x, the first on ties.
func argMax(x linalg.Vector) int { return slices.Index(x, slices.Max(x)) }

func blockMass(row linalg.Vector, lo, hi int) float64 {
	var s float64
	for v := lo; v < hi; v++ {
		s += row[v]
	}
	return s
}

// sub returns x − y as a new vector.
func sub(x, y linalg.Vector) linalg.Vector {
	d := make(linalg.Vector, len(x))
	for i, v := range x {
		d[i] = v - y[i]
	}
	return d
}
