package core

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"crowdselect/internal/linalg"
	"crowdselect/internal/text"
)

func TestMCEMConfigValidate(t *testing.T) {
	if err := NewMCEMConfig(5).Validate(); err != nil {
		t.Error(err)
	}
	bad := NewMCEMConfig(0)
	if err := bad.Validate(); err == nil {
		t.Error("K=0 accepted")
	}
	bad = NewMCEMConfig(3)
	bad.BurnIn = bad.Sweeps
	if err := bad.Validate(); err == nil {
		t.Error("burn-in ≥ sweeps accepted")
	}
	bad = NewMCEMConfig(3)
	bad.MHStep = 0
	if err := bad.Validate(); err == nil {
		t.Error("MHStep=0 accepted")
	}
}

func TestTrainMCEMInputValidation(t *testing.T) {
	cfg := NewMCEMConfig(3)
	if _, _, err := TrainMCEM(nil, 5, 10, cfg); err != ErrNoData {
		t.Errorf("empty input: %v", err)
	}
	bad := []ResolvedTask{{
		Bag:       text.BagFromCounts(map[int]float64{0: 1}),
		Responses: []Scored{{Worker: 42, Score: 1}},
	}}
	if _, _, err := TrainMCEM(bad, 5, 10, cfg); err == nil {
		t.Error("dangling worker accepted")
	}
}

func TestTrainMCEMProducesUsableModel(t *testing.T) {
	d := smallDataset(t)
	cfg := NewMCEMConfig(8)
	cfg.Sweeps = 80
	cfg.BurnIn = 30
	m, st, err := TrainMCEM(tasksFromDataset(d), len(d.Workers), d.Vocab.Size(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sweeps != cfg.Sweeps || st.Kept != cfg.Sweeps-cfg.BurnIn {
		t.Errorf("stats = %+v", st)
	}
	// Random-walk health: not frozen, not accepting everything.
	if st.AcceptRate < 0.05 || st.AcceptRate > 0.95 {
		t.Errorf("MH acceptance rate %.3f out of healthy band", st.AcceptRate)
	}
	for i := 0; i < m.M; i++ {
		if !m.LambdaW[i].IsFinite() {
			t.Fatalf("worker %d mean not finite", i)
		}
		for _, v := range m.NuW2[i] {
			if !(v > 0) {
				t.Fatalf("worker %d non-positive variance", i)
			}
		}
	}

	// The sampled model must beat chance at ranking respondents, like
	// the variational one.
	hits, total := 0, 0
	var chance float64
	for _, task := range d.Tasks {
		if len(task.Responses) < 2 {
			continue
		}
		best, _ := task.BestWorker()
		cands := make([]int, len(task.Responses))
		for i, r := range task.Responses {
			cands[i] = r.Worker
		}
		got := m.SelectForTask(task.Bag(d.Vocab), cands, 1, nil)
		if len(got) == 1 && got[0] == best {
			hits++
		}
		total++
		chance += 1 / float64(len(task.Responses))
	}
	rate := float64(hits) / float64(total)
	base := chance / float64(total)
	if rate < base+0.1 {
		t.Errorf("MCEM top-1 rate %.3f not above chance %.3f", rate, base)
	}
}

func TestTrainMCEMDeterministic(t *testing.T) {
	d := smallDataset(t)
	cfg := NewMCEMConfig(4)
	cfg.Sweeps = 20
	cfg.BurnIn = 5
	m1, _, err := TrainMCEM(tasksFromDataset(d), len(d.Workers), d.Vocab.Size(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := TrainMCEM(tasksFromDataset(d), len(d.Workers), d.Vocab.Size(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1.LambdaW {
		if !slices.Equal(m1.LambdaW[i], m2.LambdaW[i]) {
			t.Fatalf("worker %d differs across identical seeds", i)
		}
	}
}

func TestMCEMModelRoundTripsThroughSave(t *testing.T) {
	d := smallDataset(t)
	cfg := NewMCEMConfig(4)
	cfg.Sweeps = 15
	cfg.BurnIn = 5
	m, _, err := TrainMCEM(tasksFromDataset(d), len(d.Workers), d.Vocab.Size(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/mcem.json"
	saveFile(t, m, path)
	got, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bag := d.Tasks[0].Bag(d.Vocab)
	if sub(got.Project(bag).Lambda, m.Project(bag).Lambda).NormInf() > 1e-9 {
		t.Error("reloaded MCEM model projects differently")
	}
}

// The sampler's softmax (mcem_engine_test.go).

func TestSoftmaxSumsToOne(t *testing.T) {
	clamp := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return math.Max(-100, math.Min(100, v))
	}
	f := func(a, b, c float64) bool {
		s := softmax(linalg.Vector{clamp(a), clamp(b), clamp(c)})
		return math.Abs(s.Sum()-1) < 1e-9 && s.IsFinite()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxOrderPreserving(t *testing.T) {
	s := softmax(linalg.Vector{1, 3, 2})
	if !(s[1] > s[2] && s[2] > s[0]) {
		t.Errorf("softmax not order-preserving: %v", s)
	}
}

func TestSoftmaxExtremes(t *testing.T) {
	s := softmax(linalg.Vector{1e4, 0})
	if math.Abs(s[0]-1) > 1e-9 || s[1] < 0 {
		t.Errorf("softmax extreme = %v", s)
	}
}
