package core

import (
	"errors"
	"math"
	"testing"

	"crowdselect/internal/corpus"
	"crowdselect/internal/linalg"
	"crowdselect/internal/optimize"
	"crowdselect/internal/randx"
	"crowdselect/internal/text"
)

// tasksFromDataset converts a generated corpus into training input.
func tasksFromDataset(d *corpus.Dataset) []ResolvedTask {
	out := make([]ResolvedTask, len(d.Tasks))
	for j, t := range d.Tasks {
		rt := ResolvedTask{Bag: t.Bag(d.Vocab)}
		for _, r := range t.Responses {
			rt.Responses = append(rt.Responses, Scored{Worker: r.Worker, Score: r.Score})
		}
		out[j] = rt
	}
	return out
}

func smallDataset(t *testing.T) *corpus.Dataset {
	t.Helper()
	p := corpus.Quora().Scaled(0.04) // ~178 tasks, ~38 workers
	p.Seed = 7
	return corpus.MustGenerate(p)
}

func trainSmall(t *testing.T, k int) (*corpus.Dataset, *Model, *TrainStats) {
	t.Helper()
	d := smallDataset(t)
	cfg := NewConfig(k)
	cfg.MaxIter = 12
	m, st, err := Train(tasksFromDataset(d), len(d.Workers), d.Vocab.Size(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, m, st
}

func TestConfigValidate(t *testing.T) {
	if err := NewConfig(10).Validate(); err != nil {
		t.Error(err)
	}
	bad := NewConfig(0)
	if err := bad.Validate(); err == nil {
		t.Error("K=0 accepted")
	}
	bad = NewConfig(5)
	bad.TauFloor = 0
	if err := bad.Validate(); err == nil {
		t.Error("TauFloor=0 accepted")
	}
}

func TestTrainInputValidation(t *testing.T) {
	cfg := NewConfig(3)
	if _, _, err := Train(nil, 5, 10, cfg); err != ErrNoData {
		t.Errorf("empty input: err = %v, want ErrNoData", err)
	}
	bad := []ResolvedTask{{
		Bag:       text.BagFromCounts(map[int]float64{0: 1}),
		Responses: []Scored{{Worker: 99, Score: 1}},
	}}
	if _, _, err := Train(bad, 5, 10, cfg); err == nil {
		t.Error("dangling worker accepted")
	}
	badTerm := []ResolvedTask{{
		Bag:       text.BagFromCounts(map[int]float64{50: 1}),
		Responses: []Scored{{Worker: 0, Score: 1}},
	}}
	if _, _, err := Train(badTerm, 5, 10, cfg); err == nil {
		t.Error("out-of-vocabulary term accepted")
	}
	nanScore := []ResolvedTask{{
		Bag:       text.BagFromCounts(map[int]float64{0: 1}),
		Responses: []Scored{{Worker: 0, Score: math.NaN()}},
	}}
	if _, _, err := Train(nanScore, 5, 10, cfg); err == nil {
		t.Error("NaN score accepted")
	}
}

func TestTaskObjectiveGradient(t *testing.T) {
	// The hand-derived gradient must match central differences, with
	// and without feedback terms.
	d := smallDataset(t)
	tasks := tasksFromDataset(d)
	cfg := NewConfig(5)
	tr := newTrainer(tasks, len(d.Workers), d.Vocab.Size(), cfg)
	// Push the state off its symmetric initialization.
	rng := randx.New(3)
	for kk := 0; kk < cfg.K; kk++ {
		tr.lambdaC[0][kk] = rng.Normal(0, 0.5)
		tr.m.LambdaW[0][kk] = rng.Normal(0, 0.5)
	}
	s := newTaskSolver()
	s.updatePhi(tr.phi[0], tr.tasks[0].Bag.IDs, tr.lambdaC[0], tr.m.beta)
	tr.eps[0] = taylorPoint(tr.lambdaC[0], tr.nuC2[0])

	for _, withFeedback := range []bool{true, false} {
		obj := &s.obj
		tr.loadTaskObjective(obj, 0, withFeedback)
		x := make(linalg.Vector, 2*cfg.K)
		for i := range x {
			x[i] = rng.Normal(0, 0.3)
		}
		ga := make(linalg.Vector, len(x))
		gn := make(linalg.Vector, len(x))
		obj.grad(x, ga)
		optimize.NumericalGradient(obj.value, x, 1e-5, gn)
		if !ga.Equal(gn, 1e-4) {
			t.Errorf("feedback=%v: analytic %v vs numeric %v", withFeedback, ga, gn)
		}
	}
}

func TestTrainELBOIncreases(t *testing.T) {
	_, _, st := trainSmall(t, 5)
	if len(st.ELBO) < 2 {
		t.Fatalf("only %d sweeps recorded", len(st.ELBO))
	}
	for i := 1; i < len(st.ELBO); i++ {
		// The CG inner solves are inexact, so allow a relative slack.
		slack := 1e-3 * (math.Abs(st.ELBO[i-1]) + 1)
		if st.ELBO[i] < st.ELBO[i-1]-slack {
			t.Errorf("ELBO decreased at sweep %d: %v -> %v", i, st.ELBO[i-1], st.ELBO[i])
		}
	}
}

func TestTrainedModelFinite(t *testing.T) {
	_, m, _ := trainSmall(t, 5)
	for i := 0; i < m.M; i++ {
		if !m.LambdaW[i].IsFinite() || !m.NuW2[i].IsFinite() {
			t.Fatalf("worker %d posterior not finite", i)
		}
		for _, v := range m.NuW2[i] {
			if v <= 0 {
				t.Fatalf("worker %d has non-positive variance %v", i, v)
			}
		}
	}
	if !m.MuW.IsFinite() || !m.MuC.IsFinite() || !m.SigmaW.IsFinite() || !m.SigmaC.IsFinite() {
		t.Error("model parameters not finite")
	}
	if m.Tau2 <= 0 {
		t.Errorf("Tau2 = %v", m.Tau2)
	}
	// β rows must be normalized distributions in log space.
	for kk := 0; kk < m.K; kk++ {
		var sum float64
		for v := 0; v < m.V; v++ {
			sum += math.Exp(m.LogBeta.At(kk, v))
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("β row %d sums to %v", kk, sum)
		}
	}
}

func TestTrainBeatsRandomRanking(t *testing.T) {
	d, m, _ := trainSmall(t, 8)
	// Rank actual respondents per task by projected score; the
	// ground-truth best worker should land on top far more often than
	// chance.
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
	if total == 0 {
		t.Fatal("no evaluable tasks")
	}
	rate := float64(hits) / float64(total)
	base := chance / float64(total)
	if rate < base+0.15 {
		t.Errorf("top-1 rate %.3f not above chance %.3f", rate, base)
	}
}

func TestProjectRecoversCategorySignal(t *testing.T) {
	// Two tasks about disjoint category vocabularies should project to
	// clearly different latent positions; two tasks about the same
	// vocabulary should be closer.
	d, m, _ := trainSmall(t, 8)
	var catTasks [2]*corpus.Task
	for _, task := range d.Tasks {
		dom := task.TrueMix.ArgMax()
		if dom < 2 && catTasks[dom] == nil && task.TrueMix[dom] > 0.8 {
			catTasks[dom] = task
		}
	}
	if catTasks[0] == nil || catTasks[1] == nil {
		t.Skip("dataset lacks strongly dominated tasks in categories 0/1")
	}
	c0 := m.Project(catTasks[0].Bag(d.Vocab)).Mean()
	c1 := m.Project(catTasks[1].Bag(d.Vocab)).Mean()
	if c0.Sub(c1).Norm2() < 1e-6 {
		t.Error("tasks from different categories project to the same point")
	}
}

func TestProjectUnknownTermsFallsBackToPrior(t *testing.T) {
	_, m, _ := trainSmall(t, 5)
	cat := m.Project(text.BagFromCounts(map[int]float64{m.V + 5: 3}))
	if !cat.Lambda.Equal(m.MuC, 1e-12) {
		t.Errorf("empty projection λ = %v, want prior mean %v", cat.Lambda, m.MuC)
	}
	cat = m.Project(text.Bag{})
	if !cat.Lambda.Equal(m.MuC, 1e-12) {
		t.Error("empty bag did not project to prior")
	}
}

func TestSelectTopK(t *testing.T) {
	_, m, _ := trainSmall(t, 5)
	c := m.MuC.Clone()
	c[0] += 1
	all := m.SelectTopK(c, nil, 3)
	if len(all) != 3 {
		t.Fatalf("SelectTopK returned %d workers", len(all))
	}
	// Scores must be non-increasing in rank order.
	for i := 1; i < len(all); i++ {
		if m.Score(all[i], c) > m.Score(all[i-1], c) {
			t.Error("SelectTopK not sorted by score")
		}
	}
	// Restricting candidates restricts results.
	sub := m.SelectTopK(c, []int{0, 1}, 5)
	if len(sub) != 2 {
		t.Errorf("restricted selection returned %d", len(sub))
	}
	for _, id := range sub {
		if id != 0 && id != 1 {
			t.Errorf("selection leaked candidate %d", id)
		}
	}
}

func TestTaskCategorySample(t *testing.T) {
	cat := TaskCategory{Lambda: linalg.Vector{1, 2}, Nu2: linalg.Vector{0.01, 0.01}}
	rng := randx.New(1)
	const n = 2000
	mean := linalg.NewVector(2)
	for i := 0; i < n; i++ {
		mean.AddScaledInPlace(1, cat.Sample(rng))
	}
	mean.ScaleInPlace(1.0 / n)
	if !mean.Equal(cat.Lambda, 0.02) {
		t.Errorf("sample mean %v, want %v", mean, cat.Lambda)
	}
}

func TestUpdateWorkerSkillMovesTowardEvidence(t *testing.T) {
	_, m, _ := trainSmall(t, 5)
	w := 0
	before := m.Skills(w).Clone()
	cat := TaskCategory{Lambda: linalg.ConstVector(5, 0), Nu2: linalg.ConstVector(5, 0.01)}
	cat.Lambda[2] = 2 // strongly category-2 task
	// Ten high-score outcomes on category-2 tasks must raise the
	// worker's category-2 skill.
	cats := make([]TaskCategory, 10)
	scores := make([]float64, 10)
	for i := range cats {
		cats[i] = cat
		scores[i] = 10
	}
	if err := m.UpdateWorkerSkill(w, cats, scores); err != nil {
		t.Fatal(err)
	}
	after := m.Skills(w)
	if after[2] <= before[2] {
		t.Errorf("skill[2] did not increase: %v -> %v", before[2], after[2])
	}
	// Variances must shrink with evidence.
	if m.NuW2[w][2] >= 1 {
		t.Errorf("variance did not shrink: %v", m.NuW2[w][2])
	}
	// Empty evidence is a successful no-op; invalid input errors and
	// leaves the posterior untouched.
	snapshot := m.Skills(w).Clone()
	if err := m.UpdateWorkerSkill(w, nil, nil); err != nil {
		t.Errorf("empty update: %v", err)
	}
	bad := []struct {
		name string
		err  error
	}{
		{"mismatched lengths", m.UpdateWorkerSkill(w, cats[:2], scores[:1])},
		{"negative process variance", m.UpdateWorkerSkillDrift(w, cats, scores, -1)},
		{"worker below range", m.UpdateWorkerSkill(-1, cats, scores)},
		{"worker above range", m.UpdateWorkerSkill(m.M, cats, scores)},
		{"mismatched category dimension", m.UpdateWorkerSkill(w,
			[]TaskCategory{{Lambda: linalg.NewVector(2), Nu2: linalg.NewVector(2)}}, []float64{1})},
	}
	for _, c := range bad {
		if !errors.Is(c.err, ErrBadUpdate) {
			t.Errorf("%s: err = %v, want ErrBadUpdate", c.name, c.err)
		}
	}
	if !m.Skills(w).Equal(snapshot, 0) {
		t.Error("degenerate update modified skills")
	}
}

// TestUpdateWorkerSkillFailedSolveLeavesPosterior forces SPDSolve to
// fail (a degenerate category with hugely negative variance drives the
// update precision indefinite beyond the defensive jitter) and asserts
// the posterior is bit-identical afterwards. Before the staged-commit
// fix, the processVar widening of NuW2 survived the failed solve.
func TestUpdateWorkerSkillFailedSolveLeavesPosterior(t *testing.T) {
	_, m, _ := trainSmall(t, 5)
	w := 1
	lamBefore := m.Skills(w).Clone()
	nuBefore := m.NuW2[w].Clone()
	degenerate := TaskCategory{
		Lambda: linalg.ConstVector(5, 0.1),
		Nu2:    linalg.ConstVector(5, -1e6),
	}
	err := m.UpdateWorkerSkillDrift(w, []TaskCategory{degenerate}, []float64{1}, 0.5)
	if err == nil {
		t.Fatal("degenerate category did not fail the solve")
	}
	if errors.Is(err, ErrBadUpdate) {
		t.Fatalf("want a solver error, got input validation: %v", err)
	}
	if !m.Skills(w).Equal(lamBefore, 0) {
		t.Error("failed solve modified LambdaW")
	}
	if !m.NuW2[w].Equal(nuBefore, 0) {
		t.Error("failed solve left NuW2 widened by processVar")
	}
}

func TestSkillSpectrum(t *testing.T) {
	_, m, _ := trainSmall(t, 6)
	spectrum, rank, err := m.SkillSpectrum()
	if err != nil {
		t.Fatal(err)
	}
	if len(spectrum) != m.K {
		t.Fatalf("spectrum length %d", len(spectrum))
	}
	for i, v := range spectrum {
		if v <= 0 {
			t.Fatalf("eigenvalue %d = %v (Σ_w must be PD)", i, v)
		}
		if i > 0 && v > spectrum[i-1]+1e-12 {
			t.Fatal("spectrum not descending")
		}
	}
	if rank < 1 || rank > float64(m.K) {
		t.Errorf("effective rank = %v outside [1, %d]", rank, m.K)
	}
}

func TestTopTerms(t *testing.T) {
	_, m, _ := trainSmall(t, 5)
	for k := 0; k < m.K; k++ {
		top := m.TopTerms(k, 5)
		if len(top) != 5 {
			t.Fatalf("category %d: %d terms", k, len(top))
		}
		// Returned in non-increasing β order.
		row := m.LogBeta.Row(k)
		for i := 1; i < len(top); i++ {
			if row[top[i]] > row[top[i-1]] {
				t.Fatalf("category %d: terms not sorted by probability", k)
			}
		}
		// They are the global maxima: no other term beats the last.
		last := row[top[len(top)-1]]
		better := 0
		for v := 0; v < m.V; v++ {
			if row[v] > last {
				better++
			}
		}
		if better > len(top)-1 {
			t.Fatalf("category %d: %d terms beat the returned tail", k, better)
		}
	}
	if m.TopTerms(-1, 3) != nil || m.TopTerms(0, 0) != nil || m.TopTerms(m.K, 3) != nil {
		t.Error("degenerate TopTerms calls did not return nil")
	}
}

func TestTrainDiagonalCovariance(t *testing.T) {
	d := smallDataset(t)
	cfg := NewConfig(5)
	cfg.MaxIter = 8
	cfg.DiagonalCov = true
	m, _, err := Train(tasksFromDataset(d), len(d.Workers), d.Vocab.Size(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < cfg.K; r++ {
		for c := 0; c < cfg.K; c++ {
			if r != c && (m.SigmaW.At(r, c) != 0 || m.SigmaC.At(r, c) != 0) {
				t.Fatalf("off-diagonal covariance survived at (%d,%d)", r, c)
			}
		}
	}
	// The constrained model must still produce a usable ranking.
	task := d.Tasks[0]
	cands := make([]int, len(task.Responses))
	for i, r := range task.Responses {
		cands[i] = r.Worker
	}
	if got := m.Rank(task.Bag(d.Vocab), cands); len(got) != len(cands) {
		t.Errorf("Rank returned %d of %d candidates", len(got), len(cands))
	}
}

func TestTrainDeterministicGivenSeed(t *testing.T) {
	d := smallDataset(t)
	tasks := tasksFromDataset(d)
	cfg := NewConfig(4)
	cfg.MaxIter = 4
	m1, _, err := Train(tasks, len(d.Workers), d.Vocab.Size(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := Train(tasks, len(d.Workers), d.Vocab.Size(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1.LambdaW {
		if !m1.LambdaW[i].Equal(m2.LambdaW[i], 0) {
			t.Fatalf("worker %d skills differ across identical runs", i)
		}
	}
}

func TestSkillsComparableAcrossWorkers(t *testing.T) {
	// The paper's core modeling claim (§1): a prolific-but-mediocre
	// worker must not outrank a scarce-but-excellent worker on the
	// excellent worker's category. Construct that situation directly.
	k := 3
	vocab := 30
	// Category-0 tasks use terms 0..9, category-1 tasks terms 10..19.
	bag0 := text.BagFromCounts(map[int]float64{1: 2, 3: 1, 5: 1, 7: 1})
	bag1 := text.BagFromCounts(map[int]float64{11: 2, 13: 1, 15: 1, 17: 1})
	var tasks []ResolvedTask
	// Worker 0: answers 20 category-0 tasks, always low score 1.
	// Worker 1: answers 5 category-0 tasks, always high score 5.
	for i := 0; i < 20; i++ {
		rt := ResolvedTask{Bag: bag0, Responses: []Scored{{Worker: 0, Score: 1}}}
		if i < 5 {
			rt.Responses = append(rt.Responses, Scored{Worker: 1, Score: 5})
		}
		tasks = append(tasks, rt)
	}
	// Both answer some category-1 tasks at middling scores to keep the
	// problem two-dimensional.
	for i := 0; i < 10; i++ {
		tasks = append(tasks, ResolvedTask{Bag: bag1, Responses: []Scored{
			{Worker: 0, Score: 2}, {Worker: 1, Score: 2},
		}})
	}
	cfg := NewConfig(k)
	cfg.MaxIter = 20
	m, _, err := Train(tasks, 2, vocab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Project(bag0).Mean()
	if m.Score(1, c) <= m.Score(0, c) {
		t.Errorf("prolific low-scorer outranks high-scorer on its category: %v vs %v",
			m.Score(0, c), m.Score(1, c))
	}
}
