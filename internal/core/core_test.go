package core

import (
	"errors"
	"math"
	"slices"
	"testing"

	"crowdselect/internal/corpus"
	"crowdselect/internal/linalg"
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
	bad.InnerIter = 0
	if err := bad.Validate(); err == nil {
		t.Error("InnerIter=0 accepted")
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
		numericalGradient(obj.value, x, 1e-5, gn)
		if sub(ga, gn).NormInf() > 1e-4 {
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
	if !m.MuW.IsFinite() || !m.MuC.IsFinite() || !linalg.Vector(m.SigmaW.Data).IsFinite() || !linalg.Vector(m.SigmaC.Data).IsFinite() {
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
		dom := argMax(task.TrueMix)
		if dom < 2 && catTasks[dom] == nil && task.TrueMix[dom] > 0.8 {
			catTasks[dom] = task
		}
	}
	if catTasks[0] == nil || catTasks[1] == nil {
		t.Skip("dataset lacks strongly dominated tasks in categories 0/1")
	}
	c0 := m.Project(catTasks[0].Bag(d.Vocab)).Mean()
	c1 := m.Project(catTasks[1].Bag(d.Vocab)).Mean()
	if sub(c0, c1).NormInf() < 1e-6 {
		t.Error("tasks from different categories project to the same point")
	}
}

func TestProjectUnknownTermsFallsBackToPrior(t *testing.T) {
	_, m, _ := trainSmall(t, 5)
	cat := m.Project(text.BagFromCounts(map[int]float64{m.V + 5: 3}))
	if sub(cat.Lambda, m.MuC).NormInf() > 1e-12 {
		t.Errorf("empty projection λ = %v, want prior mean %v", cat.Lambda, m.MuC)
	}
	cat = m.Project(text.Bag{})
	if sub(cat.Lambda, m.MuC).NormInf() > 1e-12 {
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
	if sub(mean, cat.Lambda).NormInf() > 0.02 {
		t.Errorf("sample mean %v, want %v", mean, cat.Lambda)
	}
}

func TestUpdateWorkerSkillMovesTowardEvidence(t *testing.T) {
	_, m, _ := trainSmall(t, 5)
	w := 0
	before := m.LambdaW[w].Clone()
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
	after := m.LambdaW[w]
	if after[2] <= before[2] {
		t.Errorf("skill[2] did not increase: %v -> %v", before[2], after[2])
	}
	// Variances must shrink with evidence.
	if m.NuW2[w][2] >= 1 {
		t.Errorf("variance did not shrink: %v", m.NuW2[w][2])
	}
	// Empty evidence is a successful no-op.
	snapshot := m.LambdaW[w].Clone()
	if err := m.UpdateWorkerSkill(w, nil, nil); err != nil {
		t.Errorf("empty update: %v", err)
	}
	if !slices.Equal(m.LambdaW[w], snapshot) {
		t.Error("empty update modified skills")
	}
}

// TestUpdateWorkerSkillRefusalLeavesPosterior holds the fold's contract
// that an error never leaves a bad posterior: every input that cannot
// describe a valid update is refused with ErrBadUpdate before anything
// is written, so both moments of every worker stay bit-identical. A
// NaN score used to be folded in silently (LambdaW became all NaN with
// a nil error), and a NaN process variance or a degenerate category was
// caught only by the Cholesky factor's pivot check, which the Woodbury
// fold does not have.
func TestUpdateWorkerSkillRefusalLeavesPosterior(t *testing.T) {
	_, m, _ := trainSmall(t, 5)
	nan, inf := math.NaN(), math.Inf(1)
	good := TaskCategory{Lambda: linalg.Vector{0.5, -0.2, 1, 0, 0.3}, Nu2: linalg.ConstVector(5, 0.01)}
	with := func(f func(c *TaskCategory)) []TaskCategory {
		c := TaskCategory{Lambda: good.Lambda.Clone(), Nu2: good.Nu2.Clone()}
		f(&c)
		return []TaskCategory{good, c}
	}
	two := []TaskCategory{good, good}
	cases := []struct {
		name   string
		worker int
		prior  linalg.Vector // replaces the worker's NuW2 row first when set
		cats   []TaskCategory
		scores []float64
		q      float64
	}{
		{name: "mismatched lengths", worker: 1, cats: two, scores: []float64{1}},
		{name: "worker below range", worker: -1, cats: two, scores: []float64{1, 2}},
		{name: "worker above range", worker: m.M, cats: two, scores: []float64{1, 2}},
		{name: "negative process variance", worker: 1, cats: two, scores: []float64{1, 2}, q: -1},
		{name: "NaN process variance", worker: 1, cats: two, scores: []float64{1, 2}, q: nan},
		{name: "infinite process variance", worker: 1, cats: two, scores: []float64{1, 2}, q: inf},
		{name: "NaN score", worker: 1, cats: two, scores: []float64{1, nan}},
		{name: "infinite score", worker: 1, cats: two, scores: []float64{-inf, 2}},
		{name: "mismatched category dimension", worker: 1,
			cats: []TaskCategory{{Lambda: linalg.NewVector(2), Nu2: linalg.NewVector(2)}}, scores: []float64{1}},
		{name: "NaN category mean", worker: 1, cats: with(func(c *TaskCategory) { c.Lambda[3] = nan }), scores: []float64{1, 2}},
		{name: "infinite category mean", worker: 1, cats: with(func(c *TaskCategory) { c.Lambda[0] = -inf }), scores: []float64{1, 2}},
		{name: "NaN category variance", worker: 1, cats: with(func(c *TaskCategory) { c.Nu2[1] = nan }), scores: []float64{1, 2}},
		{name: "infinite category variance", worker: 1, cats: with(func(c *TaskCategory) { c.Nu2[4] = inf }), scores: []float64{1, 2}},
		// The category that drove the dense precision indefinite past the
		// Cholesky factor's jitter, with a widening that must not survive.
		{name: "negative category variance", worker: 1,
			cats:   []TaskCategory{{Lambda: linalg.ConstVector(5, 0.1), Nu2: linalg.ConstVector(5, -1e6)}},
			scores: []float64{1}, q: 0.5},
		{name: "zero widened variance", worker: 2, prior: linalg.Vector{1, 1, 0, 1, 1}, cats: two, scores: []float64{1, 2}},
		{name: "negative widened variance", worker: 2, prior: linalg.Vector{1, 1, 1, 1, -0.5}, cats: two, scores: []float64{1, 2}, q: 0.1},
		{name: "subnormal widened variance", worker: 2, prior: linalg.Vector{1e-310, 1, 1, 1, 1}, cats: two, scores: []float64{1, 2}},
		{name: "overflowing posterior", worker: 1, cats: with(func(c *TaskCategory) { c.Lambda[2] = 1e200 }), scores: []float64{1, 1e200}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.prior != nil {
				m.NuW2[c.worker] = c.prior
			}
			lambdaW, nuW2 := cloneRows(m.LambdaW), cloneRows(m.NuW2)
			err := m.UpdateWorkerSkillDrift(c.worker, c.cats, c.scores, c.q)
			if !errors.Is(err, ErrBadUpdate) {
				t.Fatalf("err = %v, want ErrBadUpdate", err)
			}
			sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
			for i := range lambdaW {
				if !slices.EqualFunc(m.LambdaW[i], lambdaW[i], sameBits) || !slices.EqualFunc(m.NuW2[i], nuW2[i], sameBits) {
					t.Fatalf("refused update modified worker %d's posterior", i)
				}
			}
		})
	}
}

func cloneRows(rows []linalg.Vector) []linalg.Vector {
	out := make([]linalg.Vector, len(rows))
	for i, r := range rows {
		out[i] = r.Clone()
	}
	return out
}

// TestUpdateWorkerSkillMatchesCholesky holds the Woodbury fold to the
// dense K×K Cholesky solve it replaced (foldCholesky): from a trained
// model, folds of n projected categories for n up to 2K, at process
// variances from 0 to 1e6, give λ_w within 1e-12 normwise relative of
// the reference and ν_w² bit for bit.
func TestUpdateWorkerSkillMatchesCholesky(t *testing.T) {
	d, m, _ := trainSmall(t, 5)
	k := m.K
	cats := make([]TaskCategory, 2*k+2) // three overlapping windows of up to 2K
	for j := range cats {
		cats[j] = m.Project(d.Tasks[j].Bag(d.Vocab))
	}
	scores := make([]float64, len(cats))
	for j := range scores {
		scores[j] = float64(1 + (3*j)%5)
	}
	worker := 0
	for _, n := range []int{1, 2, 3, k, 2 * k} {
		for _, q := range []float64{0, 0.01, 1, 1e3, 1e6} {
			for rep := 0; rep < 3; rep++ {
				worker = (worker + 7) % m.M
				ev, sc := cats[rep:rep+n], scores[rep:rep+n]
				wantL, wantNu, err := foldCholesky(m, worker, ev, sc, q)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.UpdateWorkerSkillDrift(worker, ev, sc, q); err != nil {
					t.Fatalf("n=%d q=%g: %v", n, q, err)
				}
				diff := sub(m.LambdaW[worker], wantL)
				if rel := math.Sqrt(diff.Dot(diff) / wantL.Dot(wantL)); !(rel <= 1e-12) {
					t.Errorf("n=%d q=%g worker %d: λ_w differs from the Cholesky fold by %.3g relative", n, q, worker, rel)
				}
				if !slices.Equal(m.NuW2[worker], wantNu) {
					t.Errorf("n=%d q=%g worker %d: ν_w² = %v, want %v bit for bit", n, q, worker, m.NuW2[worker], wantNu)
				}
			}
		}
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
		if !slices.Equal(m1.LambdaW[i], m2.LambdaW[i]) {
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

// sub returns x − y as a new vector.
func sub(x, y linalg.Vector) linalg.Vector {
	d := make(linalg.Vector, len(x))
	for i, v := range x {
		d[i] = v - y[i]
	}
	return d
}
