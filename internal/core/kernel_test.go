package core

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"crowdselect/internal/corpus"
	"crowdselect/internal/linalg"
	"crowdselect/internal/race"
	"crowdselect/internal/text"
)

func firstBags(t *testing.T, k, n int) (*Model, []text.Bag) {
	t.Helper()
	d, m, _ := trainSmall(t, k)
	bags := make([]text.Bag, n)
	for i := range bags {
		bags[i] = d.Tasks[i].Bag(d.Vocab)
	}
	return m, bags
}

// TestProjectUnaffectedBySkillUpdates holds the premise the projection
// cache's epoch rests on: Project reads no worker posterior, so 200
// committed skill updates on the same model change no bit of any
// projection. If Project ever starts reading LambdaW/NuW2 this fails,
// and UpdateWorkerSkillDrift must go back to advancing the epoch.
func TestProjectUnaffectedBySkillUpdates(t *testing.T) {
	m, bags := firstBags(t, 5, 32)
	before := make([]TaskCategory, len(bags))
	for i, bag := range bags {
		before[i] = m.Project(bag)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(3)
		cats, scores := make([]TaskCategory, n), make([]float64, n)
		for e := range cats {
			cats[e], scores[e] = before[rng.Intn(len(before))], float64(1+rng.Intn(5))
		}
		if err := m.UpdateWorkerSkillDrift(rng.Intn(m.M), cats, scores, 0.02*rng.Float64()); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	for i, bag := range bags {
		if after := m.Project(bag); !reflect.DeepEqual(after, before[i]) {
			t.Fatalf("bag %d projects differently after skill updates:\n before %v\n after  %v", i, before[i], after)
		}
	}
}

// TestProjectResultOutlivesScratch: the optimizer's Result.X aliases
// the pooled workspace, so Project must copy the optimum out before the
// next round — and the next call — reuses it. A returned category keeps
// its bits while later projections churn the same scratch. The same
// holds one layer up: the projection cache overwrites the entry it
// evicts, vectors included, so what a hit hands out must be a copy that
// survives the entry's reuse.
func TestProjectResultOutlivesScratch(t *testing.T) {
	m, bags := firstBags(t, 5, 8)
	first := m.Project(bags[0])
	kept := first.clone()
	for _, bag := range bags[1:] {
		m.Project(bag)
	}
	if !reflect.DeepEqual(first, kept) {
		t.Error("a later projection overwrote an earlier result")
	}
	if again := m.Project(bags[0]); !reflect.DeepEqual(again, kept) {
		t.Error("projection depends on what the scratch held before")
	}

	cm := NewConcurrentModel(m)
	cm.SetProjectionCacheCapacity(1)
	missed, hit := cm.Project(bags[0]), cm.Project(bags[0])
	if st := cm.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("want one miss then one hit, got %+v", st)
	}
	for _, bag := range bags[1:] { // each insert evicts and reuses the one entry
		cm.Project(bag)
	}
	if !reflect.DeepEqual(missed, kept) || !reflect.DeepEqual(hit, kept) {
		t.Error("a category handed out by the cache changed when its entry was evicted and reused")
	}
	last := bags[len(bags)-1]
	if got := cm.Project(last); !reflect.DeepEqual(got, m.Project(last)) || cm.CacheStats().Hits != 2 {
		t.Errorf("the reused entry serves %v (stats %+v), want the projection of the bag stored last", got, cm.CacheStats())
	}
}

// The allocation gates of the kernel. A cache-miss projection allocates
// the two vectors it returns and nothing else; the task objective
// evaluates in its own buffers.
func TestProjectMissAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under -race; run `make allocs`")
	}
	m, bags := firstBags(t, 5, 16)
	for _, bag := range bags {
		m.Project(bag) // warm the pooled scratch to the largest bag
	}
	i := 0
	if a := testing.AllocsPerRun(64, func() { m.Project(bags[i%len(bags)]); i++ }); a > 2 {
		t.Errorf("Model.Project: %v allocations per miss, want ≤ 2 (λ and ν²)", a)
	}
}

// TestUpdateWorkerSkillAllocations is the fold's allocation gate: a
// one-category fold through ConcurrentModel, the one the manager, the
// journal replay and the streaming example run per answerer, allocates
// the two vectors it commits (λ_w and ν_w²) and nothing else — no K×K
// precision, no factor and no working vectors.
func TestUpdateWorkerSkillAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under -race; run `make allocs`")
	}
	m, bags := firstBags(t, 5, 1)
	cm := NewConcurrentModel(m)
	cats, scores := []TaskCategory{cm.Project(bags[0])}, []float64{3}
	w := 0
	a := testing.AllocsPerRun(64, func() {
		if err := cm.UpdateWorkerSkillDrift(w%m.M, cats, scores, 0.01); err != nil {
			t.Fatal(err)
		}
		w++
	})
	if a != 2 {
		t.Errorf("a one-category fold allocates %v times, want 2 (λ_w and ν_w²)", a)
	}
}

// TestUpdateWorkersAllocations is training's worker-update gate: one
// pass of Eqs. 10–11 allocates each worker's new λ_w, the sweep's
// Σ_w⁻¹μ_w and the fan-out's closure — M + 2 at every width, the
// precision matrix, its Cholesky factor, the right-hand side and the
// quadratic aggregate being buffers of the trainer's slots (M + 6 when
// they were the sweep's own) — nothing per response and no factor per
// worker. Width 2 runs the fan-out's second goroutine.
func TestUpdateWorkersAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under -race; run `make allocs`")
	}
	d := smallDataset(t)
	for _, width := range []int{1, 2} {
		tr := newTrainer(tasksFromDataset(d), len(d.Workers), d.Vocab.Size(), NewConfig(5))
		tr.setWidth(width)
		tr.updateTasks()
		if a, want := testing.AllocsPerRun(4, tr.updateWorkers), float64(tr.m.M+2); a != want {
			t.Errorf("width %d: updateWorkers over %d workers allocates %v times, want %v", width, tr.m.M, a, want)
		}
	}
}

// TestELBOAllocations is the bound's gate: once the trainer's term
// buffers exist, elbo allocates the two log-determinants' factors and
// the fan-out's two closures — 4, whatever the number of workers, tasks
// and terms and whatever the width. Each Gaussian cross term used to
// allocate its λ−μ: M + N more.
func TestELBOAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under -race; run `make allocs`")
	}
	d := smallDataset(t)
	for _, width := range []int{1, 2} {
		tr := newTrainer(tasksFromDataset(d), len(d.Workers), d.Vocab.Size(), NewConfig(5))
		tr.setWidth(width)
		tr.updateTasks()
		tr.updateWorkers()
		if a := testing.AllocsPerRun(4, func() { tr.elbo() }); a != 4 {
			t.Errorf("width %d: elbo over %d workers and %d tasks allocates %v times, want 4", width, tr.m.M, len(tr.tasks), a)
		}
	}
}

func TestTaskObjectiveAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under -race; run `make allocs`")
	}
	d := smallDataset(t)
	tr := newTrainer(tasksFromDataset(d), len(d.Workers), d.Vocab.Size(), NewConfig(5))
	s := newTaskSolver()
	for _, withFeedback := range []bool{true, false} {
		tr.loadTaskObjective(&s.obj, 0, withFeedback)
		x, g := linalg.ConstVector(10, 0.1), make(linalg.Vector, 10)
		if a := testing.AllocsPerRun(20, func() { s.obj.value(x) }); a != 0 {
			t.Errorf("feedback=%v: value allocates %v times, want 0", withFeedback, a)
		}
		if a := testing.AllocsPerRun(20, func() { s.obj.grad(x, g) }); a != 0 {
			t.Errorf("feedback=%v: grad allocates %v times, want 0", withFeedback, a)
		}
		if a := testing.AllocsPerRun(20, func() { tr.updateLambdaNuC(s, 0, withFeedback) }); a != 0 {
			t.Errorf("feedback=%v: a warm E-step solve allocates %v times, want 0", withFeedback, a)
		}
	}
}

// countingScratch is a projection scratch whose solver counts the Newton
// solve's calls into the task objective, how many of them find the
// objective at another point (at's own test: those are the calls that take
// exponentials, 2K each) and its K×K factorizations, one per Newton step
// whose line search was reached: the counters wrap prob.Eval, prob.Grad and
// factor here, so production code carries none.
func countingScratch() (sc *projectScratch, evals, grads, factors, points *int) {
	sc = &projectScratch{solver: newTaskSolver()}
	evals, grads, factors, points = new(int), new(int), new(int), new(int)
	obj := &sc.solver.obj
	visit := func(x linalg.Vector) {
		if !obj.pointOK || !sameBits(obj.point, x) {
			*points++
		}
	}
	eval, grad, factor := sc.solver.prob.Eval, sc.solver.prob.Grad, sc.solver.factor
	sc.solver.prob.Eval = func(x linalg.Vector) float64 { *evals++; visit(x); return eval(x) }
	sc.solver.prob.Grad = func(x, g linalg.Vector) { *grads++; visit(x); grad(x, g) }
	sc.solver.factor = func(a linalg.Vector, n int) bool { *factors++; return factor(a, n) }
	return sc, evals, grads, factors, points
}

// trainGolden trains the platform of TestGoldenNumerics (golden_test.go
// stays byte-for-byte what it was, so the set-up is repeated here).
func trainGolden(t *testing.T) (*Model, *corpus.Dataset) {
	t.Helper()
	p := corpus.Quora().Scaled(0.04)
	p.Seed = 11
	d := corpus.MustGenerate(p)
	cfg := NewConfig(6)
	cfg.MaxIter = 8
	cfg.InnerIter = 2
	m, _, err := Train(tasksFromDataset(d), len(d.Workers), d.Vocab.Size(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, d
}

// TestGoldenProjectionEvaluationCounts pins how often the 35 golden
// projections evaluate the objective and its gradient and factor the
// Newton matrix S. The counts are a function of the iterate sequence, so a
// kernel change that reuses values (DESIGN §6) leaves them where they are
// and one that bumps KernelVersion re-cuts them with the digests; like the
// digests they are GOARCH=amd64 and 386 numbers.
func TestGoldenProjectionEvaluationCounts(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Skipf("the iterate sequence is pinned for GOARCH=amd64 and 386 (FMA fusion differs on %s)", runtime.GOARCH)
	}
	m, d := trainGolden(t)
	sc, evals, grads, factors, _ := countingScratch()
	for _, bag := range goldenBags(d) {
		m.projectWith(sc, bag)
	}
	// KernelVersion 5: 309 Newton steps over 198 rounds, every line search
	// accepting its unit step, so each value is followed by its gradient.
	// Versions 3 and 4, the conjugate gradient, read 2964 values and 1758
	// gradients (version 2: 2919 and 1703 on the model it trained; 7956 and
	// 2187 under the halving search of version 1).
	const wantEvals, wantGrads, wantFactors = 507, 507, 309
	if *evals != wantEvals || *grads != wantGrads || *factors != wantFactors {
		t.Errorf("35 golden projections made %d value and %d grad calls and %d factorizations, want %d, %d and %d", *evals, *grads, *factors, wantEvals, wantGrads, wantFactors)
	}
}

// TestBetaTableFollowsLogBeta: the β table is derived state, and LogBeta is
// its only source. Wherever a model comes from — a trainer's first state,
// Train, a checkpoint, a ConcurrentModel saved and adopted by another, an
// MCEM fit — the table holds the kernel's exp of the stored LogBeta bit for
// bit; so the node that trained a model and the node that loaded it
// project every golden bag to the same bits.
func TestBetaTableFollowsLogBeta(t *testing.T) {
	check := func(what string, m *Model) {
		t.Helper()
		if m.beta == nil || m.beta.Rows != m.V || m.beta.Cols != m.K {
			t.Fatalf("%s: no V×K β table", what)
		}
		for kk := 0; kk < m.K; kk++ {
			for v, lb := range m.LogBeta.Row(kk) {
				if got, want := m.beta.At(v, kk), exp(lb); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: β[%d][%d] = %x, exp(LogBeta) = %x", what, v, kk, got, want)
				}
			}
		}
	}
	reload := func(save func(io.Writer) error) *Model {
		t.Helper()
		var buf bytes.Buffer
		if err := save(&buf); err != nil {
			t.Fatal(err)
		}
		m, err := LoadModel(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	trained, d := trainGolden(t)
	tasks := tasksFromDataset(d)
	check("a new trainer", newTrainer(tasks, len(d.Workers), d.Vocab.Size(), NewConfig(6)).m)
	check("trained", trained)
	loaded := reload(trained.Save)
	check("loaded", loaded)

	// A follower re-bootstrapping: it adopts the primary's checkpoint in place.
	primary := NewConcurrentModel(trained)
	_, other, _ := trainSmall(t, 6)
	follower := NewConcurrentModel(other)
	follower.Replace(reload(primary.Save))
	check("adopted by a follower", follower.Unwrap())

	for i, bag := range goldenBags(d) {
		want := trained.Project(bag)
		if got := loaded.Project(bag); !reflect.DeepEqual(got, want) {
			t.Fatalf("bag %d: the loaded model projects %v, the trained one %v", i, got, want)
		}
		if got := follower.Project(bag); !reflect.DeepEqual(got, want) {
			t.Fatalf("bag %d: the follower projects %v, the primary's model %v", i, got, want)
		}
	}

	cfg := NewMCEMConfig(4)
	cfg.Sweeps, cfg.BurnIn = 12, 4
	sampled, _, err := TrainMCEM(tasks, len(d.Workers), d.Vocab.Size(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	check("MCEM fit", sampled)
}

// TestKernelCallsNoLibmExp: every exponential under the bit contract is the
// kernel's own. math.Exp on amd64 chooses a fused path by CPUID, so one call
// of it — or of a function built on it — makes λ_c a function of the CPU
// model again, which no version stamp records. Every source file of the
// package is under the contract (estep, project, train, elbo, mstep, model,
// exp, and whatever is added next); the test files, among them the
// comparator sampler of mcem_engine_test.go, are not.
func TestKernelCallsNoLibmExp(t *testing.T) {
	banned := map[string]bool{"Exp": true, "Exp2": true, "Expm1": true, "Pow": true}
	names, err := filepath.Glob("*.go")
	if err != nil || len(names) == 0 {
		t.Fatalf("no source files found: %v", err)
	}
	fset := token.NewFileSet()
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "math" && banned[sel.Sel.Name] {
				t.Errorf("%s: math.%s under the bit contract; use exp", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
}
