package crowddb

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"crowdselect/internal/core"
	"crowdselect/internal/corpus"
	"crowdselect/internal/rank"
	"crowdselect/internal/text"
)

// trainingTasks is the dataset's resolved tasks as core.Train takes
// them.
func trainingTasks(d *corpus.Dataset) []core.ResolvedTask {
	tasks := make([]core.ResolvedTask, 0, len(d.Tasks))
	for _, task := range d.Tasks {
		rt := core.ResolvedTask{Bag: task.Bag(d.Vocab)}
		for _, r := range task.Responses {
			rt.Responses = append(rt.Responses, core.Scored{Worker: r.Worker, Score: r.Score})
		}
		tasks = append(tasks, rt)
	}
	return tasks
}

// trainedFixture builds a small trained TDPM with its dataset.
func trainedFixture(t testing.TB) (*corpus.Dataset, *core.Model) {
	t.Helper()
	p := corpus.Quora().Scaled(0.03)
	p.Seed = 11
	d := corpus.MustGenerate(p)
	cfg := core.NewConfig(5)
	cfg.MaxIter = 5
	m, _, err := core.Train(trainingTasks(d), len(d.Workers), d.Vocab.Size(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, m
}

func managerFixture(t *testing.T) (*Manager, *corpus.Dataset) {
	t.Helper()
	d, m := trainedFixture(t)
	store := NewStore()
	store.SetClock(fixedClock())
	for i := range d.Workers {
		if _, err := store.AddWorker(i, fmt.Sprintf("worker-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	mgr, err := NewManager(store, d.Vocab, core.NewConcurrentModel(m), 3)
	if err != nil {
		t.Fatal(err)
	}
	return mgr, d
}

func TestNewManagerValidation(t *testing.T) {
	d, m := trainedFixture(t)
	cm := core.NewConcurrentModel(m)
	if _, err := NewManager(nil, d.Vocab, cm, 3); err == nil {
		t.Error("nil store accepted")
	}
	if _, err := NewManager(NewStore(), d.Vocab, cm, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestSubmitTaskPipeline(t *testing.T) {
	mgr, d := managerFixture(t)
	taskText := d.Tasks[0].Tokens[0] + " " + d.Tasks[0].Tokens[1]
	sub, err := mgr.SubmitTask(context.Background(), taskText, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Workers) != 3 {
		t.Fatalf("selected %d workers", len(sub.Workers))
	}
	if sub.Task.Status != TaskAssigned {
		t.Errorf("status = %v", sub.Task.Status)
	}
	// The dispatcher assigned exactly the selected workers.
	stored, err := mgr.Store().GetTask(sub.Task.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(stored.Assigned) != 3 {
		t.Errorf("assigned = %v", stored.Assigned)
	}

	// Answers and feedback flow through.
	for _, w := range sub.Workers {
		if err := mgr.CollectAnswer(sub.Task.ID, w, "answer"); err != nil {
			t.Fatal(err)
		}
	}
	scores := map[int]float64{sub.Workers[0]: 5, sub.Workers[1]: 2, sub.Workers[2]: 0}
	rec, err := mgr.ResolveTask(context.Background(), sub.Task.ID, scores)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != TaskResolved {
		t.Errorf("status = %v", rec.Status)
	}
}

func TestSubmitDefaultK(t *testing.T) {
	mgr, _ := managerFixture(t)
	sub, err := mgr.SubmitTask(context.Background(), "some task text", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Workers) != 3 { // manager default
		t.Errorf("selected %d workers, want default 3", len(sub.Workers))
	}
}

func TestSubmitRespectsPresence(t *testing.T) {
	mgr, d := managerFixture(t)
	// Take everyone offline except workers 0 and 1.
	for i := range d.Workers {
		if err := mgr.Store().SetOnline(i, i < 2); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := mgr.SubmitTask(context.Background(), "anything at all", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Workers) != 2 {
		t.Fatalf("selected %v with only 2 online", sub.Workers)
	}
	for _, w := range sub.Workers {
		if w > 1 {
			t.Errorf("offline worker %d selected", w)
		}
	}
	// No online workers at all is an error.
	mgr.Store().SetOnline(0, false)
	mgr.Store().SetOnline(1, false)
	if _, err := mgr.SubmitTask(context.Background(), "x", 1); !errors.Is(err, ErrBadRequest) {
		t.Errorf("no-online submit: %v", err)
	}
}

func TestResolveUpdatesSkillsIncrementally(t *testing.T) {
	mgr, d := managerFixture(t)
	m := mgr.sel.(*core.ConcurrentModel)

	taskText := ""
	for _, tok := range d.Tasks[1].Tokens {
		taskText += tok + " "
	}
	sub, err := mgr.SubmitTask(context.Background(), taskText, 2)
	if err != nil {
		t.Fatal(err)
	}
	w0 := sub.Workers[0]
	before := m.Unwrap().LambdaW[w0].Clone()
	if err := mgr.CollectAnswer(sub.Task.ID, w0, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.ResolveTask(context.Background(), sub.Task.ID, map[int]float64{w0: 9}); err != nil {
		t.Fatal(err)
	}
	if slices.Equal(m.Unwrap().LambdaW[w0], before) {
		t.Error("feedback did not update the worker's skills")
	}
}

// TestManagerOverJournaledStore exercises the full pipeline with a
// journal attached and verifies the journal replays to the same state.
func TestManagerOverJournaledStore(t *testing.T) {
	d, m := trainedFixture(t)
	dir := t.TempDir()
	db, err := Open(dir, Options{Sync: SyncAlways()})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	store := db.Store()
	for i := range d.Workers {
		if _, err := store.AddWorker(i, fmt.Sprintf("w%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	mgr, err := NewManager(store, d.Vocab, core.NewConcurrentModel(m), 2)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := mgr.SubmitTask(context.Background(), "some task about anything", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.CollectAnswer(sub.Task.ID, sub.Workers[0], "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.ResolveTask(context.Background(), sub.Task.ID, map[int]float64{sub.Workers[0]: 3}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(dir, Options{Sync: SyncAlways()})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.recoverJournal(nil); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	reopened := db.Store()
	if reopened.NumTasks() != 1 || reopened.NumWorkers() != len(d.Workers) {
		t.Fatalf("reopened: %d tasks, %d workers", reopened.NumTasks(), reopened.NumWorkers())
	}
	task, err := reopened.GetTask(sub.Task.ID)
	if err != nil {
		t.Fatal(err)
	}
	if task.Status != TaskResolved || task.Answers[0].Score != 3 {
		t.Errorf("replayed task = %+v", task)
	}
}

// staticSelector is the one test stub of the Selector contract: it
// ranks candidates by id (lowest first, every score 0) into the
// caller's arena, projects every task to the empty category (no λ_c
// components) and learns nothing. A fake that needs one behaviour of its
// own embeds it and overrides that method.
type staticSelector struct{}

func (staticSelector) Name() string { return "static" }

func (staticSelector) RankBatchScored(_ context.Context, a *rank.Arena, bags []text.Bag, candidates core.Candidates, k int) ([][]rank.Item, error) {
	return byID(a, len(bags), candidates, k), nil
}

func (staticSelector) RankBatchProjected(_ context.Context, a *rank.Arena, lambdas []float64, bags []text.Bag, candidates core.Candidates, k int) ([][]rank.Item, []float64, string, error) {
	return byID(a, len(bags), candidates, k), lambdas, "static", nil
}

func (staticSelector) RankCategoriesScored(_ context.Context, a *rank.Arena, _ string, cats [][]float64, candidates core.Candidates, k int) ([][]rank.Item, error) {
	return byID(a, len(cats), candidates, k), nil
}

func (staticSelector) Project(text.Bag) core.TaskCategory { return core.TaskCategory{} }

func (staticSelector) UpdateWorkerSkill(int, []core.TaskCategory, []float64) error { return nil }

func (staticSelector) Digest() (string, error) { return "", nil }

// byID is n copies of the k lowest candidate ids, in lists cut from a.
func byID(a *rank.Arena, n int, candidates core.Candidates, k int) [][]rank.Item {
	ids := slices.Clone(candidates.IDs())
	slices.Sort(ids)
	if len(ids) > k {
		ids = ids[:k]
	}
	out := a.Lists(n, len(ids))
	for i := range out {
		for _, id := range ids {
			out[i] = append(out[i], rank.Item{ID: id})
		}
	}
	return out
}
