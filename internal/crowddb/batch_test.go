package crowddb

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"crowdselect/internal/rank"
	"crowdselect/internal/text"
)

// TestSubmitBatchMatchesSequential: a batch submission must select
// exactly the crowds that one-at-a-time submissions select — same task
// ids, same workers, element-wise — including per-element k overrides.
// Two managers are built from the same deterministic fixture so the
// comparison runs on identical models and stores.
func TestSubmitBatchMatchesSequential(t *testing.T) {
	mgrBatch, d := managerFixture(t)
	mgrSeq, _ := managerFixture(t)

	reqs := []TaskSubmission{
		{Text: strings.Join(d.Tasks[0].Tokens, " "), K: 2},
		{Text: strings.Join(d.Tasks[1].Tokens, " "), K: 3},
		{Text: strings.Join(d.Tasks[2].Tokens, " ")}, // K=0: manager default
		{Text: strings.Join(d.Tasks[3].Tokens, " "), K: 1},
		{Text: strings.Join(d.Tasks[0].Tokens, " "), K: 4}, // repeat text, larger k
	}
	batch, err := mgrBatch.SubmitBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(reqs) {
		t.Fatalf("batch returned %d submissions for %d requests", len(batch), len(reqs))
	}
	for i, r := range reqs {
		seq, err := mgrSeq.SubmitTask(context.Background(), r.Text, r.K)
		if err != nil {
			t.Fatalf("sequential submit %d: %v", i, err)
		}
		if batch[i].Task.ID != seq.Task.ID {
			t.Errorf("element %d: task id %d vs sequential %d", i, batch[i].Task.ID, seq.Task.ID)
		}
		if !reflect.DeepEqual(batch[i].Workers, seq.Workers) {
			t.Errorf("element %d: workers %v vs sequential %v", i, batch[i].Workers, seq.Workers)
		}
		if batch[i].Task.Status != TaskAssigned {
			t.Errorf("element %d: status %v", i, batch[i].Task.Status)
		}
	}
}

// TestSubmitBatchValidation: empty batches and offline crowds are
// rejected as bad requests, and a refused submit writes nothing: the
// offline crowd is knowable before the first task row, so the refusal
// must leave no open, unassigned tasks behind and no journal record.
func TestSubmitBatchValidation(t *testing.T) {
	mgr, _ := managerFixture(t)
	if _, err := mgr.SubmitBatch(context.Background(), nil); !errors.Is(err, ErrBadRequest) {
		t.Errorf("empty batch: %v", err)
	}
	for i := 0; i < mgr.Store().NumWorkers(); i++ {
		if err := mgr.Store().SetOnline(i, false); err != nil {
			t.Fatal(err)
		}
	}
	var journal bytes.Buffer
	journalInto(mgr.Store(), &journal)
	before := mgr.Store().NumTasks()
	for name, reqs := range map[string][]TaskSubmission{
		"one task":  {{Text: "anything", K: 1}},
		"two tasks": {{Text: "anything", K: 1}, {Text: "anything else", K: 2}},
	} {
		if _, err := mgr.SubmitBatch(context.Background(), reqs); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s, no online workers: %v", name, err)
		}
	}
	if got := mgr.Store().NumTasks(); got != before {
		t.Errorf("refused submits stored %d task rows", got-before)
	}
	if journal.Len() != 0 {
		t.Errorf("refused submits journaled %d bytes of records", journal.Len())
	}
}

// TestSubmitBatchPreassignedValidation: the Workers preassignment
// bypass is reachable from the public tasks endpoints, so the shard
// must enforce the same presence contract ranking does for every
// worker it owns — offline, unknown, and duplicate preassignments are
// refused before any task row is stored.
func TestSubmitBatchPreassignedValidation(t *testing.T) {
	mgr, _ := managerFixture(t)
	ctx := context.Background()

	// Online preassigned crowd: accepted verbatim.
	subs, err := mgr.SubmitBatch(ctx, []TaskSubmission{{Text: "preassigned task", Workers: []int{2, 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(subs[0].Workers, []int{2, 0}) {
		t.Fatalf("preassigned crowd = %v", subs[0].Workers)
	}

	if err := mgr.Store().SetOnline(1, false); err != nil {
		t.Fatal(err)
	}
	before := mgr.Store().NumTasks()
	cases := map[string][]int{
		"offline":   {0, 1},
		"unknown":   {0, 1 << 20},
		"duplicate": {0, 0},
	}
	for name, crowd := range cases {
		_, err := mgr.SubmitBatch(ctx, []TaskSubmission{{Text: "bad preassignment", Workers: crowd}})
		if !errors.Is(err, ErrBadRequest) && !errors.Is(err, ErrNotFound) {
			t.Errorf("%s preassignment: got %v", name, err)
		}
	}
	if got := mgr.Store().NumTasks(); got != before {
		t.Errorf("refused preassignments stored %d task rows", got-before)
	}
}

// TestSubmitBatchContextCancel: a context cancelled before the call
// aborts a batch, a submit and a resolve.
func TestSubmitBatchContextCancel(t *testing.T) {
	mgr, d := managerFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := mgr.SubmitBatch(ctx, []TaskSubmission{{Text: strings.Join(d.Tasks[0].Tokens, " "), K: 2}})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled batch: %v", err)
	}
	if _, err := mgr.SubmitTask(ctx, "x y z", 1); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled submit: %v", err)
	}
	if _, err := mgr.ResolveTask(ctx, 0, map[int]float64{0: 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled resolve: %v", err)
	}
}

// slowSelector parks inside RankBatchScored until released, so a test
// can cancel a batch mid-flight, and then answers as a ranker that
// honours its context does.
type slowSelector struct {
	staticSelector
	entered chan struct{}
	release chan struct{}
}

func (s *slowSelector) RankBatchScored(ctx context.Context, a *rank.Arena, bags []text.Bag, candidates []int, k int) ([][]rank.Item, error) {
	s.entered <- struct{}{}
	<-s.release
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.staticSelector.RankBatchScored(ctx, a, bags, candidates, k)
}

// TestSubmitBatchCancelMidFlight: cancelling while the batch is being
// ranked fails the whole batch with the context's error, and no task
// of it is dispatched.
func TestSubmitBatchCancelMidFlight(t *testing.T) {
	d, _ := trainedFixture(t)
	store := NewStore()
	if _, err := store.AddWorker(0, "w0"); err != nil {
		t.Fatal(err)
	}
	sel := &slowSelector{entered: make(chan struct{}, 2), release: make(chan struct{})}
	mgr, err := NewManager(store, d.Vocab, sel, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := mgr.SubmitBatch(ctx, []TaskSubmission{
			{Text: "first task", K: 1},
			{Text: "second task", K: 1},
		})
		done <- err
	}()
	<-sel.entered // ranking the batch
	cancel()
	close(sel.release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("mid-flight cancel: %v", err)
	}
	for _, task := range store.ListTasks(TaskAssigned) {
		t.Errorf("task %d dispatched by a cancelled batch", task.ID)
	}
}
