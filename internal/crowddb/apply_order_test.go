package crowddb

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crowdselect/internal/core"
	"crowdselect/internal/text"
)

// gateSelector is a learning selector whose first Project — the start
// of the first resolve's posterior fold, after its store commit —
// blocks until released, and which records the order scores are folded
// in.
type gateSelector struct {
	staticSelector
	calls   atomic.Int32
	entered chan struct{} // closed once the first fold is inside Project
	release chan struct{} // the first fold proceeds once closed

	mu    sync.Mutex
	folds []float64
}

func (g *gateSelector) Project(text.Bag) core.TaskCategory {
	if g.calls.Add(1) == 1 {
		close(g.entered)
		<-g.release
	}
	return core.TaskCategory{}
}

func (g *gateSelector) UpdateWorkerSkill(_ int, _ []core.TaskCategory, scores []float64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.folds = append(g.folds, scores...)
	return nil
}

// TestResolveFoldsInJournalOrder pins DESIGN §7's "journal order is
// apply order": a resolve that has committed but not yet folded must
// keep every later resolve out of the journal, or a replay (which
// folds in journal order) rebuilds other posteriors than the live
// model holds. Task A commits and parks inside its fold; task B
// resolves concurrently. The wait below is only how long the fault is
// given to show itself — ordered code cannot fail it.
func TestResolveFoldsInJournalOrder(t *testing.T) {
	store := NewStore()
	var journal bytes.Buffer
	journalInto(store, &journal)
	if _, err := store.AddWorker(0, "w0"); err != nil {
		t.Fatal(err)
	}
	sel := &gateSelector{entered: make(chan struct{}), release: make(chan struct{})}
	mgr, err := NewManager(store, text.NewVocabulary(), sel, 1)
	if err != nil {
		t.Fatal(err)
	}
	scoreOf := map[int]float64{}
	var ids []int
	for _, score := range []float64{1, 2} {
		sub, err := mgr.SubmitTask(context.Background(), fmt.Sprintf("task scored %v", score), 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.CollectAnswer(sub.Task.ID, 0, "an answer"); err != nil {
			t.Fatal(err)
		}
		scoreOf[sub.Task.ID] = score
		ids = append(ids, sub.Task.ID)
	}
	resolve := func(id int, done chan<- error) {
		_, err := mgr.ResolveTask(context.Background(), id, map[int]float64{0: scoreOf[id]})
		done <- err
	}
	doneA, doneB := make(chan error, 1), make(chan error, 1)
	go resolve(ids[0], doneA)
	<-sel.entered // A is in the journal, its fold is parked
	go resolve(ids[1], doneB)
	select {
	case err := <-doneB:
		// B committed and folded past the parked A: the fault.
		doneB <- err
	case <-time.After(200 * time.Millisecond):
		if rec, err := store.GetTask(ids[1]); err != nil || rec.Status != TaskAssigned {
			t.Errorf("task B = %+v (%v) while A's fold is parked; want it still assigned", rec, err)
		}
	}
	close(sel.release)
	for _, done := range []chan error{doneA, doneB} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	var journaled []float64
	if _, err := walkJournal(journal.Bytes(), func(_ int, _ int64, payload []byte) error {
		var e event
		if err := json.Unmarshal(payload, &e); err != nil {
			return err
		}
		if e.Kind == evResolve {
			journaled = append(journaled, scoreOf[e.Task])
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(journaled) != 2 || !reflect.DeepEqual(sel.folds, journaled) {
		t.Fatalf("posteriors folded scores %v, the journal holds %v: a replay would rebuild a different model", sel.folds, journaled)
	}
}

// TestFeedbackHammerReplaysToLiveModelDigest is the kill/restart form
// of the same contract on the real model: two clients resolve tasks
// that share answerers, the node stops without compacting, and the
// journal replay must rebuild the live model_digest exactly.
func TestFeedbackHammerReplaysToLiveModelDigest(t *testing.T) {
	d, model := trainedFixture(t)
	const trials, perClient = 3, 12
	for trial := 0; trial < trials; trial++ {
		dir := t.TempDir()
		rig := openDurable(t, dir, d, model, Options{Sync: SyncAlways()})
		type staged struct {
			id     int
			scores map[int]float64
		}
		var work [2][]staged
		for i := 0; i < 2*perClient; i++ {
			sub, err := rig.mgr.SubmitTask(context.Background(), fmt.Sprintf("hammer %d database index trees", i), 2)
			if err != nil {
				t.Fatal(err)
			}
			scores := make(map[int]float64, len(sub.Workers))
			for j, w := range sub.Workers {
				if err := rig.mgr.CollectAnswer(sub.Task.ID, w, "an answer"); err != nil {
					t.Fatal(err)
				}
				scores[w] = float64(1 + (i+j)%5)
			}
			work[i%2] = append(work[i%2], staged{sub.Task.ID, scores})
		}
		var wg sync.WaitGroup
		for _, mine := range work {
			wg.Add(1)
			go func(mine []staged) {
				defer wg.Done()
				for _, s := range mine {
					if _, err := rig.mgr.ResolveTask(context.Background(), s.id, s.scores); err != nil {
						t.Errorf("resolve %d: %v", s.id, err)
						return
					}
				}
			}(mine)
		}
		wg.Wait()
		live, err := NewDigestCutter(rig.db, rig.mgr).Cut()
		if err != nil {
			t.Fatal(err)
		}
		if err := rig.db.Close(); err != nil {
			t.Fatal(err)
		}

		replayed := openDurable(t, dir, d, nil, Options{Sync: SyncAlways()})
		got, err := NewDigestCutter(replayed.db, replayed.mgr).Cut()
		if err != nil {
			t.Fatal(err)
		}
		replayed.db.Close()
		if replayed.db.Stats().RecoveredRecords == 0 {
			t.Fatal("nothing was replayed: the node compacted before it stopped")
		}
		if got.Seq != live.Seq || got.Model != live.Model || got.Digest != live.Digest {
			t.Fatalf("trial %d: live cut %+v, replayed cut %+v", trial, live, got)
		}
	}
}
