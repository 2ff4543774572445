package crowddb

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func fixedClock() func() time.Time {
	t0 := time.Date(2015, 3, 23, 9, 0, 0, 0, time.UTC) // EDBT 2015 day 1
	return func() time.Time { return t0 }
}

func newTestStore(t *testing.T, workers int) *Store {
	t.Helper()
	s := NewStore()
	s.SetClock(fixedClock())
	for i := 0; i < workers; i++ {
		if _, err := s.AddWorker(i, fmt.Sprintf("w%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestWorkerCRUD(t *testing.T) {
	s := newTestStore(t, 2)
	w, err := s.GetWorker(1)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "w1" || !w.Online {
		t.Errorf("worker = %+v", w)
	}
	if _, err := s.AddWorker(1, "dup"); !errors.Is(err, ErrBadRequest) {
		t.Errorf("duplicate insert: %v", err)
	}
	if _, err := s.GetWorker(99); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing worker: %v", err)
	}
	if err := s.SetOnline(1, false); err != nil {
		t.Fatal(err)
	}
	if got := s.OnlineWorkers(); len(got) != 1 || got[0] != 0 {
		t.Errorf("OnlineWorkers = %v", got)
	}
	if err := s.SetOnline(42, true); !errors.Is(err, ErrNotFound) {
		t.Errorf("SetOnline missing: %v", err)
	}
	if s.NumWorkers() != 2 {
		t.Errorf("NumWorkers = %d", s.NumWorkers())
	}
}

func TestTaskLifecycle(t *testing.T) {
	s := newTestStore(t, 3)
	task, err := s.AddTask("What is a B+ tree?", []string{"b+", "tree"})
	if err != nil {
		t.Fatal(err)
	}
	if task.ID != 0 || task.Status != TaskOpen {
		t.Fatalf("task = %+v", task)
	}
	if err := s.Assign(task.ID, []int{0, 2}); err != nil {
		t.Fatal(err)
	}
	// Double assignment rejected.
	if err := s.Assign(task.ID, []int{1}); !errors.Is(err, ErrBadState) {
		t.Errorf("re-assign: %v", err)
	}
	// Unassigned worker cannot answer.
	if err := s.RecordAnswer(task.ID, 1, "hi"); !errors.Is(err, ErrNotAsked) {
		t.Errorf("unassigned answer: %v", err)
	}
	if err := s.RecordAnswer(task.ID, 0, "a sorted index"); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordAnswer(task.ID, 0, "again"); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate answer: %v", err)
	}
	if err := s.RecordAnswer(task.ID, 2, "a balanced tree"); err != nil {
		t.Fatal(err)
	}
	// Scoring someone who did not answer is rejected.
	if _, err := s.Resolve(task.ID, map[int]float64{1: 3}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("bogus score: %v", err)
	}
	rec, err := s.Resolve(task.ID, map[int]float64{0: 4, 2: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != TaskResolved {
		t.Errorf("status = %v", rec.Status)
	}
	for _, a := range rec.Answers {
		if a.Worker == 0 && a.Score != 4 {
			t.Errorf("score(0) = %v", a.Score)
		}
	}
	// Resolved counters bumped for answerers only.
	for id, want := range map[int]int{0: 1, 1: 0, 2: 1} {
		w, _ := s.GetWorker(id)
		if w.Resolved != want {
			t.Errorf("worker %d resolved = %d, want %d", id, w.Resolved, want)
		}
	}
	// Resolve twice fails.
	if _, err := s.Resolve(task.ID, nil); !errors.Is(err, ErrBadState) {
		t.Errorf("double resolve: %v", err)
	}
}

func TestAssignValidation(t *testing.T) {
	s := newTestStore(t, 1)
	task := mustAddTask(t, s, "t", nil)
	if err := s.Assign(task.ID, []int{7}); !errors.Is(err, ErrNotFound) {
		t.Errorf("assign to missing worker: %v", err)
	}
	if err := s.Assign(99, []int{0}); !errors.Is(err, ErrNotFound) {
		t.Errorf("assign missing task: %v", err)
	}
}

func TestListTasksByStatus(t *testing.T) {
	s := newTestStore(t, 1)
	a := mustAddTask(t, s, "a", nil)
	mustAddTask(t, s, "b", nil)
	if err := s.Assign(a.ID, []int{0}); err != nil {
		t.Fatal(err)
	}
	if got := s.ListTasks(TaskOpen); len(got) != 1 || got[0].Text != "b" {
		t.Errorf("open tasks = %v", got)
	}
	if got := s.ListTasks(TaskAssigned); len(got) != 1 || got[0].Text != "a" {
		t.Errorf("assigned tasks = %v", got)
	}
}

func TestGetTaskReturnsCopy(t *testing.T) {
	s := newTestStore(t, 1)
	task := mustAddTask(t, s, "x", []string{"x"})
	got, _ := s.GetTask(task.ID)
	got.Tokens[0] = "mutated"
	got2, _ := s.GetTask(task.ID)
	if got2.Tokens[0] != "x" {
		t.Error("GetTask leaked internal state")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := newTestStore(t, 3)
	task, err := s.AddTask("What is a B+ tree?", []string{"b+", "tree"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Assign(task.ID, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordAnswer(task.ID, 0, "index"); err != nil {
		t.Fatal(err)
	}
	mustAddTask(t, s, "open one", nil)

	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewStore()
	if err := restored.RestoreSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.NumWorkers() != 3 || restored.NumTasks() != 2 {
		t.Fatalf("restored %d workers, %d tasks", restored.NumWorkers(), restored.NumTasks())
	}
	got, err := restored.GetTask(task.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != TaskAssigned || len(got.Answers) != 1 || got.Answers[0].Text != "index" {
		t.Errorf("restored task = %+v", got)
	}
	// Ids keep incrementing after restore.
	next := mustAddTask(t, restored, "new", nil)
	if next.ID != 2 {
		t.Errorf("next id = %d, want 2", next.ID)
	}
}

// TestSnapshotStreamsTheWholeValueEncoding holds the row-at-a-time
// snapshot to the bytes json.Encoder writes for the whole snapshot
// value: store digests, replication and backups compare these bytes
// across nodes and versions.
func TestSnapshotStreamsTheWholeValueEncoding(t *testing.T) {
	whole := func(s *Store) []byte {
		snap := snapshot{NextTID: s.nextTID}
		for _, wk := range s.workers {
			snap.Workers = append(snap.Workers, *wk)
		}
		sort.Slice(snap.Workers, func(a, b int) bool { return snap.Workers[a].ID < snap.Workers[b].ID })
		for _, task := range s.tasks {
			snap.Tasks = append(snap.Tasks, cloneTask(task))
		}
		sort.Slice(snap.Tasks, func(a, b int) bool { return snap.Tasks[a].ID < snap.Tasks[b].ID })
		for id := range s.appliedForwards {
			snap.AppliedForwards = append(snap.AppliedForwards, id)
		}
		sort.Ints(snap.AppliedForwards)
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(snap); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	check := func(name string, s *Store) {
		t.Helper()
		var got bytes.Buffer
		if err := s.Snapshot(&got); err != nil {
			t.Fatal(err)
		}
		if want := whole(s); !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s:\n got %s\nwant %s", name, got.Bytes(), want)
		}
	}

	check("empty", NewStore())
	s := newTestStore(t, 4)
	check("workers only", s)
	if err := s.SetOnline(1, false); err != nil {
		t.Fatal(err)
	}
	a := mustAddTask(t, s, `<b>"B+" & trees</b>`, []string{"b+", "trees"})
	if err := s.Assign(a.ID, []int{0, 2}); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 2} {
		if err := s.RecordAnswer(a.ID, w, fmt.Sprintf("answer <%d>", w)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Resolve(a.ID, map[int]float64{0: 4.5, 2: 1}); err != nil {
		t.Fatal(err)
	}
	b := mustAddTask(t, s, "assigned, one answer", []string{"assigned"})
	if err := s.Assign(b.ID, []int{3}); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordAnswer(b.ID, 3, "x"); err != nil {
		t.Fatal(err)
	}
	mustAddTask(t, s, "no tokens", nil)
	empty := mustAddTask(t, s, "empty tokens", nil)
	s.tasks[empty.ID].Tokens = []string{} // as decoded from a snapshot that wrote []
	check("tasks", s)
	s.appliedForwards[9], s.appliedForwards[3] = true, true
	check("tasks and forwards", s)
}

func TestSnapshotFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.json")
	s := newTestStore(t, 1)
	mustAddTask(t, s, "t", nil)
	if err := writeFileAtomic(path, s.Snapshot); err != nil {
		t.Fatal(err)
	}
	restored := NewStore()
	if err := restored.RestoreSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	if restored.NumTasks() != 1 {
		t.Errorf("restored %d tasks", restored.NumTasks())
	}
	if err := restored.RestoreSnapshotFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing snapshot accepted")
	}
}

func TestRestoreRejectsCorruption(t *testing.T) {
	cases := map[string]string{
		"not json":          "{broken",
		"dangling assignee": `{"workers":[{"id":0}],"tasks":[{"id":0,"assigned":[7]}],"next_tid":1}`,
		"dangling answerer": `{"workers":[{"id":0}],"tasks":[{"id":0,"answers":[{"worker":9}]}],"next_tid":1}`,
		"duplicate worker":  `{"workers":[{"id":0},{"id":0}],"tasks":[],"next_tid":0}`,
		"duplicate task":    `{"workers":[],"tasks":[{"id":0},{"id":0}],"next_tid":1}`,
		"id beyond next":    `{"workers":[],"tasks":[{"id":5}],"next_tid":1}`,
	}
	for name, payload := range cases {
		s := newTestStore(t, 1)
		mustAddTask(t, s, "keep me", nil)
		if err := s.RestoreSnapshot(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: corruption accepted", name)
			continue
		}
		// A failed restore must leave the store untouched.
		if s.NumTasks() != 1 || s.NumWorkers() != 1 {
			t.Errorf("%s: failed restore mutated store", name)
		}
	}
}

func TestConcurrentStoreAccess(t *testing.T) {
	s := newTestStore(t, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				task, err := s.AddTask(fmt.Sprintf("t-%d-%d", g, i), nil)
				if err != nil {
					t.Error(err)
					return
				}
				if err := s.Assign(task.ID, []int{g}); err != nil {
					t.Error(err)
					return
				}
				if err := s.RecordAnswer(task.ID, g, "a"); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Resolve(task.ID, map[int]float64{g: 1}); err != nil {
					t.Error(err)
					return
				}
				s.OnlineWorkers()
				s.ListTasks(TaskResolved)
			}
		}(g)
	}
	wg.Wait()
	if s.NumTasks() != 400 {
		t.Errorf("NumTasks = %d, want 400", s.NumTasks())
	}
	for g := 0; g < 8; g++ {
		w, _ := s.GetWorker(g)
		if w.Resolved != 50 {
			t.Errorf("worker %d resolved = %d, want 50", g, w.Resolved)
		}
	}
}

func TestTaskStatusString(t *testing.T) {
	for st, want := range map[TaskStatus]string{
		TaskOpen: "open", TaskAssigned: "assigned", TaskResolved: "resolved",
	} {
		if st.String() != want {
			t.Errorf("String(%d) = %q", st, st.String())
		}
	}
	if !strings.Contains(TaskStatus(9).String(), "9") {
		t.Error("unknown status string")
	}
}

func mustAddTask(t *testing.T, s *Store, text string, tokens []string) TaskRecord {
	t.Helper()
	task, err := s.AddTask(text, tokens)
	if err != nil {
		t.Fatal(err)
	}
	return task
}
