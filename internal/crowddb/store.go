// Package crowddb implements the crowdsourcing-database substrate of
// §2 of the paper (Figure 1): the crowd database storing workers,
// tasks and answers (supporting crowd insertion, update and
// retrieval), the crowd manager that projects incoming tasks and
// selects the right workers, the task dispatcher, and the answer
// collector. An HTTP server exposes the pipeline.
package crowddb

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"crowdselect/internal/clock"
	"crowdselect/internal/core"
)

// TaskStatus tracks a task through the Figure 1 pipeline.
type TaskStatus int

const (
	// TaskOpen means the task is stored but not yet dispatched.
	TaskOpen TaskStatus = iota
	// TaskAssigned means workers were selected and the dispatcher
	// distributed the task.
	TaskAssigned
	// TaskResolved means feedback was recorded and skills updated.
	TaskResolved
)

// String renders the status.
func (s TaskStatus) String() string {
	switch s {
	case TaskOpen:
		return "open"
	case TaskAssigned:
		return "assigned"
	case TaskResolved:
		return "resolved"
	default:
		return fmt.Sprintf("TaskStatus(%d)", int(s))
	}
}

// Worker is a crowd worker row.
type Worker struct {
	ID       int       `json:"id"`
	Name     string    `json:"name"`
	Online   bool      `json:"online"`
	Resolved int       `json:"resolved"`
	Joined   time.Time `json:"joined"`
}

// Answer is one collected answer.
type Answer struct {
	Worker int       `json:"worker"`
	Text   string    `json:"text"`
	Score  float64   `json:"score"`
	At     time.Time `json:"at"`
}

// TaskRecord is a task row with its assignment and answers.
type TaskRecord struct {
	ID       int        `json:"id"`
	Text     string     `json:"text"`
	Tokens   []string   `json:"tokens"`
	Status   TaskStatus `json:"status"`
	Assigned []int      `json:"assigned,omitempty"`
	Answers  []Answer   `json:"answers,omitempty"`
	Created  time.Time  `json:"created"`
	// AssignedAt stamps the latest dispatch (zero while open).
	AssignedAt time.Time `json:"assigned_at,omitempty"`
}

// Errors returned by the store.
var (
	ErrNotFound   = errors.New("crowddb: not found")
	ErrBadState   = refuse(ErrBadRequest, "crowddb: invalid task state for operation")
	ErrNotAsked   = refuse(ErrBadRequest, "crowddb: worker was not assigned this task")
	ErrDuplicate  = refuse(ErrBadRequest, "crowddb: duplicate answer")
	ErrBadRequest = errors.New("crowddb: invalid request")
	// ErrDegraded seals mutations while the database is in degraded
	// read-only mode after a journal write failure: reads and pure
	// selections keep working, writes are refused until the disk heals.
	ErrDegraded = errors.New("crowddb: degraded read-only mode (journal write failure)")
)

// Store is the crowd database. It is safe for concurrent use. The zero
// value is not usable; call NewStore.
type Store struct {
	mu      sync.RWMutex
	workers map[int]*Worker
	tasks   map[int]*TaskRecord
	nextTID int
	// shardIdx/shardCnt stride task-id assignment for a sharded fleet:
	// with shardCnt > 1 this store only mints ids ≡ shardIdx (mod
	// shardCnt), so a task id names its home shard and ids stay unique
	// fleet-wide without coordination. shardCnt == 0 means dense ids.
	shardIdx int
	shardCnt int
	// appliedForwards records the home-shard task ids whose forwarded
	// skill feedback this node has already folded (journal ForwardOf
	// keys). It is what makes cross-shard forwarding idempotent: a
	// coordinator retrying a failed leg cannot double-apply a
	// posterior update. Persisted in snapshots and rebuilt by replay.
	appliedForwards map[int]bool
	clock           clock.Clock    // stamps mutations; set before the store is shared
	journal         *journalWriter // nil unless a journal is attached
	// tenant is the namespace this store belongs to (DESIGN §13);
	// empty means the default tenant. Non-default stores stamp the
	// name on every journal record and refuse records stamped for a
	// different namespace on replay.
	tenant string
	// sealed is the degraded read-only gate: mutations refused while
	// set. Atomic (not under mu) because the durability layer seals
	// from inside a journal append, where mu is already held.
	sealed atomic.Bool
	// online caches the sorted online-id set so that a selection reads
	// presence without taking mu. The three writers of presence
	// (AddWorker, SetOnline, RestoreSnapshot) set it to nil while they
	// hold mu; the next reader rebuilds it (onlineSnapshot).
	online atomic.Pointer[onlineSet]
}

// onlineSet is one immutable snapshot of the online worker ids,
// sorted, with len == cap, and their membership bitset, built once per
// presence change so that no selection rebuilds it. Its identity stands
// for its contents: the store publishes a new one only after presence
// changed, so a holder may key derived data on the pointer
// (Manager.candidateWorkers).
type onlineSet struct{ cands core.Candidates }

// NewStore returns an empty crowd database.
func NewStore() *Store {
	return &Store{
		workers:         make(map[int]*Worker),
		tasks:           make(map[int]*TaskRecord),
		appliedForwards: make(map[int]bool),
		clock:           clock.Real,
	}
}

// Seal flips the store into degraded read-only mode: every mutator
// returns ErrDegraded until Unseal. Reads and snapshots are untouched.
// The durability layer seals on journal write failure so no mutation
// can be acknowledged that would not survive a crash.
func (s *Store) Seal() { s.sealed.Store(true) }

// Unseal reopens the store for mutations after the disk has healed.
func (s *Store) Unseal() { s.sealed.Store(false) }

// sealedErrLocked is the mutation gate; callers hold s.mu.
func (s *Store) sealedErrLocked() error {
	if s.sealed.Load() {
		return ErrDegraded
	}
	return nil
}

// ConfigureTaskIDStride homes this store's task ids on shard index of
// count: every id it mints satisfies id ≡ index (mod count). Configure
// before recovery and before traffic — replayed AddTask events verify
// their recorded ids against the stride, so a store recovered under a
// different shard identity fails loudly instead of renumbering.
// count <= 1 restores dense ids.
func (s *Store) ConfigureTaskIDStride(index, count int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if count <= 1 {
		s.shardIdx, s.shardCnt = 0, 0
		return
	}
	s.shardIdx, s.shardCnt = index, count
	s.alignTIDLocked()
}

// alignTIDLocked advances nextTID to the smallest id >= nextTID on
// this shard's stride.
func (s *Store) alignTIDLocked() {
	if s.shardCnt <= 1 {
		return
	}
	for s.nextTID%s.shardCnt != s.shardIdx {
		s.nextTID++
	}
}

// SetTenant names the tenant namespace this store belongs to
// (DESIGN §13). Call once at boot, before mutations: a non-default
// name is stamped on every journal record, and replay/replication
// apply refuse records stamped for a different namespace. The empty
// string and DefaultTenant are equivalent.
func (s *Store) SetTenant(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tenant = name
}

// AddWorker inserts a worker with the given id (the id must match the
// selection model's worker index) and returns it. Re-adding an id is
// an error. With a journal attached, the insertion is applied even if
// the journal write fails; the returned error then reports the journal
// failure.
func (s *Store) AddWorker(id int, name string) (Worker, error) {
	return s.addWorker(s.clock.Now(), id, name)
}

func (s *Store) addWorker(at time.Time, id int, name string) (Worker, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.sealedErrLocked(); err != nil {
		return Worker{}, err
	}
	if _, ok := s.workers[id]; ok {
		return Worker{}, fmt.Errorf("%w: worker %d exists", ErrBadRequest, id)
	}
	w := &Worker{ID: id, Name: name, Online: true, Joined: at}
	return *w, s.logEvent(event{Kind: evAddWorker, Worker: id, Name: name, At: at}, func() {
		s.workers[id] = w
		s.online.Store(nil)
	})
}

// GetWorker retrieves a worker by id.
func (s *Store) GetWorker(id int) (Worker, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	w, ok := s.workers[id]
	if !ok {
		return Worker{}, fmt.Errorf("%w: worker %d", ErrNotFound, id)
	}
	return *w, nil
}

// SetOnline flips a worker's presence flag (the "workers online"
// filter of §2).
func (s *Store) SetOnline(id int, online bool) error { return s.setOnline(s.clock.Now(), id, online) }

func (s *Store) setOnline(at time.Time, id int, online bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.sealedErrLocked(); err != nil {
		return err
	}
	w, ok := s.workers[id]
	if !ok {
		return fmt.Errorf("%w: worker %d", ErrNotFound, id)
	}
	return s.logEvent(event{Kind: evPresence, Worker: id, Online: &online, At: at}, func() {
		if w.Online != online {
			w.Online = online
			s.online.Store(nil)
		}
	})
}

// OnlineWorkers returns the ids of all online workers, sorted. The
// slice is a snapshot shared with every other caller (like
// core.Model.Skills it aliases store state): callers must not modify
// it. Its len equals its cap, so appending to it copies. A presence
// change is seen by the next call; a slice already returned never
// changes.
func (s *Store) OnlineWorkers() []int { return s.onlineSnapshot().cands.IDs() }

// NumOnline returns the number of online workers.
func (s *Store) NumOnline() int { return len(s.onlineSnapshot().cands.IDs()) }

// onlineSnapshot returns the current online set without taking mu
// unless a presence change dropped it; then the first reader rebuilds
// it under the read lock, which excludes the writers that drop it, so
// a set published here is never older than the last change.
func (s *Store) onlineSnapshot() *onlineSet {
	if set := s.online.Load(); set != nil {
		return set
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if set := s.online.Load(); set != nil {
		return set
	}
	var ids []int
	for id, w := range s.workers {
		if w.Online {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	set := &onlineSet{cands: core.NewCandidates(ids[:len(ids):len(ids)])}
	// Readers that raced past the check above built the same set; all
	// of them return the one that was published first.
	if !s.online.CompareAndSwap(nil, set) {
		set = s.online.Load()
	}
	return set
}

// NumWorkers returns the worker count.
func (s *Store) NumWorkers() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.workers)
}

// Workers returns a copy of every worker row, sorted by id (crowd
// retrieval, §2).
func (s *Store) Workers() []Worker {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Worker, 0, len(s.workers))
	for _, w := range s.workers {
		out = append(out, *w)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// AddTask inserts a new open task and returns it. Journal write failures are
// reported after the insertion is applied.
func (s *Store) AddTask(text string, tokens []string) (TaskRecord, error) {
	return s.addTask(s.clock.Now(), text, tokens)
}

func (s *Store) addTask(at time.Time, text string, tokens []string) (TaskRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.sealedErrLocked(); err != nil {
		return TaskRecord{}, err
	}
	t := &TaskRecord{
		ID:      s.nextTID,
		Text:    text,
		Tokens:  append([]string(nil), tokens...),
		Status:  TaskOpen,
		Created: at,
	}
	return *t, s.logEvent(event{Kind: evAddTask, Task: t.ID, Text: text, Tokens: t.Tokens, At: at}, func() {
		s.nextTID += max(s.shardCnt, 1) // the shard stride; shardCnt is 0 or >= 2
		s.tasks[t.ID] = t
	})
}

// GetTask retrieves a task by id.
func (s *Store) GetTask(id int) (TaskRecord, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tasks[id]
	if !ok {
		return TaskRecord{}, fmt.Errorf("%w: task %d", ErrNotFound, id)
	}
	return cloneTask(t), nil
}

// ListTasks returns all tasks with the given status, sorted by id.
func (s *Store) ListTasks(status TaskStatus) []TaskRecord {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []TaskRecord
	for _, t := range s.tasks {
		if t.Status == status {
			out = append(out, cloneTask(t))
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// NumTasks returns the task count.
func (s *Store) NumTasks() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tasks)
}

// Assign records the dispatcher's selection for an open task and moves
// it to TaskAssigned. Every assigned worker must exist.
func (s *Store) Assign(taskID int, workers []int) error {
	return s.assign(s.clock.Now(), taskID, workers)
}

func (s *Store) assign(at time.Time, taskID int, workers []int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.sealedErrLocked(); err != nil {
		return err
	}
	t, ok := s.tasks[taskID]
	if !ok {
		return fmt.Errorf("%w: task %d", ErrNotFound, taskID)
	}
	if t.Status != TaskOpen {
		return fmt.Errorf("%w: task %d is %v", ErrBadState, taskID, t.Status)
	}
	for _, w := range workers {
		if _, ok := s.workers[w]; !ok {
			return fmt.Errorf("%w: worker %d", ErrNotFound, w)
		}
	}
	return s.logEvent(event{Kind: evAssign, Task: taskID, Workers: workers, At: at}, func() {
		t.Assigned = append([]int(nil), workers...)
		t.Status = TaskAssigned
		t.AssignedAt = at
	})
}

// RecordAnswer stores an answer from an assigned worker.
func (s *Store) RecordAnswer(taskID, workerID int, answerText string) error {
	return s.recordAnswer(s.clock.Now(), taskID, workerID, answerText)
}

func (s *Store) recordAnswer(at time.Time, taskID, workerID int, answerText string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.sealedErrLocked(); err != nil {
		return err
	}
	t, ok := s.tasks[taskID]
	if !ok {
		return fmt.Errorf("%w: task %d", ErrNotFound, taskID)
	}
	if t.Status != TaskAssigned {
		return fmt.Errorf("%w: task %d is %v", ErrBadState, taskID, t.Status)
	}
	assigned := false
	for _, w := range t.Assigned {
		if w == workerID {
			assigned = true
			break
		}
	}
	if !assigned {
		return fmt.Errorf("%w: worker %d on task %d", ErrNotAsked, workerID, taskID)
	}
	for _, a := range t.Answers {
		if a.Worker == workerID {
			return fmt.Errorf("%w: worker %d on task %d", ErrDuplicate, workerID, taskID)
		}
	}
	return s.logEvent(event{Kind: evAnswer, Task: taskID, Worker: workerID, Answer: answerText, At: at}, func() {
		t.Answers = append(t.Answers, Answer{Worker: workerID, Text: answerText, At: at})
	})
}

// Resolve records feedback scores for the answers of an assigned task,
// moves it to TaskResolved, bumps the answerers' resolved counters and
// returns the final record. Scores for workers who did not answer are
// rejected.
func (s *Store) Resolve(taskID int, scores map[int]float64) (TaskRecord, error) {
	return s.resolve(s.clock.Now(), taskID, scores)
}

func (s *Store) resolve(at time.Time, taskID int, scores map[int]float64) (TaskRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.sealedErrLocked(); err != nil {
		return TaskRecord{}, err
	}
	t, ok := s.tasks[taskID]
	if !ok {
		return TaskRecord{}, fmt.Errorf("%w: task %d", ErrNotFound, taskID)
	}
	if t.Status != TaskAssigned {
		return TaskRecord{}, fmt.Errorf("%w: task %d is %v", ErrBadState, taskID, t.Status)
	}
	answered := make(map[int]int, len(t.Answers))
	for i, a := range t.Answers {
		answered[a.Worker] = i
	}
	for w := range scores {
		if _, ok := answered[w]; !ok {
			return TaskRecord{}, fmt.Errorf("%w: score for worker %d who did not answer task %d", ErrBadRequest, w, taskID)
		}
	}
	err := s.logEvent(event{Kind: evResolve, Task: taskID, Scores: scores, At: at}, func() {
		for w, sc := range scores {
			t.Answers[answered[w]].Score = sc
		}
		for _, a := range t.Answers {
			s.workers[a.Worker].Resolved++
		}
		t.Status = TaskResolved
	})
	return cloneTask(t), err
}

func cloneTask(t *TaskRecord) TaskRecord {
	c := *t
	c.Tokens = append([]string(nil), t.Tokens...)
	c.Assigned = append([]int(nil), t.Assigned...)
	c.Answers = append([]Answer(nil), t.Answers...)
	return c
}

// snapshot is the persisted form of the store. AppliedForwards is the
// idempotency set for cross-shard skill-feedback forwards: without it
// a compaction would forget which forwards were folded and a retried
// leg could double-apply after restart.
type snapshot struct {
	Workers         []Worker     `json:"workers"`
	Tasks           []TaskRecord `json:"tasks"`
	NextTID         int          `json:"next_tid"`
	AppliedForwards []int        `json:"applied_forwards,omitempty"`
}

// snapshotLocked writes a consistent JSON snapshot of the store to w
// with s.mu already held (compaction holds the write lock so the
// snapshot and the journal rotation are one atomic cut). It writes json.Encoder's encoding of a snapshot value
// byte for byte, but one row at a time, so a snapshot costs row-sized
// buffers rather than one the size of the whole store.
func (s *Store) snapshotLocked(w io.Writer) error {
	workers := make([]*Worker, 0, len(s.workers))
	for _, wk := range s.workers {
		workers = append(workers, wk)
	}
	sort.Slice(workers, func(a, b int) bool { return workers[a].ID < workers[b].ID })
	tasks := make([]*TaskRecord, 0, len(s.tasks))
	for _, t := range s.tasks {
		tasks = append(tasks, t)
	}
	sort.Slice(tasks, func(a, b int) bool { return tasks[a].ID < tasks[b].ID })
	forwards := make([]int, 0, len(s.appliedForwards))
	for id := range s.appliedForwards {
		forwards = append(forwards, id)
	}
	sort.Ints(forwards)

	rw := &rowWriter{w: w}
	rw.enc = json.NewEncoder(&rw.row)
	rw.raw(`{"workers":`)
	rw.array(len(workers), func(i int) any { return workers[i] })
	rw.raw(`,"tasks":`)
	var row TaskRecord
	rw.array(len(tasks), func(i int) any {
		row = *tasks[i]
		if len(row.Tokens) == 0 {
			row.Tokens = nil // null, as a cloned row has always encoded
		}
		return &row
	})
	rw.raw(`,"next_tid":` + strconv.Itoa(s.nextTID))
	if len(forwards) > 0 {
		rw.raw(`,"applied_forwards":`)
		rw.value(forwards)
	}
	rw.raw("}\n")
	if rw.err != nil {
		return fmt.Errorf("crowddb: snapshot: %w", rw.err)
	}
	return nil
}

// rowWriter streams a JSON document to w a piece at a time, keeping the
// first error.
type rowWriter struct {
	w   io.Writer
	row bytes.Buffer
	enc *json.Encoder // encodes into row
	err error
}

func (rw *rowWriter) raw(s string) {
	if rw.err == nil {
		_, rw.err = io.WriteString(rw.w, s)
	}
}

// value writes v's encoding without the encoder's trailing newline.
func (rw *rowWriter) value(v any) {
	if rw.err != nil {
		return
	}
	rw.row.Reset()
	if rw.err = rw.enc.Encode(v); rw.err == nil {
		_, rw.err = rw.w.Write(rw.row.Bytes()[:rw.row.Len()-1])
	}
}

// array writes n rows as a JSON array, or null when n is 0 — how a nil
// slice encodes.
func (rw *rowWriter) array(n int, at func(int) any) {
	if n == 0 {
		rw.raw("null")
		return
	}
	rw.raw("[")
	for i := 0; i < n; i++ {
		if i > 0 {
			rw.raw(",")
		}
		rw.value(at(i))
	}
	rw.raw("]")
}

// writeFileAtomic writes fill's output to path via temp+fsync+rename
// so readers only ever see a complete file, even across a crash.
func writeFileAtomic(path string, fill func(io.Writer) error) error {
	tmp, err := stageFile(path, fill)
	if err != nil {
		return err
	}
	defer os.Remove(tmp)
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// stageFile is writeFileAtomic up to the rename: fill's output, fsynced
// in a temp file beside path, whose name it returns. The caller renames
// it into place or removes it; on error nothing is left behind.
func stageFile(path string, fill func(io.Writer) error) (string, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".crowddb-*")
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(tmp)
	err = fill(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	return tmp.Name(), nil
}

// fromBytes is the fill function of bytes already in hand.
func fromBytes(b []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}
}

// syncDir fsyncs a directory so renames and creates within it are
// durable. Filesystems that cannot sync directories are tolerated.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return err
	}
	return nil
}

// RestoreSnapshot replaces the store contents with a snapshot read
// from r. The snapshot is validated before any state is replaced, so a
// corrupted snapshot leaves the store untouched.
func (s *Store) RestoreSnapshot(r io.Reader) error {
	var snap snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("crowddb: restore: %w", err)
	}
	workers := make(map[int]*Worker, len(snap.Workers))
	for _, w := range snap.Workers {
		w := w
		if _, dup := workers[w.ID]; dup {
			return fmt.Errorf("crowddb: restore: duplicate worker %d", w.ID)
		}
		workers[w.ID] = &w
	}
	tasks := make(map[int]*TaskRecord, len(snap.Tasks))
	for _, t := range snap.Tasks {
		t := t
		if _, dup := tasks[t.ID]; dup {
			return fmt.Errorf("crowddb: restore: duplicate task %d", t.ID)
		}
		if t.ID >= snap.NextTID {
			return fmt.Errorf("crowddb: restore: task %d beyond next id %d", t.ID, snap.NextTID)
		}
		for _, w := range t.Assigned {
			if _, ok := workers[w]; !ok {
				return fmt.Errorf("crowddb: restore: task %d assigned to missing worker %d", t.ID, w)
			}
		}
		for _, a := range t.Answers {
			if _, ok := workers[a.Worker]; !ok {
				return fmt.Errorf("crowddb: restore: task %d answered by missing worker %d", t.ID, a.Worker)
			}
		}
		tasks[t.ID] = &t
	}
	forwards := make(map[int]bool, len(snap.AppliedForwards))
	for _, id := range snap.AppliedForwards {
		forwards[id] = true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.takeRowsLocked(&Store{workers: workers, tasks: tasks, nextTID: snap.NextTID, appliedForwards: forwards})
	return nil
}

// takeRowsLocked moves from's rows — workers, tasks, next id and the
// applied-forward set — into s, which keeps its journal, tenant, stride
// and seal. Callers hold s.mu; from is not used again.
func (s *Store) takeRowsLocked(from *Store) {
	s.workers, s.tasks, s.nextTID, s.appliedForwards = from.workers, from.tasks, from.nextTID, from.appliedForwards
	s.online.Store(nil)
	// A snapshot written before this node was sharded may leave nextTID
	// off this shard's stride; realign forward so freshly minted ids
	// stay on it.
	s.alignTIDLocked()
}
