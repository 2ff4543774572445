package crowddb

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"crowdselect/internal/core"
	"crowdselect/internal/corpus"
)

// durableRig is a full durable pipeline over a data directory: DB,
// concurrent model, manager.
type durableRig struct {
	db  *DB
	cm  *core.ConcurrentModel
	mgr *Manager
	d   *corpus.Dataset
}

// openDurable boots (or re-boots) the durable pipeline in dir. On a
// fresh directory it registers the dataset's workers and snapshots
// generation 1 from the supplied model; on a restored directory it
// loads the model checkpoint and replays the journal through the
// manager's feedback path.
func openDurable(t *testing.T, dir string, d *corpus.Dataset, fresh *core.Model, opts Options) *durableRig {
	t.Helper()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	var cm *core.ConcurrentModel
	if db.Fresh() {
		if fresh == nil {
			t.Fatal("fresh data dir but no model supplied")
		}
		cm = core.NewConcurrentModel(fresh)
		for i := range d.Workers {
			if _, err := db.Store().AddWorker(i, fmt.Sprintf("w%d", i)); err != nil {
				t.Fatal(err)
			}
		}
	} else {
		m, err := db.LoadModel()
		if err != nil {
			t.Fatal(err)
		}
		cm = core.NewConcurrentModel(m)
	}
	mgr, err := NewManager(db.Store(), d.Vocab, cm, 2)
	if err != nil {
		t.Fatal(err)
	}
	db.SetModelSnapshotter(cm.Save)
	db.SetQuiescer(mgr.Quiesce)
	if db.Fresh() {
		if err := db.Begin(); err != nil {
			t.Fatal(err)
		}
	} else {
		if err := db.Recover(mgr.ApplySkillFeedback); err != nil {
			t.Fatal(err)
		}
	}
	return &durableRig{db: db, cm: cm, mgr: mgr, d: d}
}

// resolveOneTask pushes one task end to end: submit, both answers,
// feedback.
func (r *durableRig) resolveOneTask(t *testing.T, text string, scores []float64) TaskRecord {
	t.Helper()
	sub, err := r.mgr.SubmitTask(context.Background(), text, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range sub.Workers {
		if err := r.mgr.CollectAnswer(sub.Task.ID, w, fmt.Sprintf("answer %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	sc := make(map[int]float64, len(sub.Workers))
	for i, w := range sub.Workers {
		sc[w] = scores[i%len(scores)]
	}
	rec, err := r.mgr.ResolveTask(context.Background(), sub.Task.ID, sc)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// assertModelsEqual compares worker posteriors element-wise, exactly.
func assertModelsEqual(t *testing.T, want, got *core.Model) {
	t.Helper()
	if len(want.LambdaW) != len(got.LambdaW) {
		t.Fatalf("models track %d vs %d workers", len(want.LambdaW), len(got.LambdaW))
	}
	for i := range want.LambdaW {
		for k := range want.LambdaW[i] {
			if want.LambdaW[i][k] != got.LambdaW[i][k] {
				t.Fatalf("LambdaW[%d][%d] = %v, want %v", i, k, got.LambdaW[i][k], want.LambdaW[i][k])
			}
			if want.NuW2[i][k] != got.NuW2[i][k] {
				t.Fatalf("NuW2[%d][%d] = %v, want %v", i, k, got.NuW2[i][k], want.NuW2[i][k])
			}
		}
	}
}

func TestDurableLifecycleAcrossReopen(t *testing.T) {
	d, model := trainedFixture(t)
	dir := t.TempDir()
	opts := Options{Sync: SyncAlways()}

	rig := openDurable(t, dir, d, model, opts)
	if rig.db.Generation() != 1 {
		t.Fatalf("generation after Begin = %d, want 1", rig.db.Generation())
	}
	var resolved []TaskRecord
	for i := 0; i < 5; i++ {
		resolved = append(resolved, rig.resolveOneTask(t, fmt.Sprintf("question %d about trees", i), []float64{4, 1}))
	}
	if err := rig.db.Store().SetOnline(0, false); err != nil {
		t.Fatal(err)
	}
	preModel := rig.cm.Unwrap()
	if err := rig.db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: snapshot restore + journal replay, no retraining.
	rig2 := openDurable(t, dir, d, nil, opts)
	defer rig2.db.Close()
	st := rig2.db.Store()
	if st.NumWorkers() != len(d.Workers) || st.NumTasks() != 5 {
		t.Fatalf("recovered %d workers / %d tasks", st.NumWorkers(), st.NumTasks())
	}
	for _, want := range resolved {
		got, err := st.GetTask(want.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != TaskResolved || len(got.Answers) != len(want.Answers) {
			t.Fatalf("task %d recovered as %+v", want.ID, got)
		}
		for i, a := range got.Answers {
			w := want.Answers[i]
			if a.Worker != w.Worker || a.Text != w.Text || a.Score != w.Score || !a.At.Equal(w.At) {
				t.Fatalf("task %d answer %d = %+v, want %+v", want.ID, i, a, w)
			}
		}
	}
	w0, err := st.GetWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	if w0.Online {
		t.Error("presence change lost across reopen")
	}
	// The replayed posteriors match the pre-crash model exactly.
	assertModelsEqual(t, preModel, rig2.cm.Unwrap())
	if stats := rig2.db.Stats(); stats.RecoveredRecords == 0 {
		t.Error("recovery stats report no replayed records")
	}
}

func TestCompactionRotatesGenerations(t *testing.T) {
	d, model := trainedFixture(t)
	dir := t.TempDir()
	rig := openDurable(t, dir, d, model, Options{Sync: SyncAlways()})

	rig.resolveOneTask(t, "first era question", []float64{3, 2})
	if err := rig.db.Compact(); err != nil {
		t.Fatal(err)
	}
	if rig.db.Generation() != 2 {
		t.Fatalf("generation after compaction = %d, want 2", rig.db.Generation())
	}
	// The generation's stamps are its bytes: the sidecar's digests hash
	// the files the one-pass write left on disk, and equal the live
	// state's digests at the cut.
	sc := readSidecar(t, dir, 2)
	for pat, stamp := range map[string]string{snapshotPattern: sc.StoreDigest, modelPattern: sc.ModelDigest} {
		b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf(pat, uint64(2))))
		if err != nil {
			t.Fatal(err)
		}
		if got := sha256Hex(b); got != stamp {
			t.Errorf("%s hashes to %s, sidecar stamps %s", fmt.Sprintf(pat, uint64(2)), got, stamp)
		}
	}
	storeDigest, err := rig.db.Store().Digest()
	if err != nil {
		t.Fatal(err)
	}
	modelDigest, err := rig.cm.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if storeDigest != sc.StoreDigest || modelDigest != sc.ModelDigest {
		t.Errorf("live digests (store %s, model %s) at the cut, sidecar stamps (%s, %s)",
			storeDigest, modelDigest, sc.StoreDigest, sc.ModelDigest)
	}
	// Old generation files are gone; new ones exist.
	for _, pat := range []string{snapshotPattern, modelPattern, journalPattern} {
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf(pat, uint64(1)))); !os.IsNotExist(err) {
			t.Errorf("generation 1 file %s survived compaction", fmt.Sprintf(pat, uint64(1)))
		}
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf(pat, uint64(2)))); err != nil {
			t.Errorf("generation 2 file %s missing: %v", fmt.Sprintf(pat, uint64(2)), err)
		}
	}
	// Post-compaction mutations land in the rotated journal and
	// survive a reopen alongside the snapshotted state.
	rig.resolveOneTask(t, "second era question", []float64{5, 0})
	preModel := rig.cm.Unwrap()
	if err := rig.db.Close(); err != nil {
		t.Fatal(err)
	}

	rig2 := openDurable(t, dir, d, nil, Options{Sync: SyncAlways()})
	defer rig2.db.Close()
	if rig2.db.Generation() != 2 {
		t.Fatalf("reopened at generation %d, want 2", rig2.db.Generation())
	}
	if rig2.db.Store().NumTasks() != 2 {
		t.Fatalf("recovered %d tasks, want 2", rig2.db.Store().NumTasks())
	}
	assertModelsEqual(t, preModel, rig2.cm.Unwrap())
}

func TestOpenFallsBackPastCorruptSnapshot(t *testing.T) {
	d, model := trainedFixture(t)
	dir := t.TempDir()
	rig := openDurable(t, dir, d, model, Options{Sync: SyncAlways()})
	rig.resolveOneTask(t, "durable question", []float64{4, 2})
	if err := rig.db.Close(); err != nil {
		t.Fatal(err)
	}
	// A corrupt newer snapshot generation must not mask the valid one.
	bad := filepath.Join(dir, fmt.Sprintf(snapshotPattern, uint64(9)))
	if err := os.WriteFile(bad, []byte("{not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	rig2 := openDurable(t, dir, d, nil, Options{Sync: SyncAlways()})
	defer rig2.db.Close()
	if rig2.db.Generation() != 1 {
		t.Fatalf("recovered generation %d, want fallback to 1", rig2.db.Generation())
	}
	if rig2.db.Store().NumTasks() != 1 {
		t.Errorf("fallback recovery lost the journaled task")
	}
}

func TestAutoCompactionTriggersOnRecordCount(t *testing.T) {
	d, model := trainedFixture(t)
	dir := t.TempDir()
	rig := openDurable(t, dir, d, model, Options{
		Sync:                SyncAlways(),
		CompactEveryRecords: 5,
	})
	defer rig.db.Close()

	for i := 0; i < 3; i++ {
		rig.resolveOneTask(t, fmt.Sprintf("auto compaction question %d", i), []float64{3, 1})
	}
	deadline := time.Now().Add(5 * time.Second)
	for rig.db.Generation() < 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if gen := rig.db.Generation(); gen < 2 {
		t.Fatalf("auto-compaction never fired (generation %d)", gen)
	}
	if rig.db.Stats().Compactions == 0 {
		t.Error("compaction counter not bumped")
	}
}

// TestAutoCompactionOfARecoveredJournal: a journal that is already past
// the threshold when it is recovered compacts at boot, with no append
// to wake the loop.
func TestAutoCompactionOfARecoveredJournal(t *testing.T) {
	d, model := trainedFixture(t)
	dir := t.TempDir()
	rig := openDurable(t, dir, d, model, Options{Sync: SyncAlways()})
	rig.resolveOneTask(t, "recovered journal question", []float64{3, 1})
	if err := rig.db.Close(); err != nil {
		t.Fatal(err)
	}
	rig = openDurable(t, dir, d, nil, Options{Sync: SyncAlways(), CompactEveryRecords: 5})
	defer rig.db.Close()
	deadline := time.Now().Add(5 * time.Second)
	for rig.db.Generation() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if gen := rig.db.Generation(); gen != 2 {
		t.Fatalf("generation %d after recovering a journal past the threshold, want 2", gen)
	}
}
