package crowddb

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"crowdselect/internal/clock"
	"crowdselect/internal/core"
	"crowdselect/internal/corpus"
	"crowdselect/internal/faultfs"
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
// boots through RecoverWith, over d's vocabulary.
func openDurable(t *testing.T, dir string, d *corpus.Dataset, fresh *core.Model, opts Options) *durableRig {
	t.Helper()
	opts.Clock = cmp.Or[clock.Clock](opts.Clock, testClock(t))
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	rig := &durableRig{db: db, d: d}
	if !db.Fresh() {
		if rig.mgr, rig.cm, err = db.RecoverWith(datasetBuilder(d)); err != nil {
			t.Fatal(err)
		}
		return rig
	}
	if fresh == nil {
		t.Fatal("fresh data dir but no model supplied")
	}
	for i := range d.Workers {
		if _, err := db.Store().AddWorker(i, fmt.Sprintf("w%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	rig.cm = core.NewConcurrentModel(fresh)
	if rig.mgr, err = NewManager(db.Store(), d.Vocab, rig.cm, 2); err != nil {
		t.Fatal(err)
	}
	db.SetModelSnapshotter(rig.cm.Save)
	db.SetQuiescer(rig.mgr.Quiesce)
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	return rig
}

// datasetBuilder is a ReplicaBuilder over d's vocabulary, whatever
// dataset file the directory holds.
func datasetBuilder(d *corpus.Dataset) ReplicaBuilder {
	return func(_ string, model *core.Model, store *Store) (*Manager, *core.ConcurrentModel, error) {
		cm := core.NewConcurrentModel(model)
		mgr, err := NewManager(store, d.Vocab, cm, 2)
		return mgr, cm, err
	}
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

// TestOversizeRecordRefusedBeforeTheStoreChanges: a task body under the
// 1 MiB body cap can make an add_task record over the journal's 1 MiB
// record cap (each '<' is six bytes escaped, and every token is written
// again). Acknowledging it wrote a journal the next boot refused as
// corrupt; the mutation is now refused 413 request_too_large before the
// store changes, the node stays writable, and the restart boots with
// the acknowledged tasks and nothing else.
func TestOversizeRecordRefusedBeforeTheStoreChanges(t *testing.T) {
	d, model := trainedFixture(t)
	dir := t.TempDir()
	opts := Options{Sync: SyncAlways()}
	rig := openDurable(t, dir, d, model, opts)
	ts := httptest.NewServer(newNode(t, TenantConfig{Manager: rig.mgr, Degraded: rig.db.Degraded}, NodeConfig{}))
	defer ts.Close()
	submit := func(text string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/api/v1/tasks", "application/json", strings.NewReader(`{"text":"`+text+`","k":2}`))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if resp := submit("a small question about trees"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("small task: %s", resp.Status)
	}

	big := strings.Repeat("word< ", 119_467) // a 716 819-byte body
	resp := submit(big)
	env := decode[ErrorEnvelope](t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || env.Error.Code != "request_too_large" {
		t.Fatalf("oversize record: %s %+v, want 413 %s", resp.Status, env.Error, "request_too_large")
	}
	if n := rig.db.Store().NumTasks(); n != 1 {
		t.Fatalf("the refused task changed the store: %d tasks, want 1", n)
	}
	if rig.db.Degraded() {
		t.Fatal("the refusal entered degraded mode")
	}
	if resp := submit("another small question"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("a task after the refusal: %s", resp.Status)
	}
	ts.Close()
	if err := rig.db.Close(); err != nil {
		t.Fatal(err)
	}

	rig = openDurable(t, dir, d, nil, opts)
	defer rig.db.Close()
	if n := rig.db.Store().NumTasks(); n != 2 {
		t.Fatalf("restart recovered %d tasks, want 2", n)
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

// dirContents maps every file in dir to its bytes: a refused boot must
// leave it exactly as it found it.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}

// assertBootRefused opens dir and fails unless Open refuses with a
// *ScrubError naming path and leaves every file in dir as it was.
func assertBootRefused(t *testing.T, dir, path string) {
	t.Helper()
	before := dirContents(t, dir)
	db, err := Open(dir, Options{Sync: SyncAlways()})
	var se *ScrubError
	if !errors.As(err, &se) || se.Path != path {
		if db != nil {
			t.Errorf("booted generation %d (fresh=%v, %d tasks)", db.Generation(), db.Fresh(), db.Store().NumTasks())
			db.Close()
		}
		t.Fatalf("Open = %v, want a *ScrubError naming %s", err, path)
	}
	if after := dirContents(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("a refused boot rewrote the data directory")
	}
}

// TestOpenRefusesCorruptNewestSnapshot: the newest snapshot is the only
// boot candidate. An unparseable one refuses the boot, naming it — an
// older intact generation beside it is a leftover, not a fallback that
// would drop whatever was acked after it.
func TestOpenRefusesCorruptNewestSnapshot(t *testing.T) {
	d, model := trainedFixture(t)
	dir := t.TempDir()
	rig := openDurable(t, dir, d, model, Options{Sync: SyncAlways()})
	rig.resolveOneTask(t, "durable question", []float64{4, 2})
	if err := rig.db.Close(); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, fmt.Sprintf(snapshotPattern, uint64(9)))
	if err := os.WriteFile(bad, []byte("{not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	assertBootRefused(t, dir, bad)
}

// TestBootRefusesRottenSoleGeneration: one unparseable byte in the only
// snapshot refuses the boot. The directory must not read as fresh: a
// daemon would re-seed it and write a new generation 1 over the acked
// journal.
func TestBootRefusesRottenSoleGeneration(t *testing.T) {
	d, model := trainedFixture(t)
	dir := t.TempDir()
	rig := openDurable(t, dir, d, model, Options{Sync: SyncAlways()})
	rig.resolveOneTask(t, "acked in the sole generation", []float64{4, 2})
	if err := rig.db.Close(); err != nil {
		t.Fatal(err)
	}
	spath := filepath.Join(dir, fmt.Sprintf(snapshotPattern, uint64(1)))
	if err := faultfs.OverwriteByte(spath, 0, 'X'); err != nil {
		t.Fatal(err)
	}
	assertBootRefused(t, dir, spath)
}

// TestBootRefusesMissingUnstampedModel: every generation holds a model
// checkpoint, so one without it refuses the boot naming the file, even
// when its sidecar predates digest stamps and so promises no model.
func TestBootRefusesMissingUnstampedModel(t *testing.T) {
	d, model := trainedFixture(t)
	dir := t.TempDir()
	rig := openDurable(t, dir, d, model, Options{Sync: SyncAlways()})
	rig.resolveOneTask(t, "acked in the sole generation", []float64{4, 2})
	if err := rig.db.Close(); err != nil {
		t.Fatal(err)
	}
	sc := readSidecar(t, dir, 1)
	sc.Digest, sc.ModelDigest, sc.StoreDigest = "", "", ""
	b, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf(replPattern, uint64(1))), b, 0o644); err != nil {
		t.Fatal(err)
	}
	mpath := filepath.Join(dir, fmt.Sprintf(modelPattern, uint64(1)))
	if err := os.Remove(mpath); err != nil {
		t.Fatal(err)
	}
	assertBootRefused(t, dir, mpath)
}

// TestOpenRefusesJournalWithoutSnapshot: a directory holding a journal
// and no snapshot — a restore interrupted before its commit — is not
// fresh: seeding it would replay the archived records over a new model.
func TestOpenRefusesJournalWithoutSnapshot(t *testing.T) {
	d, model := trainedFixture(t)
	src := t.TempDir()
	rig := openDurable(t, src, d, model, Options{Sync: SyncAlways()})
	rig.resolveOneTask(t, "an archived record", []float64{4, 2})
	if err := rig.db.Close(); err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprintf(journalPattern, uint64(1))
	journal, err := os.ReadFile(filepath.Join(src, name))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	assertBootRefused(t, dir, filepath.Join(dir, name))
}

// TestCompactionKeepsAckedWritesWhenNewJournalFails: a compaction whose
// next journal cannot be opened fails before its commit, so the writes
// acked after it land in a journal the next boot replays.
func TestCompactionKeepsAckedWritesWhenNewJournalFails(t *testing.T) {
	d, model := trainedFixture(t)
	dir := t.TempDir()
	next := filepath.Join(dir, fmt.Sprintf(journalPattern, uint64(2)))
	opts := Options{Sync: SyncAlways(), OpenJournalFile: func(path string) (JournalFile, error) {
		if path == next {
			return nil, errDiskGone
		}
		return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	}}
	rig := openDurable(t, dir, d, model, opts)
	rig.resolveOneTask(t, "acked before the compaction", []float64{4, 2})
	if err := rig.db.Compact(); !errors.Is(err, errDiskGone) {
		t.Fatalf("Compact = %v, want the journal open failure", err)
	}
	if gen := rig.db.Generation(); gen != 1 {
		t.Fatalf("failed compaction moved the DB to generation %d", gen)
	}
	rig.resolveOneTask(t, "acked after the failed compaction", []float64{5, 3})
	live := rig.db.Store().NumTasks()
	if err := rig.db.Close(); err != nil {
		t.Fatal(err)
	}
	rig2 := openDurable(t, dir, d, nil, Options{Sync: SyncAlways()})
	defer rig2.db.Close()
	if got := rig2.db.Store().NumTasks(); got != live {
		t.Fatalf("reboot holds %d tasks, %d were acked", got, live)
	}
}

// TestJournalPastNewestSnapshot: a compaction opens its journal before
// its commit, so a crash in between leaves an empty journal past the
// newest snapshot. That leftover boots, and the next compaction reuses
// it; a journal there that holds records lost its snapshot and refuses
// the boot.
func TestJournalPastNewestSnapshot(t *testing.T) {
	d, model := trainedFixture(t)
	dir := t.TempDir()
	rig := openDurable(t, dir, d, model, Options{Sync: SyncAlways()})
	rig.resolveOneTask(t, "acked in generation one", []float64{4, 2})
	if err := rig.db.Close(); err != nil {
		t.Fatal(err)
	}
	next := filepath.Join(dir, fmt.Sprintf(journalPattern, uint64(2)))
	if err := os.WriteFile(next, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	rig = openDurable(t, dir, d, nil, Options{Sync: SyncAlways()})
	if gen, n := rig.db.Generation(), rig.db.Store().NumTasks(); gen != 1 || n != 1 {
		t.Fatalf("booted generation %d with %d tasks, want 1 with 1", gen, n)
	}
	snap1 := filepath.Join(dir, fmt.Sprintf(snapshotPattern, uint64(1)))
	saved, err := os.ReadFile(snap1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.db.Compact(); err != nil {
		t.Fatal(err)
	}
	rig.resolveOneTask(t, "acked in generation two", []float64{5, 3})
	if err := rig.db.Close(); err != nil {
		t.Fatal(err)
	}
	// Generation 2 loses its snapshot, and generation 1's, left behind
	// by an interrupted sweep, is all that remains before its journal.
	if err := os.Remove(filepath.Join(dir, fmt.Sprintf(snapshotPattern, uint64(2)))); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap1, saved, 0o644); err != nil {
		t.Fatal(err)
	}
	assertBootRefused(t, dir, next)
}

// TestFailedGenerationWriteSealsUntilHealed: a compaction whose
// generation write fails may have committed by its rename before the
// error, so the DB stops acknowledging into the current journal. The
// probe loop writes the generation again, reusing the journal the
// failed attempt opened, and every acked write survives a reboot.
func TestFailedGenerationWriteSealsUntilHealed(t *testing.T) {
	d, model := trainedFixture(t)
	dir := t.TempDir()
	rig := openDurable(t, dir, d, model, Options{Sync: SyncAlways()})
	rig.resolveOneTask(t, "acked before the failed compaction", []float64{4, 2})
	var broken atomic.Bool
	broken.Store(true)
	rig.db.SetModelSnapshotter(func(w io.Writer) error {
		if broken.Load() {
			return errDiskGone
		}
		return rig.cm.Save(w)
	})
	if err := rig.db.Compact(); !errors.Is(err, errDiskGone) {
		t.Fatalf("Compact = %v, want the generation write failure", err)
	}
	if !rig.db.Degraded() {
		t.Fatal("a failed generation write left mutations open")
	}
	if _, err := rig.mgr.SubmitTask(t.Context(), "refused while sealed", 2); !errors.Is(err, ErrDegraded) {
		t.Fatalf("mutation after a failed generation write = %v, want ErrDegraded", err)
	}
	broken.Store(false)
	waitUntil(t, "probe loop healed the generation write", func() bool { return !rig.db.Degraded() })
	if gen := rig.db.Generation(); gen != 2 {
		t.Fatalf("healed at generation %d, want 2", gen)
	}
	rig.resolveOneTask(t, "acked after the heal", []float64{5, 3})
	live := rig.db.Store().NumTasks()
	if err := rig.db.Close(); err != nil {
		t.Fatal(err)
	}
	rig = openDurable(t, dir, d, nil, Options{Sync: SyncAlways()})
	defer rig.db.Close()
	if got := rig.db.Store().NumTasks(); got != live {
		t.Fatalf("reboot holds %d tasks, %d were acked", got, live)
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
	waitUntil(t, "auto-compaction", func() bool { return rig.db.Generation() >= 2 })
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
	waitUntil(t, "compaction at boot", func() bool { return rig.db.Generation() >= 2 })
	if gen := rig.db.Generation(); gen != 2 {
		t.Fatalf("generation %d after recovering a journal past the threshold, want 2", gen)
	}
}
