package crowddb

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"crowdselect/internal/core"
)

// TestApplyModelFeedbackForwardDedupe: a forward keyed to a task folds
// at most once — the second application with the same key is an
// acknowledged no-op, byte for byte — while unkeyed model-only
// feedback still folds unconditionally. This is what lets the
// scatter-gather coordinator retry a failed forward leg without
// double-applying a posterior update.
func TestApplyModelFeedbackForwardDedupe(t *testing.T) {
	d, m := trainedFixture(t)
	store := NewStore()
	for i := range d.Workers {
		if _, err := store.AddWorker(i, "w"); err != nil {
			t.Fatal(err)
		}
	}
	mgr, err := NewManager(store, d.Vocab, core.NewConcurrentModel(m), 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	taskText := strings.Join(d.Tasks[0].Tokens, " ")
	scores := map[int]float64{0: 0.8, 1: 0.4}
	save := func() []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	if err := mgr.ApplyModelFeedback(ctx, 6, taskText, scores); err != nil {
		t.Fatal(err)
	}
	once := save()
	if err := mgr.ApplyModelFeedback(ctx, 6, taskText, scores); err != nil {
		t.Fatalf("duplicate keyed forward refused: %v", err)
	}
	if !bytes.Equal(save(), once) {
		t.Fatal("duplicate keyed forward changed the model")
	}
	// Task ids start at 0; key 0 must dedupe like any other.
	if err := mgr.ApplyModelFeedback(ctx, 0, taskText, scores); err != nil {
		t.Fatal(err)
	}
	zeroKeyed := save()
	if err := mgr.ApplyModelFeedback(ctx, 0, taskText, scores); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(save(), zeroKeyed) {
		t.Fatal("duplicate forward keyed to task 0 changed the model")
	}
	if err := mgr.ApplyModelFeedback(ctx, -1, taskText, scores); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(save(), zeroKeyed) {
		t.Fatal("unkeyed model-only feedback did not fold")
	}
}

// TestForwardDedupeSurvivesSnapshotAndReplay: the applied-forwards set
// must outlive both journal replay and snapshot compaction, or a
// coordinator retry after a restart would double-fold.
func TestForwardDedupeSurvivesSnapshotAndReplay(t *testing.T) {
	s := NewStore()
	tokens := []string{"alpha", "beta"}
	scores := map[int]float64{3: 0.5}

	applied, err := s.LogSkillFeedback(tokens, scores, 4)
	if err != nil || !applied {
		t.Fatalf("first keyed forward: applied=%v err=%v", applied, err)
	}
	applied, err = s.LogSkillFeedback(tokens, scores, 4)
	if err != nil || applied {
		t.Fatalf("duplicate keyed forward: applied=%v err=%v", applied, err)
	}
	applied, err = s.LogSkillFeedback(tokens, scores, -1)
	if err != nil || !applied {
		t.Fatalf("unkeyed feedback: applied=%v err=%v", applied, err)
	}

	// Snapshot round trip carries the set.
	var snap bytes.Buffer
	if err := s.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored := NewStore()
	if err := restored.RestoreSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	applied, err = restored.LogSkillFeedback(tokens, scores, 4)
	if err != nil || applied {
		t.Fatalf("keyed forward re-applied after snapshot restore: applied=%v err=%v", applied, err)
	}

	// Journal replay of a duplicated keyed event folds exactly once;
	// unkeyed events always fold.
	key := 9
	keyed := event{Kind: evSkillFeedback, Tokens: tokens, Scores: scores, ForwardOf: &key, At: time.Now()}
	unkeyed := event{Kind: evSkillFeedback, Tokens: tokens, Scores: scores, At: time.Now()}
	replayed := NewStore()
	folds := 0
	count := func(TaskRecord) error { folds++; return nil }
	for _, e := range []event{keyed, keyed, unkeyed, unkeyed} {
		if err := replayed.applyEvent(e, count); err != nil {
			t.Fatal(err)
		}
	}
	if folds != 3 {
		t.Fatalf("replay folded %d times, want 3 (keyed once + unkeyed twice)", folds)
	}
}

// TestSealedStoreRefusesReplicatedSkillFeedback: replicated skill
// feedback passes the seal gate every other store mutation passes. A
// store sealed by a failed append refuses a keyed skill_feedback record
// before anything moves — no position, no forward key, no fold — so the
// record folds once when it is sent again after the disk heals, instead
// of being skipped as a duplicate of a fold that never happened.
func TestSealedStoreRefusesReplicatedSkillFeedback(t *testing.T) {
	d, model := trainedFixture(t)
	disk := &flakyDisk{}
	rig := openDurable(t, t.TempDir(), d, model, degradedOptions(disk))
	defer rig.db.Close()
	save := func() []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := rig.cm.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	disk.broken.Store(true)
	if _, err := rig.mgr.SubmitTask(context.Background(), "the append that seals", 2); !errors.Is(err, ErrJournal) {
		t.Fatalf("mutation during disk failure = %v, want ErrJournal", err)
	}
	before, head := save(), rig.db.ReplicationHead
	seq := head()
	online := false
	key := 7
	records := map[string]event{
		"presence":       {Kind: evPresence, Worker: 0, Online: &online, At: time.Now()},
		"skill_feedback": {Kind: evSkillFeedback, Tokens: d.Tasks[0].Tokens, Scores: map[int]float64{0: 0.8, 1: 0.4}, ForwardOf: &key, At: time.Now()},
	}
	for kind, e := range records {
		if err := rig.mgr.applyReplicatedEvent(e); !errors.Is(err, ErrDegraded) {
			t.Fatalf("replicated %s on a sealed store = %v, want ErrDegraded", kind, err)
		}
		if got := head(); got != seq {
			t.Fatalf("refused %s moved the replication position %d → %d", kind, seq, got)
		}
	}
	if !bytes.Equal(save(), before) {
		t.Fatal("refused skill feedback folded into the model")
	}

	disk.broken.Store(false)
	waitUntil(t, "the disk to heal", func() bool { return !rig.db.Degraded() })
	seq = head()
	if err := rig.mgr.applyReplicatedEvent(records["skill_feedback"]); err != nil {
		t.Fatal(err)
	}
	if got := head(); got != seq+1 {
		t.Fatalf("skill feedback sent again moved the position %d → %d, want one record", seq, got)
	}
	if bytes.Equal(save(), before) {
		t.Fatal("skill feedback sent again after the heal was skipped as a duplicate")
	}
}
