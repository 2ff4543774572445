package crowddb

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"crowdselect/internal/faultfs"
)

// Sync forces an fsync regardless of policy. A failure here is the same
// disk-loss signal as a failing append, so it reaches the onErr observer
// too.
func (jw *journalWriter) Sync() error {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if jw.unsynced == 0 {
		return nil
	}
	if err := jw.syncLocked(); err != nil {
		jw.onErr(err)
		return err
	}
	return nil
}

// TestSyncIntervalFailedFsyncDoesNotAdvanceClock is the regression
// test for the SyncInterval edge: an append whose fsync fails must
// leave lastSync (and the unsynced count) untouched, or the first
// transient failure would silently disable interval syncing for a
// whole window while appends kept reporting success.
func TestSyncIntervalFailedFsyncDoesNotAdvanceClock(t *testing.T) {
	dir := t.TempDir()
	budget := faultfs.NewBudget(-1) // writes always succeed
	f, err := faultfs.OpenFile(filepath.Join(dir, "journal.log"), os.O_CREATE|os.O_WRONLY, 0o644, budget)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	var observed []error
	jw := newJournalWriter(f, SyncInterval(10*time.Millisecond), new(DurabilityStats),
		func(err error) { observed = append(observed, err) }, func([]byte) {}, clock)
	ev := func(i int) event {
		return event{Kind: evAddTask, Task: i, Text: "t", At: now}
	}

	// Within the interval: append lands, no sync attempted.
	if err := jw.logRecord(ev(0)); err != nil {
		t.Fatal(err)
	}
	wantSync := jw.lastSync

	// Past the interval with the disk refusing fsync: the append must
	// fail loudly and must not advance the sync clock.
	now = now.Add(20 * time.Millisecond)
	budget.FailSyncs(true)
	err = jw.logRecord(ev(1))
	if !errors.Is(err, ErrJournal) {
		t.Fatalf("append with failing fsync returned %v, want ErrJournal", err)
	}
	if len(observed) != 1 {
		t.Fatalf("onErr fired %d times, want 1", len(observed))
	}
	jw.mu.Lock()
	lastSync, unsynced := jw.lastSync, jw.unsynced
	jw.mu.Unlock()
	if !lastSync.Equal(wantSync) {
		t.Fatalf("failed fsync advanced lastSync from %v to %v", wantSync, lastSync)
	}
	if unsynced != 2 {
		t.Fatalf("unsynced = %d after failed fsync, want 2 (both appends still pending)", unsynced)
	}

	// Healed disk: the very next append retries the overdue sync
	// immediately instead of waiting out a fresh interval.
	budget.FailSyncs(false)
	now = now.Add(time.Millisecond)
	if err := jw.logRecord(ev(2)); err != nil {
		t.Fatal(err)
	}
	jw.mu.Lock()
	lastSync, unsynced = jw.lastSync, jw.unsynced
	jw.mu.Unlock()
	if !lastSync.Equal(now) {
		t.Fatalf("healed append did not sync: lastSync %v, want %v", lastSync, now)
	}
	if unsynced != 0 {
		t.Fatalf("unsynced = %d after healed sync, want 0", unsynced)
	}

	// Standalone Sync on a failing disk reports the error to onErr too
	// and leaves the pending count alone.
	if err := jw.logRecord(ev(3)); err != nil {
		t.Fatal(err)
	}
	budget.FailSyncs(true)
	if err := jw.Sync(); err == nil {
		t.Fatal("Sync on failing disk returned nil")
	}
	if len(observed) != 2 {
		t.Fatalf("onErr fired %d times after failed Sync, want 2", len(observed))
	}
	budget.FailSyncs(false)

	// Everything acknowledged replays: no record was dropped around the
	// failed fsync.
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	res, err := replayJournalFile(s, filepath.Join(dir, "journal.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 4 {
		t.Fatalf("replay found %d records, want 4", res.Records)
	}
}
