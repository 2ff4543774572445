package crowddb

import (
	"os"
	"sync"
	"testing"
	"time"

	"crowdselect/internal/faultfs"
)

// Sync forces an fsync of the current journal regardless of policy.
func (db *DB) Sync() error {
	db.mu.Lock()
	jw := db.jw
	db.mu.Unlock()
	if jw == nil {
		return nil
	}
	return jw.Sync()
}

// syncSignalFile wraps a faultfs journal file and fires signal when an
// fsync begins (before faultfs serves its injected delay), so a test
// can act while the slow fsync is provably in flight.
type syncSignalFile struct {
	*faultfs.File
	signal func()
}

func (f *syncSignalFile) Sync() error {
	f.signal()
	return f.File.Sync()
}

// TestSlowFsyncUnderIntervalStaysHealthy pins the regression for a
// disk that is slow but not broken: under SyncInterval, fsync latency
// must stay off the per-mutation hot path, a slow-but-succeeding
// fsync must not trip degraded mode (slowness is not failure), and
// the read-only serving path must keep answering while the fsync is
// in flight — DB.Sync holds only the journal writer's lock, never the
// store's.
func TestSlowFsyncUnderIntervalStaysHealthy(t *testing.T) {
	d, model := trainedFixture(t)
	budget := faultfs.NewBudget(-1)
	var once sync.Once
	entered := make(chan struct{})
	opts := Options{
		// Far longer than the test: no append ever crosses the
		// interval, so every fsync below is the explicit one.
		Sync: SyncInterval(time.Hour),
		OpenJournalFile: func(path string) (JournalFile, error) {
			f, err := faultfs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644, budget)
			if err != nil {
				return nil, err
			}
			return &syncSignalFile{File: f, signal: func() { once.Do(func() { close(entered) }) }}, nil
		},
	}
	rig := openDurable(t, t.TempDir(), d, model, opts)
	defer rig.db.Close()

	// From here on every fsync sleeps well past anything the serving
	// assertions below take.
	const syncDelay = 750 * time.Millisecond
	budget.DelaySyncs(syncDelay)

	// Mutations between interval syncs never touch the slow fsync.
	f0 := rig.db.Stats().Fsyncs
	rig.resolveOneTask(t, "first question on a slow disk", []float64{4, 2})
	rig.resolveOneTask(t, "second question on a slow disk", []float64{3, 5})
	rig.resolveOneTask(t, "third question on a slow disk", []float64{2, 4})
	if f := rig.db.Stats().Fsyncs; f != f0 {
		t.Fatalf("mutations forced %d fsyncs under the interval policy", f-f0)
	}

	// Force the slow fsync and serve through it.
	syncDone := make(chan error, 1)
	go func() { syncDone <- rig.db.Sync() }()
	<-entered // the fsync is now sleeping inside the disk
	for i := 0; i < 3; i++ {
		if _, err := rig.mgr.RankOnly(t.Context(), []TaskSubmission{{Text: "rank while the fsync sleeps", K: 2}}); err != nil {
			t.Fatalf("RankOnly during a slow fsync: %v", err)
		}
		if _, err := rig.db.Store().GetTask(1); err != nil {
			t.Fatalf("read during a slow fsync: %v", err)
		}
	}
	select {
	case <-syncDone:
		t.Fatalf("fsync finished before the serving calls — raise the injected delay (%s)", syncDelay)
	default:
	}
	if err := <-syncDone; err != nil {
		t.Fatalf("slow fsync failed: %v", err)
	}

	// Slow is not broken: no degraded transition, and mutations still
	// land.
	if rig.db.Degraded() {
		t.Fatal("a slow-but-succeeding fsync tripped degraded mode")
	}
	if n := rig.db.Stats().DegradedEnters; n != 0 {
		t.Fatalf("DegradedEnters = %d, want 0", n)
	}
	if f := rig.db.Stats().Fsyncs; f != f0+1 {
		t.Fatalf("Fsyncs = %d, want exactly the one forced sync over %d", f, f0)
	}
	budget.DelaySyncs(0)
	rig.resolveOneTask(t, "question after the disk speeds back up", []float64{5, 1})
}

// TestFaultfsLatencyInjection pins the faultfs contract itself: the
// configured delays are served on the right operations and injection
// stays failure-free.
func TestFaultfsLatencyInjection(t *testing.T) {
	budget := faultfs.NewBudget(-1)
	path := t.TempDir() + "/lat"
	f, err := faultfs.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644, budget)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}

	const d = 60 * time.Millisecond
	budget.DelaySyncs(d)
	budget.DelayReads(d)
	start := time.Now()
	if err := f.Sync(); err != nil {
		t.Fatalf("delayed sync must still succeed: %v", err)
	}
	if took := time.Since(start); took < d {
		t.Fatalf("Sync returned in %s, before the %s injected delay", took, d)
	}
	buf := make([]byte, 4)
	start = time.Now()
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("delayed read must still succeed: %v", err)
	}
	if took := time.Since(start); took < d {
		t.Fatalf("ReadAt returned in %s, before the %s injected delay", took, d)
	}
	if budget.Tripped() {
		t.Fatal("latency injection tripped the failure budget")
	}
}
