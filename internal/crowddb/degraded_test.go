package crowddb

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crowdselect/internal/clock"
)

// errDiskGone is the injected failure for degraded-mode tests.
var errDiskGone = errors.New("injected: disk gone")

// flakyDisk gates journal writes and the health probe on one switch,
// simulating a disk that goes away and later comes back.
type flakyDisk struct{ broken atomic.Bool }

func (d *flakyDisk) openJournal(path string) (JournalFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &flakyFile{f: f, disk: d}, nil
}

func (d *flakyDisk) probe() error {
	if d.broken.Load() {
		return errDiskGone
	}
	return nil
}

type flakyFile struct {
	f    *os.File
	disk *flakyDisk
}

func (ff *flakyFile) Write(p []byte) (int, error) {
	if ff.disk.broken.Load() {
		return 0, errDiskGone
	}
	return ff.f.Write(p)
}

func (ff *flakyFile) Sync() error {
	if ff.disk.broken.Load() {
		return errDiskGone
	}
	return ff.f.Sync()
}

func (ff *flakyFile) Close() error { return ff.f.Close() }

// degradedOptions wires the flaky disk into both the journal and the
// probe.
func degradedOptions(disk *flakyDisk) Options {
	return Options{
		Sync:            SyncAlways(),
		OpenJournalFile: disk.openJournal,
		Probe:           disk.probe,
	}
}

// clocks holds each top-level test's manual clock (testClock).
var clocks sync.Map // test name → *clock.Manual

// testClock is t's manual clock, one per top-level test and shared by
// its subtests. Every DB, replica, fence and transfer source a test
// builds through this package's helpers runs on it, so the test's time
// moves only when the test steps it.
func testClock(t *testing.T) *clock.Manual {
	root, _, _ := strings.Cut(t.Name(), "/")
	c, _ := clocks.LoadOrStore(root, new(clock.Manual))
	return c.(*clock.Manual)
}

// step moves clk forward by d, firing every timer due by then.
func step(clk *clock.Manual, d time.Duration) { clk.Sleep(context.Background(), d) }

// stacks is every goroutine's stack, as runtime.Stack dumps them.
func stacks() []byte {
	for buf := make([]byte, 1<<20); ; buf = make([]byte, 2*len(buf)) {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return buf[:n]
		}
	}
}

// waitUntil polls cond, stepping t's clock by a second between polls,
// so every timer on it — the heal probe, heartbeats, reconnect backoff
// and the scrubber — comes due while the test waits.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		step(testClock(t), time.Second)
		time.Sleep(2 * time.Millisecond)
	}
}

func TestDegradedModeSealsMutationsKeepsSelections(t *testing.T) {
	d, model := trainedFixture(t)
	dir := t.TempDir()
	disk := &flakyDisk{}
	rig := openDurable(t, dir, d, model, degradedOptions(disk))
	defer rig.db.Close()

	// Healthy baseline: one resolved task and a reference selection.
	rig.resolveOneTask(t, "baseline question about trees", []float64{4, 1})
	sel := []TaskSubmission{{Text: "how do b+ trees differ from b trees", K: 2}}
	before, err := rig.mgr.RankOnly(context.Background(), sel)
	if err != nil {
		t.Fatal(err)
	}

	// The disk goes away: the next journaled mutation fails and trips
	// degraded read-only mode.
	disk.broken.Store(true)
	if _, err := rig.mgr.SubmitTask(context.Background(), "doomed submission", 2); !errors.Is(err, ErrJournal) {
		t.Fatalf("mutation during disk failure = %v, want ErrJournal", err)
	}
	if !rig.db.Degraded() {
		t.Fatal("DB not degraded after journal write failure")
	}
	// Later mutations are refused up front by the seal, before touching
	// the journal.
	if err := rig.db.Store().SetOnline(0, false); !errors.Is(err, ErrDegraded) {
		t.Fatalf("sealed mutation = %v, want ErrDegraded", err)
	}
	if _, err := rig.mgr.SubmitTask(context.Background(), "also doomed", 2); !errors.Is(err, ErrDegraded) {
		t.Fatalf("sealed submission = %v, want ErrDegraded", err)
	}
	// Selections keep answering from the last committed model, and they
	// answer the same thing they did before the fault.
	during, err := rig.mgr.RankOnly(context.Background(), sel)
	if err != nil {
		t.Fatalf("selection during degraded mode: %v", err)
	}
	if !reflect.DeepEqual(before, during) {
		t.Fatalf("degraded selection = %v, want pre-fault %v", during, before)
	}
	stats := rig.db.Stats()
	if !stats.Degraded || stats.DegradedEnters != 1 || stats.DegradedExits != 0 {
		t.Fatalf("stats during fault = degraded %v, enters %d, exits %d",
			stats.Degraded, stats.DegradedEnters, stats.DegradedExits)
	}

	// The disk comes back: the probe loop heals via compaction to a
	// fresh generation and unseals.
	genBefore := rig.db.Generation()
	disk.broken.Store(false)
	waitUntil(t, "degraded mode to clear", func() bool { return !rig.db.Degraded() })
	if gen := rig.db.Generation(); gen <= genBefore {
		t.Fatalf("healing did not advance the generation (%d -> %d)", genBefore, gen)
	}
	stats = rig.db.Stats()
	if stats.Degraded || stats.DegradedExits != 1 {
		t.Fatalf("stats after heal = degraded %v, exits %d", stats.Degraded, stats.DegradedExits)
	}
	// Mutations work again.
	rig.resolveOneTask(t, "post-heal question about indexes", []float64{5, 2})
}

func TestDegradedModeEntersOnce(t *testing.T) {
	d, model := trainedFixture(t)
	disk := &flakyDisk{}
	rig := openDurable(t, t.TempDir(), d, model, degradedOptions(disk))
	defer rig.db.Close()

	disk.broken.Store(true)
	// Only the first journal failure transitions; the seal blocks the
	// rest, so the enter counter must not double-count.
	rig.mgr.SubmitTask(context.Background(), "doomed one", 2)
	rig.mgr.SubmitTask(context.Background(), "doomed two", 2)
	rig.db.Store().SetOnline(0, false)
	if got := rig.db.Stats().DegradedEnters; got != 1 {
		t.Fatalf("DegradedEnters = %d, want 1", got)
	}
}

func TestDegradedStateSurvivesReopen(t *testing.T) {
	// A process that dies while degraded must come back serving: the
	// acked pre-fault state recovers; the un-acked failed mutation may
	// or may not (it was never acknowledged), but nothing acked is lost.
	d, model := trainedFixture(t)
	dir := t.TempDir()
	disk := &flakyDisk{}
	rig := openDurable(t, dir, d, model, degradedOptions(disk))

	acked := rig.resolveOneTask(t, "acked before the fault", []float64{4, 1})
	disk.broken.Store(true)
	rig.mgr.SubmitTask(context.Background(), "never acked", 2)
	if !rig.db.Degraded() {
		t.Fatal("not degraded")
	}
	// Close while degraded must not fail shutdown even though the final
	// journal sync cannot succeed.
	if err := rig.db.Close(); err != nil {
		t.Fatalf("Close while degraded = %v, want nil", err)
	}

	disk.broken.Store(false)
	rig2 := openDurable(t, dir, d, nil, degradedOptions(disk))
	defer rig2.db.Close()
	if rig2.db.Degraded() {
		t.Fatal("fresh process inherited degraded mode")
	}
	got, err := rig2.db.Store().GetTask(acked.ID)
	if err != nil {
		t.Fatalf("acked task lost across degraded crash: %v", err)
	}
	if got.Status != TaskResolved {
		t.Fatalf("acked task recovered as %v, want resolved", got.Status)
	}
	// The recovered process accepts mutations again.
	rig2.resolveOneTask(t, "life after the fault", []float64{3, 2})
}

// TestOneMaintenanceLoop: a live DB does its background disk work —
// compaction, scrubbing, healing a degraded disk — on one goroutine,
// which starts when the DB goes live and stops with Close. The count
// is of goroutine dump entries created by a DB method, as a delta
// against the test's start.
func TestOneMaintenanceLoop(t *testing.T) {
	loops := func() int {
		return bytes.Count(stacks(), []byte("created by crowdselect/internal/crowddb.(*DB)"))
	}
	base := loops()
	want := func(stage string, n int) {
		t.Helper()
		waitUntil(t, fmt.Sprintf("%d DB goroutines %s", n, stage), func() bool { return loops()-base == n })
	}

	d, model := trainedFixture(t)
	dir := t.TempDir()
	disk := &flakyDisk{}
	opts := degradedOptions(disk)
	opts.Clock = testClock(t)
	opts.CompactEveryRecords = 4
	opts.ScrubInterval = 10 * time.Millisecond
	seed := openDurable(t, dir, d, model, opts)
	if err := seed.db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	want("opened, not live", 0)
	rig := &durableRig{db: db, d: d}
	if rig.mgr, rig.cm, err = db.boot(SliceConfig{CrowdK: 2}); err != nil {
		t.Fatal(err)
	}
	want("live", 1)
	rig.resolveOneTask(t, "a task past the compaction threshold", []float64{4, 2})
	waitUntil(t, "auto-compaction", func() bool { return db.Generation() > 1 })
	waitUntil(t, "a scrub pass", func() bool { return db.ScrubStats().ScrubPasses > 0 })
	want("compacting and scrubbing", 1)

	disk.broken.Store(true)
	if _, err := rig.mgr.SubmitTask(t.Context(), "doomed submission", 2); !errors.Is(err, ErrJournal) {
		t.Fatalf("mutation during disk failure = %v, want ErrJournal", err)
	}
	want("degraded", 1)
	disk.broken.Store(false)
	waitUntil(t, "degraded mode to clear", func() bool { return !db.Degraded() })
	want("healed", 1)

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	want("closed", 0)
}
