package crowddb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"crowdselect/internal/core"
)

// journalScript drives a store through a representative mutation
// sequence.
func journalScript(t *testing.T, s *Store) {
	t.Helper()
	for i := 0; i < 3; i++ {
		if _, err := s.AddWorker(i, fmt.Sprintf("w%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetOnline(2, false); err != nil {
		t.Fatal(err)
	}
	task, err := s.AddTask("What is a B+ tree?", []string{"b+", "tree"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Assign(task.ID, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordAnswer(task.ID, 0, "an index"); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordAnswer(task.ID, 1, "a tree"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(task.ID, map[int]float64{0: 4, 1: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddTask("still open", nil); err != nil {
		t.Fatal(err)
	}
}

// frameRecords frames raw JSON payloads in the journal wire format.
func frameRecords(payloads ...string) []byte {
	var buf bytes.Buffer
	for _, p := range payloads {
		buf.Write(encodeRecord([]byte(p)))
	}
	return buf.Bytes()
}

// bufferFile is an in-memory journal file: a bytes.Buffer whose Sync
// does nothing.
type bufferFile struct{ *bytes.Buffer }

func (bufferFile) Sync() error  { return nil }
func (bufferFile) Close() error { return nil }

// journalInto attaches an in-memory journal to s: every later mutation
// appends its framed record to buf.
func journalInto(s *Store, buf *bytes.Buffer) {
	s.setJournal(testJournalWriter(bufferFile{buf}, SyncPolicy{}, time.Now))
}

// testJournalWriter is a journal writer with fresh counters and no-op
// observers.
func testJournalWriter(f JournalFile, policy SyncPolicy, clock func() time.Time) *journalWriter {
	return newJournalWriter(f, policy, new(DurabilityStats), func(error) {}, func([]byte) {}, clock)
}

func TestJournalReplayReproducesState(t *testing.T) {
	var journal bytes.Buffer
	s := NewStore()
	s.SetClock(fixedClock())
	journalInto(s, &journal)
	journalScript(t, s)

	replayed := NewStore()
	if _, err := replayed.replayJournal(bytes.NewReader(journal.Bytes()), nil); err != nil {
		t.Fatal(err)
	}
	// Compare via snapshots (timestamps differ between original clock
	// and replay clock, so compare structure).
	if replayed.NumWorkers() != s.NumWorkers() || replayed.NumTasks() != s.NumTasks() {
		t.Fatalf("replayed %d/%d, want %d/%d",
			replayed.NumWorkers(), replayed.NumTasks(), s.NumWorkers(), s.NumTasks())
	}
	want, _ := s.GetTask(0)
	got, err := replayed.GetTask(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != want.Status || len(got.Answers) != len(want.Answers) {
		t.Fatalf("task 0 = %+v, want %+v", got, want)
	}
	for i, a := range got.Answers {
		if a.Worker != want.Answers[i].Worker || a.Score != want.Answers[i].Score || a.Text != want.Answers[i].Text {
			t.Fatalf("answer %d = %+v, want %+v", i, a, want.Answers[i])
		}
	}
	w2, err := replayed.GetWorker(2)
	if err != nil {
		t.Fatal(err)
	}
	if w2.Online {
		t.Error("presence event not replayed")
	}
	if got := replayed.ListTasks(TaskOpen); len(got) != 1 || got[0].Text != "still open" {
		t.Errorf("open tasks after replay = %v", got)
	}
	// Id counter continues correctly.
	next, err := replayed.AddTask("new", nil)
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != 2 {
		t.Errorf("next id = %d, want 2", next.ID)
	}
}

func TestJournalReplayRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"not json":        frameRecords("{oops"),
		"unknown kind":    frameRecords(`{"kind":"explode"}`),
		"presence no arg": frameRecords(`{"kind":"presence","worker":0}`),
		"dangling assign": frameRecords(`{"kind":"assign","task":0,"workers":[0]}`),
		"bad score key": frameRecords(`{"kind":"add_worker","worker":0}`, `{"kind":"add_task","task":0}`,
			`{"kind":"assign","task":0,"workers":[0]}`, `{"kind":"answer","task":0,"worker":0}`,
			`{"kind":"resolve","task":0,"scores":{"zero":1}}`),
		// A key is a decimal worker id and nothing else: "0x" must not
		// replay as a score for worker 0.
		"score key with a numeric prefix": frameRecords(`{"kind":"add_worker","worker":0}`, `{"kind":"add_task","task":0}`,
			`{"kind":"assign","task":0,"workers":[0]}`, `{"kind":"answer","task":0,"worker":0}`,
			`{"kind":"resolve","task":0,"scores":{"0x":1}}`),
		"task id skew": frameRecords(`{"kind":"add_task","task":7,"text":"x"}`),
	}
	for name, payload := range cases {
		s := NewStore()
		_, err := s.replayJournal(bytes.NewReader(payload), nil)
		if err == nil {
			t.Errorf("%s: garbage accepted", name)
			continue
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("%s: error %v is not a *CorruptError", name, err)
		}
	}
}

// TestTornWriteTable truncates a valid journal at every possible byte
// offset and checks that replay of the prefix recovers cleanly: no
// error, only complete records applied, and GoodBytes marking where
// appends may resume.
func TestTornWriteTable(t *testing.T) {
	var journal bytes.Buffer
	s := NewStore()
	s.SetClock(fixedClock())
	journalInto(s, &journal)
	journalScript(t, s)
	full := journal.Bytes()

	// Record boundaries of the intact journal.
	var boundaries []int64
	off := int64(0)
	for off < int64(len(full)) {
		length := int64(binary.LittleEndian.Uint32(full[off : off+4]))
		off += recordHeaderSize + length
		boundaries = append(boundaries, off)
	}
	completeUpTo := func(n int64) (records int, good int64) {
		for _, b := range boundaries {
			if b <= n {
				records++
				good = b
			}
		}
		return records, good
	}

	for cut := 0; cut <= len(full); cut++ {
		replayed := NewStore()
		res, err := replayed.replayJournal(bytes.NewReader(full[:cut]), nil)
		if err != nil {
			t.Fatalf("cut at %d: replay error %v (torn tails must be tolerated)", cut, err)
		}
		wantRecords, wantGood := completeUpTo(int64(cut))
		if res.Records != wantRecords || res.GoodBytes != wantGood {
			t.Fatalf("cut at %d: applied %d records / %d bytes, want %d / %d",
				cut, res.Records, res.GoodBytes, wantRecords, wantGood)
		}
		if wantTorn := int64(cut) != wantGood; res.Torn != wantTorn {
			t.Fatalf("cut at %d: torn = %v, want %v", cut, res.Torn, wantTorn)
		}
	}
}

// TestMidFileCorruptionSurfacesOffset flips a byte inside a non-final
// record and expects a typed error carrying that record's offset.
func TestMidFileCorruptionSurfacesOffset(t *testing.T) {
	var journal bytes.Buffer
	s := NewStore()
	s.SetClock(fixedClock())
	journalInto(s, &journal)
	journalScript(t, s)
	full := append([]byte(nil), journal.Bytes()...)

	// Corrupt a payload byte of the second record.
	firstLen := int64(binary.LittleEndian.Uint32(full[0:4]))
	secondOff := recordHeaderSize + firstLen
	full[secondOff+recordHeaderSize+2] ^= 0xFF

	replayed := NewStore()
	res, err := replayed.replayJournal(bytes.NewReader(full), nil)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("replay of corrupted journal returned %v, want *CorruptError", err)
	}
	if ce.Offset != secondOff || ce.Record != 1 {
		t.Errorf("corruption reported at record %d offset %d, want record 1 offset %d", ce.Record, ce.Offset, secondOff)
	}
	if res.Records != 1 {
		t.Errorf("replayed %d records before corruption, want 1", res.Records)
	}
}

// A bad final record whose frame is complete is indistinguishable from
// a torn write inside the payload, so it is truncated, not fatal.
func TestCorruptFinalRecordTreatedAsTorn(t *testing.T) {
	full := frameRecords(`{"kind":"add_worker","worker":0,"name":"w"}`, `{"kind":"add_worker","worker":1,"name":"x"}`)
	full[len(full)-1] ^= 0xFF
	s := NewStore()
	res, err := s.replayJournal(bytes.NewReader(full), nil)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !res.Torn || res.Records != 1 || s.NumWorkers() != 1 {
		t.Errorf("res = %+v with %d workers, want 1 record and a torn tail", res, s.NumWorkers())
	}
}

func TestParseSyncPolicy(t *testing.T) {
	good := map[string]string{
		"always":        "always",
		"os":            "os",
		"every=64":      "every=64",
		"interval=1s":   "interval=1s",
		"interval=50ms": "interval=50ms",
	}
	for in, want := range good {
		p, err := ParseSyncPolicy(in)
		if err != nil {
			t.Errorf("ParseSyncPolicy(%q): %v", in, err)
			continue
		}
		if p.String() != want {
			t.Errorf("ParseSyncPolicy(%q).String() = %q, want %q", in, p.String(), want)
		}
	}
	for _, bad := range []string{"", "every=0", "every=x", "interval=-1s", "interval=bogus", "sometimes"} {
		if _, err := ParseSyncPolicy(bad); err == nil {
			t.Errorf("ParseSyncPolicy(%q) accepted", bad)
		}
	}
}

// countingFile counts Sync calls.
type countingFile struct {
	buf   bytes.Buffer
	syncs int
}

func (c *countingFile) Write(p []byte) (int, error) { return c.buf.Write(p) }
func (c *countingFile) Sync() error                 { c.syncs++; return nil }
func (c *countingFile) Close() error                { return nil }

func TestSyncPolicies(t *testing.T) {
	ev := event{Kind: evAddWorker, Worker: 1, At: time.Unix(0, 0)}

	t.Run("always", func(t *testing.T) {
		f := &countingFile{}
		jw := testJournalWriter(f, SyncAlways(), time.Now)
		for i := 0; i < 5; i++ {
			if err := jw.logRecord(ev); err != nil {
				t.Fatal(err)
			}
		}
		if f.syncs != 5 {
			t.Errorf("always: %d syncs after 5 appends", f.syncs)
		}
	})

	t.Run("every=3", func(t *testing.T) {
		f := &countingFile{}
		jw := testJournalWriter(f, SyncEvery(3), time.Now)
		for i := 0; i < 7; i++ {
			if err := jw.logRecord(ev); err != nil {
				t.Fatal(err)
			}
		}
		if f.syncs != 2 {
			t.Errorf("every=3: %d syncs after 7 appends, want 2", f.syncs)
		}
		// Close flushes the unsynced remainder.
		if err := jw.Close(); err != nil {
			t.Fatal(err)
		}
		if f.syncs != 3 {
			t.Errorf("every=3: %d syncs after close, want 3", f.syncs)
		}
	})

	t.Run("interval", func(t *testing.T) {
		f := &countingFile{}
		now := time.Unix(0, 0)
		jw := testJournalWriter(f, SyncInterval(time.Minute), func() time.Time { return now })
		if err := jw.logRecord(ev); err != nil {
			t.Fatal(err)
		}
		if f.syncs != 0 {
			t.Errorf("interval: synced before the interval elapsed")
		}
		now = now.Add(2 * time.Minute)
		if err := jw.logRecord(ev); err != nil {
			t.Fatal(err)
		}
		if f.syncs != 1 {
			t.Errorf("interval: %d syncs after elapsed interval, want 1", f.syncs)
		}
	})

	t.Run("stats", func(t *testing.T) {
		f := &countingFile{}
		var stats DurabilityStats
		jw := newJournalWriter(f, SyncAlways(), &stats, func(error) {}, func([]byte) {}, time.Now)
		for i := 0; i < 4; i++ {
			if err := jw.logRecord(ev); err != nil {
				t.Fatal(err)
			}
		}
		if stats.RecordsWritten.Load() != 4 || stats.Fsyncs.Load() != 4 {
			t.Errorf("stats = %d records / %d fsyncs, want 4 / 4", stats.RecordsWritten.Load(), stats.Fsyncs.Load())
		}
		if stats.BytesWritten.Load() != int64(f.buf.Len()) {
			t.Errorf("stats bytes = %d, file holds %d", stats.BytesWritten.Load(), f.buf.Len())
		}
	})
}

// TestRecoverTruncatesTornTail: a torn final record must not block a
// boot. The replay truncates it away, appends continue from the last good
// byte, and they survive the next boot.
func TestRecoverTruncatesTornTail(t *testing.T) {
	d, model := trainedFixture(t)
	dir := t.TempDir()
	boot := func() *DB {
		t.Helper()
		db, err := Open(dir, Options{Sync: SyncAlways()})
		if err != nil {
			t.Fatal(err)
		}
		if db.Fresh() {
			cm := core.NewConcurrentModel(model)
			mgr, err := NewManager(db.Store(), d.Vocab, cm, 2)
			if err != nil {
				t.Fatal(err)
			}
			db.SetModelSnapshotter(cm.Save)
			db.SetQuiescer(mgr.Quiesce)
			err = db.Begin()
		} else {
			err = db.recoverJournal(nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := boot()
	journalScript(t, db.Store())
	path := db.journalPath(db.Generation())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the final record.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	db = boot()
	if !db.Stats().TornTailTruncated {
		t.Error("torn tail not reported")
	}
	// The torn record was the second AddTask: one task short.
	if db.Store().NumWorkers() != 3 || db.Store().NumTasks() != 1 {
		t.Fatalf("after torn recovery: %d workers, %d tasks", db.Store().NumWorkers(), db.Store().NumTasks())
	}
	// Appends continue cleanly after the truncation point.
	if _, err := db.Store().AddTask("replacement", nil); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = boot()
	defer db.Close()
	if db.Store().NumTasks() != 2 {
		t.Errorf("after torn recovery and append: %d tasks, want 2", db.Store().NumTasks())
	}
}

func TestJournalWriteFailureSurfaces(t *testing.T) {
	s := NewStore()
	s.setJournal(testJournalWriter(failingFile{}, SyncPolicy{}, time.Now))
	if _, err := s.AddWorker(0, "w"); !errors.Is(err, ErrJournal) {
		t.Errorf("AddWorker err = %v, want ErrJournal", err)
	}
	// The mutation itself was applied (documented semantics).
	if s.NumWorkers() != 1 {
		t.Error("mutation lost on journal failure")
	}
	// Detaching stops journaling.
	s.setJournal(nil)
	if _, err := s.AddWorker(1, "w"); err != nil {
		t.Errorf("after detach: %v", err)
	}
}

// failingFile is a journal file whose every write fails.
type failingFile struct{}

func (failingFile) Write([]byte) (int, error) { return 0, errors.New("disk full") }
func (failingFile) Sync() error               { return nil }
func (failingFile) Close() error              { return nil }
