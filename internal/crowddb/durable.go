package crowddb

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crowdselect/internal/clock"
	"crowdselect/internal/core"
	"crowdselect/internal/corpus"
)

// This file is the snapshot+journal lifecycle over the primitives in
// store.go and journal.go: a data directory of numbered generations,
// each an atomic snapshot of the crowd database plus the model's
// skill posteriors, followed by a checksummed journal of everything
// since. A boot verifies the newest generation (verifyGeneration, as
// the scrubber does) and replays its journal — including routing
// resolve events back through the manager's feedback path so
// LambdaW/NuW2 match the pre-crash model.
//
// Data directory layout (generation g):
//
//	snapshot-%08d.json   store snapshot (the generation's commit point)
//	model-%08d.json      model posteriors as of the snapshot
//	repl-%08d.json       replication sidecar: position, fencing epochs, digest stamps
//	journal-%08d.wal     framed mutations since the snapshot
//	dataset.json         vocabulary source: the daemon's, or installed with a generation
//
// Compaction and a serving follower's live re-bootstrap are one switch
// (switchLocked): open journal g+1, write generation g+1 through
// writeGeneration (the rename of snapshot-%08d.json commits it), switch
// appends to the new journal, and remove older generations. A crash
// between any two steps boots one generation with every acked record.
// Restore and a fresh follower write their generation through the same
// writer, and every boot of a written generation is boot.

const (
	snapshotPattern = "snapshot-%08d.json"
	modelPattern    = "model-%08d.json"
	journalPattern  = "journal-%08d.wal"
	datasetName     = "dataset.json"
)

// DurabilityStats counts what the durability layer did; all fields
// are safe for concurrent use.
type DurabilityStats struct {
	RecordsWritten atomic.Int64
	BytesWritten   atomic.Int64
	Fsyncs         atomic.Int64
	Compactions    atomic.Int64
	// RecoveryMillis is the wall time of the boot's journal replay.
	RecoveryMillis atomic.Int64
	// RecoveredRecords is how many journal records the boot replayed
	// on top of the snapshot.
	RecoveredRecords atomic.Int64
	// TornTailTruncated reports whether the boot discarded a
	// torn final record (1) or not (0).
	TornTailTruncated atomic.Int64
	// DegradedEnters / DegradedExits count transitions into and out of
	// degraded read-only mode (journal write failure → disk heal).
	DegradedEnters atomic.Int64
	DegradedExits  atomic.Int64
}

// DurabilitySnapshot is the JSON form of DurabilityStats for
// /api/v1/metrics.
type DurabilitySnapshot struct {
	Generation        uint64 `json:"generation"`
	RecordsWritten    int64  `json:"records_written"`
	BytesWritten      int64  `json:"bytes_written"`
	Fsyncs            int64  `json:"fsyncs"`
	Compactions       int64  `json:"compactions"`
	RecoveryMillis    int64  `json:"recovery_ms"`
	RecoveredRecords  int64  `json:"recovered_records"`
	TornTailTruncated bool   `json:"torn_tail_truncated"`
	Degraded          bool   `json:"degraded"`
	DegradedEnters    int64  `json:"degraded_enters"`
	DegradedExits     int64  `json:"degraded_exits"`
}

// Options configures Open.
type Options struct {
	// Sync is the journal fsync policy. The zero value never fsyncs
	// explicitly; use SyncAlways for read-your-crash durability.
	Sync SyncPolicy
	// CompactEveryRecords triggers automatic compaction once the
	// current journal holds at least this many records (0 disables).
	// The compaction follows the append that crosses the threshold, or
	// the boot of a journal recovered past it.
	CompactEveryRecords int64
	// OpenJournalFile overrides how the append handle on a journal
	// file is opened — the crash-injection hook. nil uses os.OpenFile.
	OpenJournalFile func(path string) (JournalFile, error)
	// Probe overrides the disk-health check run while the DB is in
	// degraded read-only mode; returning nil means the disk looks
	// writable again and the DB may try to heal. nil uses a default
	// that writes, fsyncs and removes a scratch file in the data dir.
	Probe func() error
	// ScrubInterval is how often the background scrubber re-verifies
	// the current generation at rest (journal CRCs, verifyGeneration),
	// stretched so a pass runs at most a tenth of the time. 0 disables.
	ScrubInterval time.Duration
	// Logf receives lifecycle notices (recovery, compaction). nil is
	// silent.
	Logf func(format string, args ...any)
	// Clock times the DB's store, journal, maintenance, fence, transfer
	// source and replica (default clock.Real).
	Clock clock.Clock
}

// probeInterval is how often the recovery probe runs while degraded.
const probeInterval = time.Second

func (o Options) openJournal(path string) (JournalFile, error) {
	if o.OpenJournalFile != nil {
		return o.OpenJournalFile(path)
	}
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// overLimit reports whether a journal holding this many records has
// crossed the compaction threshold.
func (o Options) overLimit(records int64) bool {
	return o.CompactEveryRecords > 0 && records >= o.CompactEveryRecords
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// DB manages a crowd database rooted in a data directory: a verified
// snapshot restore on open, journal replay at boot, appends
// under the sync policy, and a maintenance loop. Mutations go through
// Store() as usual; the DB owns the files.
type DB struct {
	dir   string
	opts  Options
	store *Store
	stats DurabilityStats

	mu        sync.Mutex // generation state: gen, jw, live, model
	gen       uint64
	jw        *journalWriter
	live      bool
	model     *core.Model // the checkpoint Open verified, until boot takes it
	saveModel func(io.Writer) error
	quiesce   func(func() error) error

	stopOnce sync.Once
	stopc    chan struct{}
	wakec    chan struct{} // a compaction threshold crossed, or degraded mode entered
	donec    chan struct{} // non-nil once the maintenance loop runs

	// degraded read-only mode: set on a journal or scrub failure, cleared
	// when the maintenance loop heals the disk with a fresh generation.
	degraded atomic.Bool

	// scrub is the background integrity scrubber's state (scrub.go).
	scrub scrubState

	// repl tracks the replication position (records since history
	// start), the per-stream fan-out hub, and generation pins
	// held by bootstrap readers. See replication.go.
	repl replState
}

// Open scans dir (creating it if needed), verifies its newest
// generation — the highest snapshot-%08d.json — with verifyGeneration,
// and returns a DB holding that generation's store and model, not yet
// accepting journaled writes: boot it through OpenTenant, or, for an
// empty directory, populate the store and call Begin. Any finding (a
// generation that fails verification, an unparseable sidecar, a
// journal no snapshot accounts for) is a *ScrubError naming the file,
// and nothing is rewritten. Older generations are never booted instead.
func Open(dir string, opts Options) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("crowddb: open %s: %w", dir, err)
	}
	opts.Clock = cmp.Or(opts.Clock, clock.Real)
	db := &DB{
		dir:   dir,
		opts:  opts,
		store: NewStore(),
		stopc: make(chan struct{}),
		wakec: make(chan struct{}, 1),
	}
	gens, journals, err := listGenerations(dir)
	if err != nil {
		return nil, err
	}
	if len(gens) > 0 {
		db.gen = gens[len(gens)-1]
	}
	// A journal past the newest snapshot is an interrupted restore or a
	// generation that lost its snapshot, unless it is the empty one of
	// a compaction cut short before its commit.
	for g, size := range journals {
		if g > db.gen && (db.gen == 0 || size > 0) {
			return nil, &ScrubError{Path: db.journalPath(g), Err: errors.New("journal past the newest snapshot")}
		}
	}
	var sc replSidecar
	if db.gen != 0 {
		if sc, err = loadSidecar(db.replSidecarPath(db.gen)); err != nil {
			return nil, err
		}
		if db.store, db.model, err = verifyGeneration(dir, db.gen, sc); err != nil {
			return nil, err
		}
	}
	db.store.clock = opts.Clock
	db.loadReplState(sc)
	return db, nil
}

// listGenerations returns the generation numbers with a snapshot file
// present, ascending, and the size of every journal file by generation.
func listGenerations(dir string) (gens []uint64, journals map[uint64]int64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("crowddb: scan %s: %w", dir, err)
	}
	journals = map[uint64]int64{}
	for _, e := range entries {
		var g uint64
		if _, err := fmt.Sscanf(e.Name(), snapshotPattern, &g); err == nil {
			gens = append(gens, g)
		} else if _, err := fmt.Sscanf(e.Name(), journalPattern, &g); err == nil {
			if info, err := e.Info(); err == nil { // else removed mid-scan
				journals[g] = info.Size()
			}
		}
	}
	sort.Slice(gens, func(a, b int) bool { return gens[a] < gens[b] })
	return gens, journals, nil
}

// verifyGeneration is the one check of a written generation, run by
// every boot and every scrub pass: it reads generation g's snapshot
// and model checkpoint once each, compares each file's SHA-256 with its
// stamp in sc when set, and parses it. Every finding, a missing model
// checkpoint included, is a *ScrubError naming the file.
func verifyGeneration(dir string, g uint64, sc replSidecar) (*Store, *core.Model, error) {
	spath := filepath.Join(dir, fmt.Sprintf(snapshotPattern, g))
	data, err := readStamped(spath, sc.StoreDigest)
	if err != nil {
		return nil, nil, err
	}
	store := NewStore()
	if err := store.RestoreSnapshot(bytes.NewReader(data)); err != nil {
		return nil, nil, &ScrubError{Path: spath, Err: err}
	}
	mpath := filepath.Join(dir, fmt.Sprintf(modelPattern, g))
	if data, err = readStamped(mpath, sc.ModelDigest); err != nil {
		return nil, nil, err
	}
	model, err := core.LoadModel(bytes.NewReader(data))
	if err != nil {
		return nil, nil, &ScrubError{Path: mpath, Err: err}
	}
	return store, model, nil
}

// readStamped reads path whole and, when stamp is set, checks the
// bytes' SHA-256 against it.
func readStamped(path, stamp string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, &ScrubError{Path: path, Err: err}
	}
	if stamp != "" {
		if got := sha256Hex(data); got != stamp {
			return nil, &ScrubError{Path: path, Err: fmt.Errorf("digest %s, sidecar stamped %s", got, stamp)}
		}
	}
	return data, nil
}

// Store returns the crowd database. Before boot or Begin it holds the
// restored snapshot only; mutations are journaled once the DB is
// live.
func (db *DB) Store() *Store { return db.store }

// Generation returns the current generation (0 for a fresh
// directory).
func (db *DB) Generation() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.gen
}

// Fresh reports whether Open found no snapshot and no journal file:
// the caller must bootstrap state and call Begin instead of booting a
// written generation.
func (db *DB) Fresh() bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.gen == 0
}

// DatasetPath is where the dataset that seeded this data directory is
// kept: the vocabulary source every boot reads. OpenTenant writes it
// with a fresh directory's generation 1, and the DB with a generation
// installed from another node's state (restore, a fresh follower).
func (db *DB) DatasetPath() string {
	return filepath.Join(db.dir, datasetName)
}

// SetModelSnapshotter installs the function that serializes the
// current model (e.g. core.ConcurrentModel.Save); compaction calls it
// to checkpoint posteriors alongside the store snapshot. Must be set
// before Begin and before any compaction.
func (db *DB) SetModelSnapshotter(save func(io.Writer) error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.saveModel = save
}

// SetQuiescer installs the manager's Quiesce so compaction can cut a
// snapshot with no resolve half-applied between the store and the
// model (Manager.ResolveTask commits to the store first, then updates
// posteriors — a snapshot between the two would desynchronize them).
// Must be set before Begin and before any compaction.
func (db *DB) SetQuiescer(q func(func() error) error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.quiesce = q
}

// boot is the one boot of a written generation — a restart, a
// follower, and verify-backup's restore all come up through it: the
// directory's dataset is the vocabulary source, the model checkpoint
// Open verified goes behind cfg's stack, the stack is wired into
// compaction (SetModelSnapshotter, SetQuiescer), and the journal
// replays through the manager's feedback path.
func (db *DB) boot(cfg SliceConfig) (*Manager, *core.ConcurrentModel, error) {
	db.mu.Lock()
	gen, model := db.gen, db.model
	db.model = nil
	db.mu.Unlock()
	if model == nil {
		return nil, nil, fmt.Errorf("crowddb: model checkpoint of generation %d: %s: %w",
			gen, filepath.Join(db.dir, fmt.Sprintf(modelPattern, gen)), os.ErrNotExist)
	}
	d, err := corpus.LoadFile(db.DatasetPath())
	if err != nil {
		return nil, nil, fmt.Errorf("data dir has state but no dataset: %w", err)
	}
	mgr, cm, err := cfg.stack(db.store, d.Vocab, model)
	if err != nil {
		return nil, nil, err
	}
	db.SetModelSnapshotter(cm.Save)
	db.SetQuiescer(mgr.Quiesce)
	if err := db.recoverJournal(mgr.applySkillFeedback); err != nil {
		return nil, nil, err
	}
	return mgr, cm, nil
}

// recoverJournal replays the generation's journal into the store,
// each resolve through onResolve, truncates a torn tail, attaches the
// journal for appends and starts the maintenance loop.
func (db *DB) recoverJournal(onResolve func(TaskRecord) error) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.live {
		return errors.New("crowddb: recovery of a live DB")
	}
	start := time.Now()
	path := db.journalPath(db.gen)
	res, err := replayJournalFile(db.store, path, onResolve)
	if err != nil {
		return err
	}
	if res.Torn {
		if err := os.Truncate(path, res.GoodBytes); err != nil {
			return fmt.Errorf("crowddb: truncate torn journal: %w", err)
		}
		db.opts.logf("crowddb: discarded torn journal tail after byte %d", res.GoodBytes)
	}
	if err := db.attachJournalLocked(db.gen, int64(res.Records)); err != nil {
		return err
	}
	// The replayed records advance the replication position past the
	// restored generation's base, exactly as their original appends did.
	db.repl.mu.Lock()
	db.repl.seq = db.repl.base.Seq + int64(res.Records)
	db.repl.mu.Unlock()
	db.stats.RecoveryMillis.Store(time.Since(start).Milliseconds())
	db.stats.RecoveredRecords.Store(int64(res.Records))
	if res.Torn {
		db.stats.TornTailTruncated.Store(1)
	}
	db.goLiveLocked()
	db.opts.logf("crowddb: recovered generation %d (%d journal records, torn=%v) in %s",
		db.gen, res.Records, res.Torn, time.Since(start).Round(time.Millisecond))
	return nil
}

// Begin makes a freshly bootstrapped DB live: it writes generation 1
// (model checkpoint + store snapshot), opens an empty journal and
// starts the maintenance loop. The store must already hold the
// initial state (registered workers), and SetModelSnapshotter and
// SetQuiescer must have wired the model the generation checkpoints.
func (db *DB) Begin() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.live {
		return errors.New("crowddb: Begin on a live DB")
	}
	if db.gen != 0 {
		return errors.New("crowddb: Begin on a restored data directory (open it with OpenTenant)")
	}
	if db.saveModel == nil || db.quiesce == nil {
		return errors.New("crowddb: Begin needs SetModelSnapshotter and SetQuiescer")
	}
	if err := db.switchLocked(nil, nil); err != nil {
		return err
	}
	db.goLiveLocked()
	return nil
}

func (db *DB) journalPath(gen uint64) string {
	return filepath.Join(db.dir, fmt.Sprintf(journalPattern, gen))
}

// attachJournalLocked opens generation gen's journal for appends and
// wires it into the store. initRecords seeds the compaction threshold
// with what the journal already holds on disk.
func (db *DB) attachJournalLocked(gen uint64, initRecords int64) error {
	f, err := db.opts.openJournal(db.journalPath(gen))
	if err != nil {
		return fmt.Errorf("crowddb: open journal: %w", err)
	}
	db.jw = db.newJournal(f)
	db.jw.records = initRecords
	db.store.setJournal(db.jw)
	return nil
}

// newJournal wraps f as the DB's journal writer: a failed append enters
// degraded mode, every record is published to replication, and the
// append that crosses a compaction threshold wakes the maintenance
// loop.
func (db *DB) newJournal(f JournalFile) *journalWriter {
	var jw *journalWriter
	jw = newJournalWriter(f, db.opts.Sync, &db.stats, db.enterDegraded, func(payload []byte) {
		db.replPublish(payload)
		if db.opts.overLimit(jw.records) {
			db.wake()
		}
	}, db.opts.Clock)
	return jw
}

// NeedsCompaction reports whether the current journal has crossed the
// configured threshold.
func (db *DB) NeedsCompaction() bool {
	db.mu.Lock()
	jw := db.jw
	db.mu.Unlock()
	if jw == nil {
		return false
	}
	return db.opts.overLimit(jw.Records())
}

// Compact writes a new generation — model checkpoint and store
// snapshot via temp+fsync+rename — rotates the journal, and removes
// older generations. The cut is atomic with respect to mutations and
// resolves: no acknowledged write is in only the old journal's future
// or the new snapshot's past.
func (db *DB) Compact() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.switchLocked(nil, nil)
}

// adopt is a serving follower's live re-bootstrap: the switch to a
// generation holding g, its primary's state, whose model replace hands
// to the serving selector.
func (db *DB) adopt(g generation, replace func(*core.Model)) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.switchLocked(&g, replace)
}

// switchLocked is the one switch to generation gen+1, run by compaction
// (adopted nil: the generation holds the live state) and by a follower's
// live re-bootstrap (adopted: its primary's state, read back through
// verifyGeneration and moved into the live store, model and position).
// It opens the next journal, writes the generation, rotates appends to
// the new journal and sweeps older generations. A journal that cannot
// be opened fails the switch before anything moves; any later failure
// enters degraded mode, so nothing is acknowledged into a superseded
// journal. Callers hold db.mu.
func (db *DB) switchLocked(adopted *generation, replace func(*core.Model)) error {
	next := db.gen + 1
	err := db.quiesce(func() error {
		// With resolves quiesced and the store write-locked, the store
		// snapshot, the model checkpoint, the journal rotation and the
		// replication position all observe the same instant.
		db.store.mu.Lock()
		defer db.store.mu.Unlock()
		// The next journal is open before the snapshot's rename commits
		// the generation, so a journal that cannot be opened fails the
		// switch while appends still belong to the current one.
		f, err := db.opts.openJournal(db.journalPath(next))
		if err != nil {
			return fmt.Errorf("crowddb: compact journal: %w", err)
		}
		if err = db.writeNextLocked(next, adopted, replace); err != nil {
			// The rename may have committed generation next before the
			// error, and then appends to the current journal would be
			// lost to the next boot. Seal mutations until the maintenance
			// loop heals by writing generation next again.
			f.Close()
			db.enterDegraded(err)
			return fmt.Errorf("crowddb: compact: %w", err)
		}
		old := db.jw
		db.jw = db.newJournal(f)
		db.store.journal = db.jw
		if old != nil {
			if err := old.Close(); err != nil {
				db.opts.logf("crowddb: closing rotated journal: %v", err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	prev := db.gen
	db.gen = next
	db.stats.Compactions.Add(1)
	db.removeGenerationsThrough(prev)
	db.opts.logf("crowddb: compacted to generation %d", next)
	return nil
}

// writeNextLocked writes generation next — the live state, or adopted
// read back and moved into the live store and model — and loads the
// replication position from its sidecar as written. Callers hold
// db.mu, the quiescer and store.mu.
func (db *DB) writeNextLocked(next uint64, adopted *generation, replace func(*core.Model)) error {
	g := adopted
	if g == nil {
		r := &db.repl
		r.mu.Lock()
		head := replSidecar{History: r.history, Seq: r.seq,
			FencingEpoch: r.fencingEpoch, FencingObserved: r.fencingObserved}
		r.mu.Unlock()
		// The tenant field is read directly: the store's write lock is
		// held here.
		g = &generation{model: db.saveModel, store: db.store.snapshotLocked, sidecar: head,
			tenant: cmp.Or(db.store.tenant, DefaultTenant)}
	}
	sc, err := writeGeneration(db.dir, next, *g)
	if err != nil {
		return err
	}
	if adopted != nil {
		rows, model, err := verifyGeneration(db.dir, next, sc)
		if err != nil {
			return err
		}
		db.store.takeRowsLocked(rows)
		replace(model)
	}
	db.loadReplState(sc)
	return nil
}

// generation is what writeGeneration writes: a model checkpoint and a
// store snapshot, always both. dataset is the vocabulary source of a
// generation installed from another node's state (a restore, a fresh
// follower); compaction leaves the directory's dataset alone and passes
// nil. sidecar carries the history, the snapshot's position and the
// fencing epochs; the writer adds the digests, bound to tenant.
type generation struct {
	dataset      []byte
	model, store func(io.Writer) error
	sidecar      replSidecar
	tenant       string
}

// writeGeneration is the one writer of generation n in dir: the dataset
// if given; the model checkpoint and the store snapshot, each hashed
// while it is written; the replication sidecar carrying those digests;
// the snapshot's rename, the generation's commit point; the directory
// fsync. A crash before the rename leaves the directory booting what it
// booted before. It returns the sidecar as written.
func writeGeneration(dir string, n uint64, g generation) (replSidecar, error) {
	sc := g.sidecar
	if g.dataset != nil {
		if err := writeFileAtomic(filepath.Join(dir, datasetName), fromBytes(g.dataset)); err != nil {
			return sc, fmt.Errorf("dataset: %w", err)
		}
	}
	h := sha256.New()
	err := writeFileAtomic(filepath.Join(dir, fmt.Sprintf(modelPattern, n)), func(w io.Writer) error {
		return g.model(io.MultiWriter(w, h))
	})
	if err != nil {
		return sc, fmt.Errorf("model checkpoint: %w", err)
	}
	sc.ModelDigest = hex.EncodeToString(h.Sum(nil))
	h = sha256.New()
	snapshot := filepath.Join(dir, fmt.Sprintf(snapshotPattern, n))
	tmp, err := stageFile(snapshot, func(w io.Writer) error { return g.store(io.MultiWriter(w, h)) })
	if err != nil {
		return sc, fmt.Errorf("store snapshot: %w", err)
	}
	defer os.Remove(tmp)
	sc.StoreDigest = hex.EncodeToString(h.Sum(nil))
	sc.Digest = combineDigest(g.tenant, sc.ModelDigest, sc.StoreDigest)
	err = writeFileAtomic(filepath.Join(dir, fmt.Sprintf(replPattern, n)), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(sc)
	})
	if err != nil {
		return sc, fmt.Errorf("replication sidecar: %w", err)
	}
	if err := os.Rename(tmp, snapshot); err != nil {
		return sc, fmt.Errorf("store snapshot: %w", err)
	}
	return sc, syncDir(dir)
}

// Degraded reports whether the DB is in degraded read-only mode: a
// journal append, fsync or scrub failed, mutations are sealed, and the
// maintenance loop is waiting for the disk to heal. Selections and
// other reads keep serving from the last committed state.
func (db *DB) Degraded() bool { return db.degraded.Load() }

// enterDegraded flips the DB into degraded read-only mode on the
// first failure: it seals the store so no further mutation is
// acknowledged that the journal would not survive, and wakes the
// maintenance loop to probe for the disk coming back. Called from
// inside a failing journal append with the store lock held, so it
// only touches atomics and sends a non-blocking wake-up.
func (db *DB) enterDegraded(err error) {
	if !db.degraded.CompareAndSwap(false, true) {
		return
	}
	db.stats.DegradedEnters.Add(1)
	db.store.Seal()
	db.opts.logf("crowddb: journal write failed (%v); entering degraded read-only mode", err)
	db.wake()
}

// heal is one probe of a degraded DB: once the disk looks writable it
// compacts to a fresh generation, whose snapshot and journal make
// whatever the failed journal lost or tore irrelevant, and unseals
// mutations.
func (db *DB) heal() {
	if db.probe() != nil {
		return
	}
	if err := db.Compact(); err != nil {
		db.opts.logf("crowddb: degraded: probe passed but healing compaction failed: %v", err)
		return
	}
	db.store.Unseal()
	db.degraded.Store(false)
	db.stats.DegradedExits.Add(1)
	db.opts.logf("crowddb: disk healed; left degraded read-only mode at generation %d", db.Generation())
}

// probe is one disk-health check: the Options hook, or a write + fsync
// + remove of a scratch file in the data directory.
func (db *DB) probe() error {
	if db.opts.Probe != nil {
		return db.opts.Probe()
	}
	path := filepath.Join(db.dir, ".probe")
	defer os.Remove(path)
	return writeFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "ok")
		return err
	})
}

// removeGenerationsThrough deletes the files of every generation up
// to and including g — a journal whose snapshot is gone too — except
// generations pinned by an open replication bootstrap reader
// (unpinning sweeps them). Best effort: a boot opens only the newest
// generation.
func (db *DB) removeGenerationsThrough(g uint64) {
	gens, journals, err := listGenerations(db.dir)
	if err != nil {
		return
	}
	for gen := range journals {
		gens = append(gens, gen)
	}
	for _, gen := range gens {
		if gen > g || db.replPinned(gen) {
			continue
		}
		for _, pat := range []string{snapshotPattern, modelPattern, journalPattern, replPattern} {
			os.Remove(filepath.Join(db.dir, fmt.Sprintf(pat, gen)))
		}
	}
}

// goLiveLocked marks the DB live and starts its maintenance loop;
// callers hold db.mu.
func (db *DB) goLiveLocked() {
	db.live = true
	db.donec = make(chan struct{})
	go db.maintain()
}

// wake nudges the maintenance loop without blocking: callers may hold
// the store lock, and one pending wake-up stands for any number.
func (db *DB) wake() {
	select {
	case db.wakec <- struct{}{}:
	default:
	}
}

// maintain is the DB's one background goroutine, the only one to touch
// the disk unasked. While degraded it heals every probeInterval;
// otherwise it compacts a journal past CompactEveryRecords (at start,
// then after the append that crosses it; a failed compaction waits for
// the next append) and scrubs. One job at a time excludes them from
// each other, at the price that a compaction may wait behind a scrub
// pass and a pass behind a compaction.
func (db *DB) maintain() {
	defer close(db.donec)
	var scrubc <-chan time.Time
	if db.opts.ScrubInterval > 0 {
		scrubc = db.opts.Clock.After(db.opts.ScrubInterval)
	}
	for {
		if db.degraded.Load() {
			select {
			case <-db.stopc:
				return
			case <-db.opts.Clock.After(probeInterval):
				db.heal()
			}
			continue
		}
		if db.NeedsCompaction() {
			if err := db.Compact(); err != nil {
				db.opts.logf("crowddb: auto-compaction failed: %v", err)
			}
		}
		select {
		case <-db.stopc:
			return
		case <-db.wakec:
		case <-scrubc:
			scrubc = db.opts.Clock.After(db.scrubPass())
		}
	}
}

// Close stops the maintenance loop, detaches the journal, and syncs
// and closes the journal file. It does not snapshot; call Compact
// first for a clean shutdown checkpoint.
func (db *DB) Close() error {
	db.stopOnce.Do(func() { close(db.stopc) })
	db.mu.Lock()
	donec := db.donec
	db.mu.Unlock()
	if donec != nil {
		<-donec
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.jw == nil {
		return nil
	}
	db.store.setJournal(nil)
	jw := db.jw
	db.jw = nil
	if err := jw.Close(); err != nil {
		// While degraded the journal is already known-broken; a failing
		// final sync must not block shutdown.
		if db.degraded.Load() {
			db.opts.logf("crowddb: close journal while degraded: %v", err)
			return nil
		}
		return fmt.Errorf("crowddb: close journal: %w", err)
	}
	return nil
}

// Stats snapshots the durability counters.
func (db *DB) Stats() DurabilitySnapshot {
	db.mu.Lock()
	gen := db.gen
	db.mu.Unlock()
	return DurabilitySnapshot{
		Generation:        gen,
		RecordsWritten:    db.stats.RecordsWritten.Load(),
		BytesWritten:      db.stats.BytesWritten.Load(),
		Fsyncs:            db.stats.Fsyncs.Load(),
		Compactions:       db.stats.Compactions.Load(),
		RecoveryMillis:    db.stats.RecoveryMillis.Load(),
		RecoveredRecords:  db.stats.RecoveredRecords.Load(),
		TornTailTruncated: db.stats.TornTailTruncated.Load() == 1,
		Degraded:          db.degraded.Load(),
		DegradedEnters:    db.stats.DegradedEnters.Load(),
		DegradedExits:     db.stats.DegradedExits.Load(),
	}
}
