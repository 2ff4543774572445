package crowddb

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Background scrubbing (DESIGN.md §14): a low-priority job of the DB's
// maintenance loop that re-reads the current generation's at-rest files
// between requests — journal record CRCs, then the check every boot runs
// (verifyGeneration). Corruption is handled exactly like a journal write
// failure: the node flips to degraded read-only mode with a typed
// *ScrubError before the rotten bytes can be served to a bootstrap or
// survive into a promotion, and the same loop heals by cutting a fresh
// generation from the in-memory state the boot verified.

// ScrubError is the one typed at-rest error, for boot and scrub alike:
// a generation's file that is missing, differs from its digest stamp or
// does not parse. Open refuses with it; the scrubber degrades with it.
type ScrubError struct {
	Path string
	Err  error
}

func (e *ScrubError) Error() string {
	return fmt.Sprintf("crowddb: at-rest corruption in %s: %v", e.Path, e.Err)
}

func (e *ScrubError) Unwrap() error { return e.Err }

// scrubState is the scrubber's counters; all fields are safe for
// concurrent use.
type scrubState struct {
	passes   atomic.Int64 // completed scrub passes (clean or not)
	files    atomic.Int64 // files verified across all passes
	records  atomic.Int64 // journal records CRC-checked across all passes
	failures atomic.Int64 // corrupt files found across all passes
	failed   atomic.Bool  // last pass found corruption; cleared by a clean pass
	mu       sync.Mutex
	lastErr  string
}

func (sc *scrubState) setErr(err error) {
	sc.mu.Lock()
	sc.lastErr = err.Error()
	sc.mu.Unlock()
}

func (sc *scrubState) lastError() string {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.lastErr
}

// IntegritySnapshot is the integrity section of /api/v1/metrics and
// /readyz: scrub progress on every durable node, plus the divergence
// state machine's counters on a follower.
type IntegritySnapshot struct {
	ScrubPasses   int64  `json:"scrub_passes"`
	ScrubFiles    int64  `json:"scrub_files"`
	ScrubRecords  int64  `json:"scrub_records"`
	ScrubFailures int64  `json:"scrub_failures"`
	ScrubFailed   bool   `json:"scrub_failed"`
	LastError     string `json:"last_error,omitempty"`
	Diverged      bool   `json:"diverged,omitempty"`
	Divergences   int64  `json:"divergences,omitempty"`
	Repairs       int64  `json:"repairs,omitempty"`
}

// ScrubStats snapshots the scrubber's counters. The divergence fields
// are zero here; a replica-carrying daemon merges them from
// Replica.Status before exposing the section.
func (db *DB) ScrubStats() IntegritySnapshot {
	return IntegritySnapshot{
		ScrubPasses:   db.scrub.passes.Load(),
		ScrubFiles:    db.scrub.files.Load(),
		ScrubRecords:  db.scrub.records.Load(),
		ScrubFailures: db.scrub.failures.Load(),
		ScrubFailed:   db.scrub.failed.Load(),
		LastError:     db.scrub.lastError(),
	}
}

// Scrub runs one verification pass over the current generation's
// at-rest files. A clean pass returns nil and clears the scrub-failed
// flag; corruption enters degraded read-only mode (typed *ScrubError)
// and returns the error. Races with compaction are tolerated: a file
// that disappears or a digest that stops matching because the
// generation moved on is re-checked against the now-current generation
// before anything is declared corrupt.
func (db *DB) Scrub() error {
	if db.degraded.Load() {
		return nil // sealed already; healing replaces these files
	}
	gen := db.Generation()
	db.repl.mu.Lock()
	stamps := db.repl.base
	db.repl.mu.Unlock()
	if gen == 0 {
		return nil // nothing durable yet
	}
	err := db.scrubGeneration(gen, stamps)
	if err == nil {
		db.scrub.passes.Add(1)
		db.scrub.failed.Store(false)
		return nil
	}
	// Re-confirm the generation is still current: a compaction racing
	// the pass deletes or supersedes the files mid-read, which is not
	// corruption. The next pass verifies the new generation.
	if db.Generation() != gen || db.degraded.Load() {
		return nil
	}
	db.scrub.passes.Add(1)
	db.scrub.failures.Add(1)
	db.scrub.failed.Store(true)
	db.scrub.setErr(err)
	db.enterDegraded(err)
	return err
}

// scrubGeneration verifies generation gen's journal, then its snapshot
// and model checkpoint (verifyGeneration); every finding is a typed
// *ScrubError. A missing journal is a finding too: the boot or
// compaction that makes a generation live opens its journal.
func (db *DB) scrubGeneration(gen uint64, stamps replSidecar) error {
	// Journal: re-walk every record's CRC. A torn tail is a live append
	// in progress, not corruption; mid-file damage is.
	jpath := db.journalPath(gen)
	data, err := os.ReadFile(jpath)
	if err != nil {
		return &ScrubError{Path: jpath, Err: err}
	}
	res, err := walkJournal(data, func(int, int64, []byte) error { return nil })
	if err != nil {
		return &ScrubError{Path: jpath, Err: err}
	}
	db.scrub.records.Add(int64(res.Records))
	db.scrub.files.Add(1)

	if _, _, err := verifyGeneration(db.dir, gen, stamps); err != nil {
		return err
	}
	db.scrub.files.Add(2)
	return nil
}

func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// scrubPass is the maintenance loop's scrub job, one Scrub. It returns
// the wait before the next pass: ScrubInterval, or ten pass-lengths when
// the pass took longer than a tenth of it, so scrubbing takes at most a
// tenth of the loop's time.
func (db *DB) scrubPass() time.Duration {
	start := db.opts.Clock.Now()
	if err := db.Scrub(); err != nil {
		db.opts.logf("crowddb: %v; entered degraded read-only mode", err)
	}
	d := db.opts.Clock.Now().Sub(start)
	return max(db.opts.ScrubInterval, 10*d) - d
}
