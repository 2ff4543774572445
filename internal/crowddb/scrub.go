package crowddb

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"crowdselect/internal/core"
)

// Background scrubbing (DESIGN.md §14): a low-priority loop that
// re-reads the current generation's at-rest files between requests and
// verifies them — journal record CRCs, snapshot and model-checkpoint
// checksums against the digests stamped in the replication sidecar
// (parse-validation when an old sidecar carries none). Corruption is
// handled exactly like a journal write failure: the node flips to
// degraded read-only mode with a typed *ScrubError before the rotten
// bytes can be served to a bootstrap or survive into a promotion, and
// the existing probe loop heals by cutting a fresh generation from the
// intact in-memory state.

// ScrubError is the typed degraded-mode reason for at-rest corruption
// found by the scrubber.
type ScrubError struct {
	Path string
	Err  error
}

func (e *ScrubError) Error() string {
	return fmt.Sprintf("crowddb: scrub: at-rest corruption in %s: %v", e.Path, e.Err)
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
		return nil // the probe loop owns the disk while degraded
	}
	gen, modelDigest, storeDigest := db.scrubBasis()
	if gen == 0 {
		return nil // nothing durable yet
	}
	err := db.scrubGeneration(gen, modelDigest, storeDigest)
	if err == nil {
		db.scrub.passes.Add(1)
		db.scrub.failed.Store(false)
		return nil
	}
	// Re-confirm the generation is still current: a compaction racing
	// the pass deletes or supersedes the files mid-read, which is not
	// corruption. The next pass verifies the new generation.
	db.mu.Lock()
	cur := db.gen
	db.mu.Unlock()
	if cur != gen || db.degraded.Load() {
		return nil
	}
	db.scrub.passes.Add(1)
	db.scrub.failures.Add(1)
	db.scrub.failed.Store(true)
	db.scrub.setErr(err)
	db.enterDegraded(err)
	return err
}

// scrubBasis captures the generation to verify together with the
// sidecar digests stamped at its cut, consistently enough that a
// racing compaction is caught by Scrub's re-confirmation.
func (db *DB) scrubBasis() (gen uint64, modelDigest, storeDigest string) {
	db.mu.Lock()
	gen = db.gen
	db.mu.Unlock()
	db.repl.mu.Lock()
	modelDigest, storeDigest = db.repl.base.ModelDigest, db.repl.base.StoreDigest
	db.repl.mu.Unlock()
	return gen, modelDigest, storeDigest
}

// scrubGeneration verifies generation gen's journal, snapshot and
// model checkpoint; every finding is a typed *ScrubError. A missing
// file is a finding too: every writer of a generation (Begin,
// compaction, restore, a follower's install) leaves a snapshot, and
// the boot or compaction that makes it live opens its journal. Only an
// unstamped model may be absent — a store-only or pre-digest
// generation.
func (db *DB) scrubGeneration(gen uint64, modelDigest, storeDigest string) error {
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

	// Snapshot: byte-hash against the sidecar's stamp when present,
	// full parse-validation otherwise (pre-digest generations).
	spath := filepath.Join(db.dir, fmt.Sprintf(snapshotPattern, gen))
	if data, err = os.ReadFile(spath); err != nil {
		return &ScrubError{Path: spath, Err: err}
	}
	if storeDigest != "" {
		if got := sha256Hex(data); got != storeDigest {
			return &ScrubError{Path: spath, Err: fmt.Errorf("snapshot digest %s, sidecar stamped %s", got, storeDigest)}
		}
	} else if err := NewStore().RestoreSnapshotFile(spath); err != nil {
		return &ScrubError{Path: spath, Err: err}
	}
	db.scrub.files.Add(1)

	// Model checkpoint: same two-tier check.
	mpath := filepath.Join(db.dir, fmt.Sprintf(modelPattern, gen))
	if data, err = os.ReadFile(mpath); err != nil {
		if modelDigest == "" && errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return &ScrubError{Path: mpath, Err: err}
	}
	if modelDigest != "" {
		if got := sha256Hex(data); got != modelDigest {
			return &ScrubError{Path: mpath, Err: fmt.Errorf("model digest %s, sidecar stamped %s", got, modelDigest)}
		}
	} else if _, err := core.LoadModelFile(mpath); err != nil {
		return &ScrubError{Path: mpath, Err: err}
	}
	db.scrub.files.Add(1)
	return nil
}

func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// startScrubber launches the periodic scrub loop (Options.ScrubInterval
// <= 0 disables it); callers hold db.mu.
func (db *DB) startScrubber() {
	if db.opts.ScrubInterval <= 0 {
		return
	}
	db.scrubDonec = make(chan struct{})
	go func() {
		defer close(db.scrubDonec)
		ticker := time.NewTicker(db.opts.ScrubInterval)
		defer ticker.Stop()
		for {
			select {
			case <-db.stopc:
				return
			case <-ticker.C:
				if err := db.Scrub(); err != nil {
					db.opts.logf("crowddb: %v; entered degraded read-only mode", err)
				}
			}
		}
	}()
}
