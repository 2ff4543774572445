package crowddb

import (
	"bytes"
	"cmp"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Warm-standby replication (DESIGN.md §10): a primary streams its
// journal to followers over one long-lived HTTP response. A new (or
// lapsed) follower first receives a bootstrap — the dataset file, the
// model checkpoint and the store snapshot of the primary's current
// generation — then the journal records since that snapshot, then
// whatever the primary commits next, as it commits it. The follower
// applies each record through the same replay path boot recovery
// uses, journals it locally, and so can itself recover, resume, or be
// promoted.
//
// A position is a seq counted from the start of a replication history:
// the number of journal records ever committed under this primary's
// history id. It survives compaction — each generation records its
// base position in a repl-%08d.json sidecar — so a follower's resume
// point stays meaningful across snapshot cuts on either side.
//
// Replication frame wire format: a type byte in front of one frame of
// the journal's codec (frame.go). Decoding never panics: a clean end
// between frames is io.EOF, and a truncated or corrupt frame is a
// *CorruptError (frameReader).

// Replication frame types.
const (
	frameHello     byte = 1 // stream header: history, head position, bootstrap flag
	frameDataset   byte = 2 // bootstrap only: raw dataset.json bytes
	frameModel     byte = 3 // bootstrap only: raw model checkpoint bytes
	frameSnapshot  byte = 4 // bootstrap only: base position + raw store snapshot
	frameRecord    byte = 5 // one journal event with its position
	frameHeartbeat byte = 6 // head position while the journal is idle

	// Backup archive frames (DESIGN §15). Backups reuse the typed frames
	// so the same CRC/length validation covers archives at rest;
	// these two types never appear on a live replication stream.
	frameBackupManifest byte = 7 // segment header: cut identity and digest stamps
	frameBackupEnd      byte = 8 // segment trailer: proves the segment is complete
)

// replHello opens every stream: the primary's history id, its head
// position, and whether a bootstrap (dataset + model + snapshot frames)
// follows.
type replHello struct {
	History   string `json:"history"`
	Seq       int64  `json:"seq"`
	Bootstrap bool   `json:"bootstrap"`
	// FencingEpoch is the primary's fencing epoch (DESIGN §12). A
	// follower adopts it at bootstrap and refuses to follow a primary
	// whose epoch is below one it has already observed for this
	// history — a deposed primary cannot re-recruit its old followers.
	FencingEpoch uint64 `json:"fencing_epoch,omitempty"`
	// Arch is the primary's runtime.GOARCH; a follower on another
	// architecture stops with ErrArchMismatch. Absent from peers that
	// predate the stamp, which are accepted.
	Arch string `json:"arch,omitempty"`
	// Kernel is the primary's core.KernelVersion; a follower running
	// another stops with ErrKernelMismatch. Absent from peers that
	// predate the stamp, which run kernel 1.
	Kernel int `json:"kernel,omitempty"`
}

// replRecordMsg is one journal event at its position: Seq is the
// record's ordinal since history start.
type replRecordMsg struct {
	Seq   int64           `json:"seq"`
	Event json.RawMessage `json:"event,omitempty"`
}

// replSnapshotMsg carries the bootstrap snapshot and the position it
// represents: a follower restoring Store starts applying at Seq+1.
type replSnapshotMsg struct {
	Seq   int64           `json:"seq"`
	Store json.RawMessage `json:"store"`
}

// file is the snapshot file the frame was read from: json.Marshal
// compacts the raw store and so drops the newline Store.Snapshot ends
// the file with.
func (m replSnapshotMsg) file() []byte {
	return append(bytes.TrimRight(m.Store, "\n"), '\n')
}

// replHeartbeat advertises the primary's head while no records flow,
// so a caught-up follower's staleness clock keeps ticking forward.
// With a digest function wired (SetDigest), Seq and Digest are one
// consistent cut: a follower applied to the same Seq whose own digest
// differs has diverged (DESIGN §14).
type replHeartbeat struct {
	Seq    int64  `json:"seq"`
	Digest string `json:"digest,omitempty"`
}

// Server roles. A node is born a primary unless it runs with
// -replica-of; promotion flips a replica to primary for good.
const (
	RolePrimary = "primary"
	RoleReplica = "replica"
	// RoleFenced is a sealed node: it observed a higher fencing epoch
	// for its history (or its supervisor lease lapsed) and refuses all
	// mutations with 409 fenced until re-pointed as a follower. The
	// wire value for an ordinary follower stays "replica" for
	// compatibility with PR 5/6 consumers.
	RoleFenced = "fenced"
)

// ReplicationLag is a follower's distance behind its primary: journal
// records, and seconds since the follower last heard from the primary
// at all (records bound staleness while connected; Seconds exposes a
// partition, during which Records cannot grow).
type ReplicationLag struct {
	Records int64   `json:"records"`
	Seconds float64 `json:"seconds"`
}

// ReplicationStatus is the replication section of /readyz and
// /api/v1/metrics. A primary reports its head position and connected
// followers; a follower additionally reports its primary, applied
// position and lag.
type ReplicationStatus struct {
	Role          string          `json:"role"`
	FencingEpoch  uint64          `json:"fencing_epoch,omitempty"`
	Primary       string          `json:"primary,omitempty"`
	Connected     bool            `json:"connected"`
	History       string          `json:"history,omitempty"`
	AppliedSeq    int64           `json:"applied_seq"`
	HeadSeq       int64           `json:"head_seq"`
	Followers     int64           `json:"followers"`
	StreamsServed int64           `json:"streams_served,omitempty"`
	Bootstraps    int64           `json:"bootstraps,omitempty"`
	Reconnects    int64           `json:"reconnects,omitempty"`
	FramesApplied int64           `json:"frames_applied,omitempty"`
	Lag           *ReplicationLag `json:"replication_lag,omitempty"`
	// Diverged marks a follower whose digest disagreed with its
	// primary's at the same applied position (DESIGN §14): it refuses
	// promotion and is forcing a re-bootstrap repair. Divergences and
	// Repairs count detections and completed re-bootstrap repairs.
	Diverged    bool  `json:"diverged,omitempty"`
	Divergences int64 `json:"divergences,omitempty"`
	Repairs     int64 `json:"repairs,omitempty"`
	// Stopped is why a follower stopped streaming for good — its primary
	// refused its position (ErrReplicaDiverged) or speaks another arch or
	// kernel (ErrArchMismatch, ErrKernelMismatch). It still serves reads.
	// Empty while the follower streams or reconnects.
	Stopped string `json:"stopped,omitempty"`
}

// replPattern is the per-generation sidecar recording the history id
// and the seq of the generation's snapshot cut.
const replPattern = "repl-%08d.json"

type replSidecar struct {
	History string `json:"history"`
	Seq     int64  `json:"seq"`
	// FencingEpoch is this node's own epoch; FencingObserved the
	// highest epoch it has seen for its history (from a promotion
	// header, a fence order, or a follower's hello). Observed > own
	// means the node restarts sealed — a deposed primary cannot
	// resurrect itself as a primary by rebooting.
	FencingEpoch    uint64 `json:"fencing_epoch,omitempty"`
	FencingObserved uint64 `json:"fencing_observed,omitempty"`
	// Digest stamps the integrity fingerprint of the generation's cut
	// (DESIGN §14): the combined tenant-bound digest plus its model and
	// store components, hex SHA-256 of the exact checkpoint file bytes.
	// The scrubber hash-compares the at-rest files against them.
	Digest      string `json:"digest,omitempty"`
	ModelDigest string `json:"model_digest,omitempty"`
	StoreDigest string `json:"store_digest,omitempty"`
}

// replState is the DB's replication position and fan-out hub. Lock
// order: db.mu and store.mu (and jw.mu) may be held when taking
// repl.mu; never the reverse.
type replState struct {
	mu      sync.Mutex
	history string
	seq     int64 // records committed since history start
	subs    map[*replSub]struct{}
	pins    map[uint64]int // generation → open bootstrap/stream readers

	fencingEpoch    uint64 // this node's own fencing epoch (≥ 1)
	fencingObserved uint64 // highest epoch seen for this history (≥ own)

	// base is the current generation's sidecar as written: the
	// snapshot's position and the digest stamps, which fencing rewrites
	// preserve and the scrubber hash-compares the at-rest files against
	// without re-reading the file. history and the fencing epochs above
	// are the live values.
	base replSidecar
}

// replSub is one live stream's subscription to committed records. The
// publisher never blocks on it: a subscriber that falls a full buffer
// behind has its channel closed and must reconnect (resuming from its
// applied position, which the journal files still cover).
type replSub struct {
	ch chan replRecordMsg
}

const replSubBuffer = 4096

// newHistoryID mints the random id that names one primary lineage.
// Followers refuse to mix positions across histories: after a wipe or
// an unrelated primary, positions from another lineage mean nothing.
func newHistoryID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to the clock; uniqueness, not secrecy, is the point.
		return fmt.Sprintf("t%016x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

func (db *DB) replSidecarPath(gen uint64) string {
	return filepath.Join(db.dir, fmt.Sprintf(replPattern, gen))
}

// loadSidecar reads a generation's replication sidecar. A missing one
// is a directory from before replication existed: the zero sidecar. One
// that does not parse, or names no history, is a *ScrubError.
func loadSidecar(path string) (sc replSidecar, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return sc, nil
	}
	if err == nil {
		err = json.Unmarshal(data, &sc)
	}
	if err == nil && sc.History == "" {
		err = errors.New("sidecar names no history")
	}
	if err != nil {
		err = &ScrubError{Path: path, Err: err}
	}
	return sc, err
}

// loadReplState seeds the replication position from the sidecar of the
// generation booted or switched to. The zero sidecar (a fresh or
// pre-replication directory) starts a new history at position zero;
// epoch 1 is the floor every history starts at.
func (db *DB) loadReplState(sc replSidecar) {
	sc.History = cmp.Or(sc.History, newHistoryID())
	r := &db.repl
	r.mu.Lock()
	defer r.mu.Unlock()
	r.history, r.base = sc.History, sc
	r.seq = sc.Seq
	r.fencingEpoch = max(sc.FencingEpoch, 1)
	r.fencingObserved = max(sc.FencingObserved, r.fencingEpoch)
}

// adoptedSidecar is the sidecar of a generation installed from another
// node's state (a restore, a fresh follower): that node's history, the
// snapshot's position and its fencing epoch, which this node observes
// as its own.
func adoptedSidecar(history string, seq int64, epoch uint64) replSidecar {
	epoch = max(epoch, 1)
	return replSidecar{History: history, Seq: seq, FencingEpoch: epoch, FencingObserved: epoch}
}

// replPublish advances the position and fans the committed record out
// to live streams. Called from the journal writer's append hook (under
// store.mu and jw.mu) for every record handed to the journal — even
// one whose write or fsync failed, because the store applied the
// mutation regardless and followers mirror the store, not the disk
// (degraded mode then seals further mutations either way).
func (db *DB) replPublish(payload []byte) {
	r := &db.repl
	r.mu.Lock()
	r.seq++
	msg := replRecordMsg{Seq: r.seq, Event: payload}
	for sub := range r.subs {
		select {
		case sub.ch <- msg:
		default:
			delete(r.subs, sub)
			close(sub.ch)
		}
	}
	r.mu.Unlock()
}

func (db *DB) replSubscribe() *replSub {
	sub := &replSub{ch: make(chan replRecordMsg, replSubBuffer)}
	db.repl.mu.Lock()
	if db.repl.subs == nil {
		db.repl.subs = make(map[*replSub]struct{})
	}
	db.repl.subs[sub] = struct{}{}
	db.repl.mu.Unlock()
	return sub
}

func (db *DB) replUnsubscribe(sub *replSub) {
	db.repl.mu.Lock()
	if _, ok := db.repl.subs[sub]; ok {
		delete(db.repl.subs, sub)
		close(sub.ch)
	}
	db.repl.mu.Unlock()
}

// ReplicationHead returns the committed position: how many journal
// records this node has applied since its history began. On a follower
// this is its applied position (the follower journals every replicated
// record itself, so the count advances in lockstep with the primary's).
func (db *DB) ReplicationHead() int64 {
	db.repl.mu.Lock()
	defer db.repl.mu.Unlock()
	return db.repl.seq
}

// ReplicationHistory returns the history id naming this node's
// lineage; a follower inherits its primary's at bootstrap.
func (db *DB) ReplicationHistory() string {
	db.repl.mu.Lock()
	defer db.repl.mu.Unlock()
	return db.repl.history
}

// FencingEpoch returns this node's own fencing epoch (DESIGN §12).
func (db *DB) FencingEpoch() uint64 {
	db.repl.mu.Lock()
	defer db.repl.mu.Unlock()
	return db.repl.fencingEpoch
}

// FencingObserved returns the highest fencing epoch this node has
// seen for its history; when it exceeds FencingEpoch the node is
// sealed.
func (db *DB) FencingObserved() uint64 {
	db.repl.mu.Lock()
	defer db.repl.mu.Unlock()
	return db.repl.fencingObserved
}

// SetFencingEpoch raises this node's own epoch to e (promotion, or a
// follower adopting its primary's) and persists it. Epochs are
// monotone: a lower e is a no-op.
func (db *DB) SetFencingEpoch(e uint64) error {
	return db.raiseFencing(e, e)
}

// ObserveFencingEpoch records that epoch e exists for this node's
// history and persists it. Raising observed above the node's own
// epoch is what seals it; the caller (Fence.Observe) decides whether
// e belongs to this history.
func (db *DB) ObserveFencingEpoch(e uint64) error {
	return db.raiseFencing(0, e)
}

// raiseFencing monotonically raises the fencing epochs and rewrites
// the current generation's sidecar so they survive restart. Lock
// order: db.mu before repl.mu, and the file write happens outside
// both (writeFileAtomic is temp+rename, so a racing compaction's
// sidecar for a newer generation is never clobbered — it carries the
// same raised epochs, snapshotted under repl.mu).
func (db *DB) raiseFencing(own, observed uint64) error {
	db.mu.Lock()
	gen := db.gen
	r := &db.repl
	r.mu.Lock()
	changed := false
	if own > r.fencingEpoch {
		r.fencingEpoch = own
		changed = true
	}
	if r.fencingObserved < r.fencingEpoch {
		r.fencingObserved = r.fencingEpoch
		changed = true
	}
	if observed > r.fencingObserved {
		r.fencingObserved = observed
		changed = true
	}
	sc := r.base
	sc.History, sc.FencingEpoch, sc.FencingObserved = r.history, r.fencingEpoch, r.fencingObserved
	r.mu.Unlock()
	db.mu.Unlock()
	if !changed || gen == 0 {
		return nil
	}
	return writeFileAtomic(db.replSidecarPath(gen), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(sc)
	})
}

// pinGeneration takes a reference on the current generation so its
// files survive compaction GC while a bootstrap or resume reader
// streams them, and returns the generation with its base seq.
// unpin releases the reference (idempotent) and sweeps any
// generations the pin kept alive.
func (db *DB) pinGeneration() (gen uint64, baseSeq int64, unpin func(), err error) {
	db.mu.Lock()
	if db.gen == 0 {
		db.mu.Unlock()
		return 0, 0, nil, errors.New("crowddb: no committed generation to pin")
	}
	gen = db.gen
	r := &db.repl
	r.mu.Lock()
	baseSeq = r.base.Seq
	if r.pins == nil {
		r.pins = make(map[uint64]int)
	}
	r.pins[gen]++
	r.mu.Unlock()
	db.mu.Unlock()
	var once sync.Once
	unpin = func() {
		once.Do(func() {
			r.mu.Lock()
			if r.pins[gen] > 1 {
				r.pins[gen]--
				r.mu.Unlock()
				return
			}
			delete(r.pins, gen)
			r.mu.Unlock()
			if cur := db.Generation(); gen < cur {
				db.removeGenerationsThrough(cur - 1)
			}
		})
	}
	return gen, baseSeq, unpin, nil
}

// replPinned reports whether generation gen has open readers.
func (db *DB) replPinned(gen uint64) bool {
	db.repl.mu.Lock()
	defer db.repl.mu.Unlock()
	return db.repl.pins[gen] > 0
}
