package crowddb

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
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
// Positions are (seq, bytes) pairs counted from the start of a
// replication history: seq is the number of journal records ever
// committed under this primary's history id, bytes the framed journal
// bytes they occupied. The pair survives compaction — each generation
// records its base position in a repl-%08d.json sidecar — so a
// follower's resume point stays meaningful across snapshot cuts on
// either side.
//
// Replication frame wire format (distinct from the journal's 8-byte
// frame; the extra leading byte carries the frame type):
//
//	[1B type][4B little-endian payload length][4B little-endian CRC32 (IEEE) of payload][payload]
//
// Decoding never panics: a clean end between frames is io.EOF, and a
// truncated or corrupt frame is a *FrameError.

// Replication frame types.
const (
	frameHello     byte = 1 // stream header: history, head position, bootstrap flag
	frameDataset   byte = 2 // bootstrap only: raw dataset.json bytes
	frameModel     byte = 3 // bootstrap only: raw model checkpoint bytes
	frameSnapshot  byte = 4 // bootstrap only: base position + raw store snapshot
	frameRecord    byte = 5 // one journal event with its position
	frameHeartbeat byte = 6 // head position while the journal is idle

	// Backup archive frames (DESIGN §15). Backups reuse the replication
	// codec so the same CRC/length validation covers archives at rest;
	// these two types never appear on a live replication stream.
	frameBackupManifest byte = 7 // segment header: cut identity and digest stamps
	frameBackupEnd      byte = 8 // segment trailer: proves the segment is complete
)

// replFrameHeaderSize is the framing overhead per replication frame.
const replFrameHeaderSize = 9

// maxReplFrameSize bounds one frame's payload. Record frames stay
// within the journal's 1 MiB record cap plus envelope, but bootstrap
// frames carry whole snapshots and model checkpoints.
const maxReplFrameSize = 64 << 20

// FrameError reports a truncated or corrupt replication frame at a
// byte offset within the stream. Clean end-of-stream between frames is
// io.EOF, not a FrameError.
type FrameError struct {
	Offset int64
	Err    error
}

func (e *FrameError) Error() string {
	return fmt.Sprintf("crowddb: replication frame at byte offset %d: %v", e.Offset, e.Err)
}

func (e *FrameError) Unwrap() error { return e.Err }

// writeReplFrame frames one payload onto w.
func writeReplFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [replFrameHeaderSize]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readReplFrame reads one frame from r; off is the stream offset of
// the frame's first byte, used only for error reporting. n is the
// frame's total length on the wire. A clean EOF before any header byte
// is io.EOF; everything else wrong is a *FrameError.
func readReplFrame(r io.Reader, off int64) (typ byte, payload []byte, n int64, err error) {
	var hdr [replFrameHeaderSize]byte
	nr, err := io.ReadFull(r, hdr[:])
	if err != nil {
		if nr == 0 && errors.Is(err, io.EOF) {
			return 0, nil, 0, io.EOF
		}
		return 0, nil, 0, &FrameError{Offset: off, Err: io.ErrUnexpectedEOF}
	}
	typ = hdr[0]
	length := binary.LittleEndian.Uint32(hdr[1:5])
	sum := binary.LittleEndian.Uint32(hdr[5:9])
	if typ < frameHello || typ > frameBackupEnd {
		return 0, nil, 0, &FrameError{Offset: off, Err: fmt.Errorf("unknown frame type 0x%02x", typ)}
	}
	if length > maxReplFrameSize {
		return 0, nil, 0, &FrameError{Offset: off, Err: fmt.Errorf("frame length %d exceeds %d", length, maxReplFrameSize)}
	}
	// CopyN rather than a pre-sized ReadFull so a lying length header
	// cannot force a huge allocation before the truncation is noticed.
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, int64(length)); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, 0, &FrameError{Offset: off, Err: err}
	}
	payload = buf.Bytes()
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, nil, 0, &FrameError{Offset: off, Err: errors.New("checksum mismatch")}
	}
	return typ, payload, replFrameHeaderSize + int64(length), nil
}

// replHello opens every stream: the primary's history id, its head
// position, the generation serving this stream, and whether a
// bootstrap (dataset + model + snapshot frames) follows.
type replHello struct {
	History    string `json:"history"`
	Seq        int64  `json:"seq"`
	Bytes      int64  `json:"bytes"`
	Generation uint64 `json:"generation"`
	Bootstrap  bool   `json:"bootstrap"`
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
// record's ordinal since history start, Bytes the cumulative framed
// journal bytes through this record.
type replRecordMsg struct {
	Seq   int64           `json:"seq"`
	Bytes int64           `json:"bytes"`
	Event json.RawMessage `json:"event,omitempty"`
}

// replSnapshotMsg carries the bootstrap snapshot and the position it
// represents: a follower restoring Store starts applying at Seq+1.
type replSnapshotMsg struct {
	Seq   int64           `json:"seq"`
	Bytes int64           `json:"bytes"`
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
// With a digest function wired (SetDigest), Seq/Bytes/Digest are one
// consistent cut: a follower applied to the same Seq whose own digest
// differs has diverged (DESIGN §14).
type replHeartbeat struct {
	Seq    int64     `json:"seq"`
	Bytes  int64     `json:"bytes"`
	At     time.Time `json:"at"`
	Digest string    `json:"digest,omitempty"`
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

// ReplicationLag is a follower's distance behind its primary:
// journal records, journal bytes (as counted by the primary), and
// seconds since the follower last heard from the primary at all
// (records/bytes bound staleness while connected; Seconds exposes a
// partition, during which the other two cannot grow).
type ReplicationLag struct {
	Records int64   `json:"records"`
	Bytes   int64   `json:"bytes"`
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
	HeadBytes     int64           `json:"head_bytes,omitempty"`
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
// and the (seq, bytes) position of the generation's snapshot cut.
const replPattern = "repl-%08d.json"

type replSidecar struct {
	History string `json:"history"`
	Seq     int64  `json:"seq"`
	Bytes   int64  `json:"bytes"`
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
	bytes   int64 // framed journal bytes since history start
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

// loadReplState seeds the replication position from the restored
// generation's sidecar. A directory from before replication existed
// (no sidecar) starts a fresh history at position zero — internally
// consistent, which is all followers need.
func (db *DB) loadReplState() {
	r := &db.repl
	r.mu.Lock()
	defer r.mu.Unlock()
	if db.gen != 0 {
		if data, err := os.ReadFile(db.replSidecarPath(db.gen)); err == nil {
			var sc replSidecar
			if err := json.Unmarshal(data, &sc); err == nil && sc.History != "" {
				// Pre-digest sidecars carry no stamps; the scrubber then
				// parse-validates instead of hash-comparing.
				r.history, r.base = sc.History, sc
				r.seq, r.bytes = sc.Seq, sc.Bytes
				// Pre-fencing sidecars carry no epochs: epoch 1 is the
				// floor every history starts at.
				r.fencingEpoch = max(sc.FencingEpoch, 1)
				r.fencingObserved = max(sc.FencingObserved, r.fencingEpoch)
				return
			}
		}
	}
	r.history = newHistoryID()
	r.fencingEpoch, r.fencingObserved = 1, 1
}

// adoptedSidecar is the sidecar of a generation installed from another
// node's state (a restore, a fresh follower): that node's history, the
// snapshot's position and its fencing epoch, which this node observes
// as its own.
func adoptedSidecar(history string, seq, bytes int64, epoch uint64) replSidecar {
	epoch = max(epoch, 1)
	return replSidecar{History: history, Seq: seq, Bytes: bytes, FencingEpoch: epoch, FencingObserved: epoch}
}

// replPublish advances the position and fans the committed record out
// to live streams. Called from the journal writer's append hook (under
// store.mu and jw.mu) for every record handed to the journal — even
// one whose write or fsync failed, because the store applied the
// mutation regardless and followers mirror the store, not the disk
// (degraded mode then seals further mutations either way).
func (db *DB) replPublish(payload []byte, frameLen int) {
	r := &db.repl
	r.mu.Lock()
	r.seq++
	r.bytes += int64(frameLen)
	msg := replRecordMsg{Seq: r.seq, Bytes: r.bytes, Event: payload}
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
// records this node has applied since its history began, and the
// framed bytes they occupied. On a follower this is its applied
// position (the follower journals every replicated record itself, so
// the counters advance in lockstep with the primary's).
func (db *DB) ReplicationHead() (seq, bytes int64) {
	db.repl.mu.Lock()
	defer db.repl.mu.Unlock()
	return db.repl.seq, db.repl.bytes
}

// ReplicationHistory returns the history id naming this node's
// lineage; a follower inherits its primary's at bootstrap.
func (db *DB) ReplicationHistory() string {
	db.repl.mu.Lock()
	defer db.repl.mu.Unlock()
	return db.repl.history
}

// seedReplication adopts a primary's history, position and fencing
// epoch — a serving follower's live re-bootstrap, before its Compact
// persists them into the new generation's sidecar.
func (db *DB) seedReplication(history string, seq, bytes int64, epoch uint64) {
	r := &db.repl
	r.mu.Lock()
	r.history = history
	r.seq, r.bytes = seq, bytes
	r.base.Seq, r.base.Bytes = seq, bytes
	r.fencingEpoch = max(epoch, 1)
	r.fencingObserved = r.fencingEpoch
	r.mu.Unlock()
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

// PinGeneration takes a reference on the current generation so its
// files survive compaction GC while a bootstrap or resume reader
// streams them, and returns the generation with its base position.
// unpin releases the reference (idempotent) and sweeps any
// generations the pin kept alive.
func (db *DB) PinGeneration() (gen uint64, baseSeq, baseBytes int64, unpin func(), err error) {
	db.mu.Lock()
	if db.gen == 0 {
		db.mu.Unlock()
		return 0, 0, 0, nil, errors.New("crowddb: no committed generation to pin")
	}
	gen = db.gen
	r := &db.repl
	r.mu.Lock()
	baseSeq, baseBytes = r.base.Seq, r.base.Bytes
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
	return gen, baseSeq, baseBytes, unpin, nil
}

// replPinned reports whether generation gen has open readers.
func (db *DB) replPinned(gen uint64) bool {
	db.repl.mu.Lock()
	defer db.repl.mu.Unlock()
	return db.repl.pins[gen] > 0
}
