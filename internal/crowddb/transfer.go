package crowddb

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"crowdselect/internal/core"
)

// ErrArchMismatch refuses state cut on another CPU architecture.
// math.Exp and FMA fusion differ by architecture, so posteriors
// replayed there are not byte-identical and the pair would only latch
// diverged (DESIGN §14). Fatal to a follower like ErrReplicaDiverged:
// streaming stops, reads are still served.
var ErrArchMismatch = errors.New("crowddb: state was cut on another architecture")

// ErrKernelMismatch refuses state cut by a binary of another
// core.KernelVersion. Replaying its feedback here folds every posterior
// through other arithmetic, so the digests the header promises cannot be
// met — a version skew, which without this refusal would read as
// corruption (ErrBackupDigestMismatch) or latch a pair diverged. Fatal
// to a follower like ErrArchMismatch.
var ErrKernelMismatch = errors.New("crowddb: state was cut by another kernel version")

// checkOrigin accepts a header stamped with this node's architecture and
// kernel version. A header that predates a stamp leaves its field empty:
// an empty architecture is accepted as it always was, an empty kernel
// version means 1, the kernel every binary ran before the stamp existed.
func checkOrigin(arch string, kernel int) error {
	if arch != "" && arch != runtime.GOARCH {
		return fmt.Errorf("%w: %s, this node is %s", ErrArchMismatch, arch, runtime.GOARCH)
	}
	if kernel == 0 {
		kernel = 1
	}
	if kernel != core.KernelVersion {
		return fmt.Errorf("%w: %d, this node runs %d", ErrKernelMismatch, kernel, core.KernelVersion)
	}
	return nil
}

// TransferSourceOptions tunes a TransferSource.
type TransferSourceOptions struct {
	// Logf receives transfer lifecycle notices. nil is silent.
	Logf func(format string, args ...any)
}

// heartbeat is how often an idle stream advertises the head position.
// It is the followers' staleness clock: it bounds how quickly a
// partition becomes visible.
const heartbeat = 500 * time.Millisecond

// segmentDrainWait bounds how long a backup segment waits for live
// records to close the gap between the pinned journal file and the
// digest cut. On expiry the segment ends without a trailer; the client
// resumes.
const segmentDrainWait = 10 * time.Second

// TransferSource is the one emitter of a DB's state (DESIGN.md §10,
// §15): a copy of a node — a follower's or an archive's — is "store
// snapshot + model checkpoint + ordered journal tail", and its two
// handlers, Stream and Segment, are endings of the same transfer.
//
// The node's fence seals the source: an epoch-sealed source refuses
// streams and segments alike (409 fenced), and a follower presenting a
// higher epoch in its stream request seals it on the spot. The digest
// stamps every idle heartbeat with a consistent (seq, digest) cut,
// which followers applied to the same seq compare against their own
// state (DESIGN §14), and every manifest with the cut the archive
// promises, which restore and offline verification prove against.
type TransferSource struct {
	db     *DB
	logf   func(format string, args ...any)
	fence  *Fence
	digest DigestFunc

	followers  atomic.Int64 // streams open right now
	streams    atomic.Int64 // streams ever served
	bootstraps atomic.Int64 // streams that began with a bootstrap
	backups    atomic.Int64 // full segments served
	resumes    atomic.Int64 // incremental segments served
}

// NewTransferSource builds a source over db, sealed by fence and
// stamped by digest.
func NewTransferSource(db *DB, fence *Fence, digest DigestFunc, opts TransferSourceOptions) *TransferSource {
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	return &TransferSource{db: db, logf: opts.Logf, fence: fence, digest: digest}
}

// Stream serves GET /api/v1/replication/stream (wire it as
// TenantConfig.ReplicationSource): one long-lived response per follower
// carrying a bootstrap when the follower is new, lapsed behind
// compaction or from another history, then the journal without a
// bound, heartbeats while it is idle. Query parameters:
//
//	from     the follower's applied seq; records after it are streamed
//	history  the follower's history id; a mismatch forces a bootstrap
//	boot     "1" forces a bootstrap (fresh follower)
//	epoch    the highest fencing epoch the follower has observed
//
// A follower claiming a position ahead of this primary's head within
// the same history has diverged (it was promoted, or this node lost
// acked records) and is refused with 409 replica_diverged.
func (src *TransferSource) Stream() http.Handler { return http.HandlerFunc(src.serveStream) }

// Segment serves GET /api/v1/backup (wire it as
// TenantConfig.Backup): one finite response carrying an archive
// segment that stops at a digest cut and closes with a trailer. Query
// parameters:
//
//	since    resume/incremental: stream records after this seq only
//	history  required with since; must match this node's history
//
// Without since the segment is a full backup: bootstrap (dataset,
// model, snapshot) plus records from the generation base to the cut.
// since below the generation base is 410 backup_gone (compacted away,
// and unlike a follower an archive cannot be re-bootstrapped in place:
// take a full backup); since ahead of the cut, or a foreign history,
// is 409 replica_diverged.
func (src *TransferSource) Segment() http.Handler { return http.HandlerFunc(src.serveSegment) }

// Followers reports how many streams are open right now.
func (src *TransferSource) Followers() int64 { return src.followers.Load() }

// Status summarizes the source for /readyz and /api/v1/metrics on a
// primary: its own head is by definition applied, so lag is zero.
func (src *TransferSource) Status() ReplicationStatus {
	head := src.db.ReplicationHead()
	return ReplicationStatus{
		Role:          RolePrimary,
		FencingEpoch:  src.db.FencingEpoch(),
		Connected:     true,
		History:       src.db.ReplicationHistory(),
		AppliedSeq:    head,
		HeadSeq:       head,
		Followers:     src.followers.Load(),
		StreamsServed: src.streams.Load(),
		Bootstraps:    src.bootstraps.Load(),
		Lag:           &ReplicationLag{},
	}
}

// transfer is one request's pass through the state-transfer procedure,
// whose steps exist once: begin pins, stage reads, run sends. What a
// stream and a segment do differently they pass in as arguments.
type transfer struct {
	src  *TransferSource
	w    http.ResponseWriter
	r    *http.Request
	name string // log prefix

	sub     *replSub
	unpin   func()
	gen     uint64 // the pinned generation…
	baseSeq int64  // …and its snapshot's position
	journal []byte // its journal file
	// Staged frame payloads; nil is a frame this transfer does not
	// carry (no bootstrap, no dataset file).
	headerType                       byte
	header, dataset, model, snapshot []byte
	lastSent                         int64 // seq of the last record sent
}

// begin opens a transfer with the current generation pinned, or
// answers w and returns nil: GET only, and not from an epoch-sealed
// node — a deposed lineage must neither feed followers nor hand out
// archives claiming its history. A lease seal (lapsed, or stepped down
// for a drain) keeps serving: the node has stopped acking, so its
// committed tail is a frozen prefix followers still need.
func (src *TransferSource) begin(w http.ResponseWriter, r *http.Request, name string) *transfer {
	if r.Method != http.MethodGet {
		writeErr(w, r, refuse(errMethodNotAllowed, "use GET"))
		return nil
	}
	if src.fence.SealedByEpoch() {
		src.fence.Refuse(w, r, fmt.Errorf("%s source is fenced", name))
		return nil
	}
	t := &transfer{src: src, w: w, r: r, name: name}
	// Subscribe before pinning: every record is then either ≤ the
	// pinned base (in the snapshot), in the pinned journal file, or in
	// the subscription — overlap is deduplicated by seq in run.
	t.sub = src.db.replSubscribe()
	var err error
	if t.gen, t.baseSeq, t.unpin, err = src.db.pinGeneration(); err != nil {
		src.db.replUnsubscribe(t.sub)
		writeErr(w, r, refuse(errUnavailable, "%v", err))
		return nil
	}
	return t
}

func (t *transfer) end() {
	t.unpin()
	t.src.db.replUnsubscribe(t.sub)
}

// stage reads everything the transfer will send, before its first
// byte, so errors can still become proper HTTP statuses: the header
// frame, the pinned journal and, for a bootstrap, the generation's
// dataset, model checkpoint and snapshot.
func (t *transfer) stage(typ byte, header any, bootstrap bool) (err error) {
	db := t.src.db
	t.headerType = typ
	if t.header, err = json.Marshal(header); err != nil {
		return err
	}
	if t.journal, err = os.ReadFile(db.journalPath(t.gen)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if !bootstrap {
		return nil
	}
	if b, err := os.ReadFile(db.DatasetPath()); err == nil {
		t.dataset = b
	}
	if t.model, err = os.ReadFile(filepath.Join(db.dir, fmt.Sprintf(modelPattern, t.gen))); err != nil {
		return fmt.Errorf("model checkpoint: %w", err)
	}
	snap, err := os.ReadFile(filepath.Join(db.dir, fmt.Sprintf(snapshotPattern, t.gen)))
	if err != nil {
		return fmt.Errorf("store snapshot: %w", err)
	}
	t.snapshot, err = json.Marshal(replSnapshotMsg{Seq: t.baseSeq, Store: snap})
	return err
}

// noBound is the bound of a transfer that follows the journal until
// its connection ends.
const noBound = -1

// run commits to the response and sends it: the staged frames, the
// pinned journal's records after from, then live records as they
// commit, all through bound. idle runs every period while live records
// are awaited (the stream's heartbeat, the segment's drain timeout);
// false ends the transfer. run reports whether the transfer reached its
// bound with every frame written.
func (t *transfer) run(from, bound int64, every time.Duration, idle func() bool) bool {
	// The transfer outlives any per-request read/write deadlines the
	// serving http.Server configured.
	rc := http.NewResponseController(t.w)
	_ = rc.SetReadDeadline(time.Time{})
	_ = rc.SetWriteDeadline(time.Time{})
	t.w.Header().Set("Content-Type", "application/octet-stream")
	t.w.WriteHeader(http.StatusOK)
	types := [...]byte{t.headerType, frameDataset, frameModel, frameSnapshot}
	for i, payload := range [...][]byte{t.header, t.dataset, t.model, t.snapshot} {
		if payload != nil && writeReplFrame(t.w, types[i], payload) != nil {
			return false
		}
	}
	// A stream lives as long as its follower does: it must not hold the
	// bootstrap it has already sent for all that time.
	t.header, t.dataset, t.model, t.snapshot = nil, nil, nil, nil
	// send writes msg if it is past what was sent and within the bound:
	// the journal file, the subscription and the snapshot overlap, and
	// records committed after the bound belong to the next transfer.
	t.lastSent = from
	send := func(msg replRecordMsg) error {
		if msg.Seq <= t.lastSent || (bound != noBound && msg.Seq > bound) {
			return nil
		}
		b, err := json.Marshal(msg)
		if err == nil {
			err = writeReplFrame(t.w, frameRecord, b)
		}
		if err == nil {
			t.lastSent = msg.Seq
		}
		return err
	}

	// Records already on disk in the pinned generation's journal.
	_, err := walkJournal(t.journal, func(idx int, _ int64, payload []byte) error {
		return send(replRecordMsg{Seq: t.baseSeq + int64(idx) + 1, Event: payload})
	})
	t.journal = nil
	if err != nil {
		t.src.logf("crowddb: %s ended replaying generation %d: %v", t.name, t.gen, err)
		return false
	}

	// Live tail: committed records from the hub — where a compaction
	// between pin and cut moves a segment's tail, too.
	tick := t.src.db.opts.Clock.After(every)
	for {
		if err := rc.Flush(); err != nil {
			return false
		}
		if bound != noBound && t.lastSent >= bound {
			return true
		}
		select {
		case <-t.r.Context().Done():
			return false
		case <-tick:
			if !idle() {
				return false
			}
			tick = t.src.db.opts.Clock.After(every)
		case msg, ok := <-t.sub.ch:
			if !ok {
				t.src.logf("crowddb: %s overran the subscription buffer; closing for resume", t.name)
				return false
			}
			if msg.Seq > t.lastSent+1 {
				t.src.logf("crowddb: %s gap (%d after %d); closing for resume", t.name, msg.Seq, t.lastSent)
				return false
			}
			if send(msg) != nil {
				return false
			}
		}
	}
}

func (src *TransferSource) serveStream(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	history := q.Get("history")
	if s := q.Get("epoch"); s != "" && history != "" {
		// A follower that has seen a newer primary tells us so: its
		// epoch seals this source before a single frame is served.
		if e, err := strconv.ParseUint(s, 10, 64); err == nil {
			src.fence.Observe(history, e, "")
		}
	}
	t := src.begin(w, r, "replication")
	if t == nil {
		return
	}
	defer t.end()
	var from int64
	if s := q.Get("from"); s != "" {
		var err error
		if from, err = strconv.ParseInt(s, 10, 64); err != nil || from < 0 {
			writeErr(w, r, refuse(ErrBadRequest, "bad from %q", s))
			return
		}
	}
	ourHistory := src.db.ReplicationHistory()
	head := src.db.ReplicationHead()
	// A resume point the pinned generation no longer covers, or one
	// from another history, is answered with a bootstrap.
	bootstrap := q.Get("boot") == "1" || from < t.baseSeq || (history != "" && history != ourHistory)
	if bootstrap {
		from = t.baseSeq
	} else if from > head {
		writeErr(w, r, refuse(ErrReplicaDiverged, "follower position %d is ahead of primary head %d in history %s", from, head, ourHistory))
		return
	}
	hello := replHello{History: ourHistory, Seq: head, Bootstrap: bootstrap, FencingEpoch: src.db.FencingEpoch(), Arch: runtime.GOARCH, Kernel: core.KernelVersion}
	if err := t.stage(frameHello, hello, bootstrap); err != nil {
		writeErr(w, r, refuse(errInternal, "%v", err))
		return
	}
	src.streams.Add(1)
	src.followers.Add(1)
	defer src.followers.Add(-1)
	if bootstrap {
		src.bootstraps.Add(1)
	}
	src.logf("crowddb: replication: stream open (from=%d bootstrap=%v gen=%d head=%d)", from, bootstrap, t.gen, head)
	t.run(from, noBound, heartbeat, t.heartbeat)
}

// heartbeat is the stream's idle tick: the head position, as one
// consistent digest cut.
func (t *transfer) heartbeat() bool {
	src := t.src
	if src.fence.SealedByEpoch() {
		src.logf("crowddb: replication: source fenced; closing stream")
		return false
	}
	// The cut's (seq, digest) pair is internally consistent, which is
	// what the follower-side comparison needs; a failed cut leaves a
	// plain heartbeat.
	hb := replHeartbeat{Seq: src.db.ReplicationHead()}
	if cut, err := src.digest(); err == nil {
		hb.Seq, hb.Digest = cut.Seq, cut.Digest
	}
	b, err := json.Marshal(hb)
	return err == nil && writeReplFrame(t.w, frameHeartbeat, b) == nil
}

func (src *TransferSource) serveSegment(w http.ResponseWriter, r *http.Request) {
	t := src.begin(w, r, "backup")
	if t == nil {
		return
	}
	defer t.end()
	// The cut fixes the archive's target: manifest and trailer both
	// cite cut.Seq, and the digest stamps are taken at that exact seq.
	cut, err := src.digest()
	if err != nil {
		writeErr(w, r, refuse(errInternal, "digest cut: %v", err))
		return
	}
	manifest := BackupManifest{
		Format:       backupFormatVersion,
		Tenant:       cut.Tenant,
		History:      src.db.ReplicationHistory(),
		Full:         true,
		BaseSeq:      t.baseSeq,
		Seq:          cut.Seq,
		Digest:       cut.Digest,
		ModelDigest:  cut.Model,
		StoreDigest:  cut.Store,
		FencingEpoch: src.db.FencingEpoch(),
		Generation:   t.gen,
		CreatedAt:    time.Now().UTC(),
		Arch:         runtime.GOARCH,
		Kernel:       core.KernelVersion,
		Shard:        src.db.store.sharded(),
	}
	q := r.URL.Query()
	if s := q.Get("since"); s != "" {
		since, err := strconv.ParseInt(s, 10, 64)
		kind := ErrReplicaDiverged
		switch history := q.Get("history"); {
		case err != nil || since < 0:
			kind, err = ErrBadRequest, fmt.Errorf("bad since %q", s)
		case history == "":
			kind, err = ErrBadRequest, errors.New("incremental backup needs history")
		case history != manifest.History:
			err = fmt.Errorf("archive history %s does not match source history %s", history, manifest.History)
		case since > cut.Seq:
			err = fmt.Errorf("since %d is ahead of the backup cut %d", since, cut.Seq)
		case since < t.baseSeq:
			kind, err = ErrBackupGone, fmt.Errorf("records through %d were compacted away (base %d); take a full backup", since, t.baseSeq)
		}
		if err != nil {
			writeErr(w, r, refuse(kind, "%v", err))
			return
		}
		manifest.Full, manifest.BaseSeq = false, since
	}
	full, from := manifest.Full, manifest.BaseSeq
	if err := t.stage(frameBackupManifest, manifest, full); err != nil {
		writeErr(w, r, refuse(errInternal, "%v", err))
		return
	}
	if full {
		src.backups.Add(1)
	} else {
		src.resumes.Add(1)
	}
	src.logf("crowddb: backup: segment open (full=%v from=%d cut=%d gen=%d)", full, from, cut.Seq, t.gen)
	complete := t.run(from, cut.Seq, segmentDrainWait, func() bool {
		src.logf("crowddb: backup: gave up waiting for records %d..%d", t.lastSent+1, cut.Seq)
		return false
	})
	if !complete {
		return // no trailer: the client sees a resumable, incomplete segment
	}
	tb, err := json.Marshal(BackupTrailer{Seq: cut.Seq, Records: t.lastSent - from})
	if err != nil || writeReplFrame(w, frameBackupEnd, tb) != nil {
		return
	}
	_ = http.NewResponseController(w).Flush()
	src.logf("crowddb: backup: segment complete (full=%v records=%d cut=%d)", full, t.lastSent-from, cut.Seq)
}
