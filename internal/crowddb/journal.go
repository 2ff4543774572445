package crowddb

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The crowd database persists in two complementary ways: point-in-time
// snapshots (Snapshot/RestoreSnapshot) and an append-only journal of
// every mutation. The journal makes the store recoverable up to the
// last acknowledged operation, which the paper's architecture needs
// because crowd updates arrive continuously (§2: crowd insertion,
// crowd update, crowd retrieval).
//
// Journal wire format: a sequence of framed records,
//
//	[4B little-endian payload length][4B little-endian CRC32 (IEEE) of payload][payload]
//
// where the payload is one JSON-encoded event. The frame makes a torn
// final record (a crash mid-append) detectable and truncatable, and
// the checksum turns silent mid-file corruption into a typed error
// carrying the byte offset of the bad record.

// eventKind tags a journal record.
type eventKind string

const (
	evAddWorker eventKind = "add_worker"
	evPresence  eventKind = "presence"
	evAddTask   eventKind = "add_task"
	evAssign    eventKind = "assign"
	evAnswer    eventKind = "answer"
	evResolve   eventKind = "resolve"
	// evSkillFeedback is model-only feedback: scores for workers this
	// shard owns on a task homed elsewhere. No task row changes — the
	// event exists so the posterior update survives recovery and
	// reaches replicas, keeping a sharded model byte-identical across
	// restarts and failovers.
	evSkillFeedback eventKind = "skill_feedback"
)

// event is one journal record. Only the fields relevant to its kind
// are set.
type event struct {
	Kind    eventKind          `json:"kind"`
	Worker  int                `json:"worker,omitempty"`
	Name    string             `json:"name,omitempty"`
	Online  *bool              `json:"online,omitempty"`
	Task    int                `json:"task,omitempty"`
	Text    string             `json:"text,omitempty"`
	Tokens  []string           `json:"tokens,omitempty"`
	Workers []int              `json:"workers,omitempty"`
	Answer  string             `json:"answer,omitempty"`
	Scores  map[string]float64 `json:"scores,omitempty"`
	// ForwardOf keys an evSkillFeedback record to the home-shard task
	// whose resolution it forwards. Set (task ids start at 0, hence a
	// pointer), it makes the record idempotent: an owner shard folds
	// each task's forwarded scores at most once, so a coordinator may
	// retry a failed forward leg safely. Nil for unkeyed model-only
	// feedback.
	ForwardOf *int      `json:"forward_of,omitempty"`
	At        time.Time `json:"at"`
	// Tenant namespaces the record (DESIGN §13). Stores serving a
	// non-default tenant stamp their name on every record they journal;
	// replay and replicated apply refuse a record stamped for a
	// different namespace. Absent means the record predates tenancy or
	// belongs to the default tenant — the two are deliberately
	// indistinguishable, which is what lets a PR-7-era journal replay
	// as the default tenant unchanged (and keeps a default tenant's
	// journal byte-identical to a pre-tenant one).
	Tenant string `json:"tenant,omitempty"`
}

// ErrJournal wraps journal write failures.
var ErrJournal = errors.New("crowddb: journal write failed")

// recordHeaderSize is the framing overhead per record.
const recordHeaderSize = 8

// maxRecordSize bounds a single record's payload. A header announcing
// more than this is treated as corruption, not a huge record.
const maxRecordSize = 1 << 20

// CorruptError reports a journal record that is present in full but
// fails its checksum or cannot be decoded or applied — mid-file
// corruption, as opposed to a torn final record (which replay
// tolerates by truncation). Offset is the byte offset of the corrupt
// record's frame; Record is its zero-based index.
type CorruptError struct {
	Offset int64
	Record int
	Err    error
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("crowddb: journal corrupt at record %d (byte offset %d): %v", e.Record, e.Offset, e.Err)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// encodeRecord frames one JSON payload.
func encodeRecord(payload []byte) []byte {
	buf := make([]byte, recordHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[recordHeaderSize:], payload)
	return buf
}

// SyncPolicy says when the journal fsyncs relative to appends. The
// zero value never syncs explicitly (the OS decides); use SyncAlways,
// SyncEvery or SyncInterval for a real durability contract.
type SyncPolicy struct {
	every    int           // fsync after this many appends (1 = every append)
	interval time.Duration // fsync on the first append after this much time
}

// SyncAlways fsyncs after every append: an acknowledged mutation is on
// disk before the mutating call returns.
func SyncAlways() SyncPolicy { return SyncPolicy{every: 1} }

// SyncEvery fsyncs after every n appends; a crash may lose up to the
// last n-1 acknowledged records.
func SyncEvery(n int) SyncPolicy {
	if n < 1 {
		n = 1
	}
	return SyncPolicy{every: n}
}

// SyncInterval fsyncs on the first append after d has elapsed since
// the previous sync; a crash may lose acknowledged records from the
// last interval.
func SyncInterval(d time.Duration) SyncPolicy { return SyncPolicy{interval: d} }

// String renders the policy in the -sync flag syntax.
func (p SyncPolicy) String() string {
	switch {
	case p.every == 1:
		return "always"
	case p.every > 1:
		return fmt.Sprintf("every=%d", p.every)
	case p.interval > 0:
		return fmt.Sprintf("interval=%s", p.interval)
	default:
		return "os"
	}
}

// ParseSyncPolicy parses the -sync flag syntax: "always", "every=N",
// "interval=DURATION", or "os" (never fsync explicitly).
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch {
	case s == "always":
		return SyncAlways(), nil
	case s == "os":
		return SyncPolicy{}, nil
	case strings.HasPrefix(s, "every="):
		n, err := strconv.Atoi(strings.TrimPrefix(s, "every="))
		if err != nil || n < 1 {
			return SyncPolicy{}, fmt.Errorf("crowddb: bad sync policy %q (want every=N with N ≥ 1)", s)
		}
		return SyncEvery(n), nil
	case strings.HasPrefix(s, "interval="):
		d, err := time.ParseDuration(strings.TrimPrefix(s, "interval="))
		if err != nil || d <= 0 {
			return SyncPolicy{}, fmt.Errorf("crowddb: bad sync policy %q (want interval=DURATION)", s)
		}
		return SyncInterval(d), nil
	default:
		return SyncPolicy{}, fmt.Errorf("crowddb: unknown sync policy %q (want always, every=N, interval=D or os)", s)
	}
}

// JournalFile is what a journal writer appends to: an *os.File, or a
// fault-injecting wrapper in crash tests.
type JournalFile interface {
	io.Writer
	Sync() error
	Close() error
}

// journalWriter appends framed records to a file under a sync policy
// and keeps the durability counters. Calls arrive serialized (the
// store mutation lock), but Sync/Close may race with appends during
// shutdown, so it carries its own lock.
type journalWriter struct {
	mu       sync.Mutex
	f        JournalFile
	policy   SyncPolicy
	unsynced int
	lastSync time.Time
	records  int64
	stats    *DurabilityStats
	clock    func() time.Time
	// onErr observes append/fsync failures (the durability layer's
	// degraded-mode trigger). Called with jw.mu — and typically the
	// store lock — held, so it must not block or re-enter the store.
	onErr func(error)
	// onAppend observes every record handed to the journal — even one
	// whose write or fsync failed, because the store has already
	// applied the mutation by the time it journals (replication
	// mirrors the store, not the disk). Called with jw.mu held; must
	// not block or re-enter the store.
	onAppend func(payload []byte)
}

func newJournalWriter(f JournalFile, policy SyncPolicy, stats *DurabilityStats, onErr func(error), onAppend func(payload []byte), clock func() time.Time) *journalWriter {
	return &journalWriter{f: f, policy: policy, stats: stats, onErr: onErr, onAppend: onAppend, lastSync: clock(), clock: clock}
}

func (jw *journalWriter) logRecord(e event) error {
	payload, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrJournal, err)
	}
	frame := encodeRecord(payload)
	jw.mu.Lock()
	defer jw.mu.Unlock()
	defer jw.onAppend(payload)
	if _, err := jw.f.Write(frame); err != nil {
		jw.onErr(err)
		return fmt.Errorf("%w: %v", ErrJournal, err)
	}
	jw.records++
	jw.unsynced++
	jw.stats.recordWritten(int64(len(frame)))
	if jw.shouldSync() {
		if err := jw.syncLocked(); err != nil {
			jw.onErr(err)
			return fmt.Errorf("%w: %v", ErrJournal, err)
		}
	}
	return nil
}

func (jw *journalWriter) shouldSync() bool {
	if jw.policy.every > 0 && jw.unsynced >= jw.policy.every {
		return true
	}
	if jw.policy.interval > 0 && jw.clock().Sub(jw.lastSync) >= jw.policy.interval {
		return true
	}
	return false
}

func (jw *journalWriter) syncLocked() error {
	if err := jw.f.Sync(); err != nil {
		return err
	}
	jw.unsynced = 0
	jw.lastSync = jw.clock()
	jw.stats.Fsyncs.Add(1)
	return nil
}

// Close syncs and closes the underlying file.
func (jw *journalWriter) Close() error {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if jw.unsynced > 0 {
		if err := jw.syncLocked(); err != nil {
			jw.f.Close()
			return err
		}
	}
	return jw.f.Close()
}

// Records reports how many records the journal file holds: those it
// was opened with plus those appended through this writer.
func (jw *journalWriter) Records() int64 {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	return jw.records
}

// setJournal swaps the journal every later mutation appends to; nil
// detaches it.
func (s *Store) setJournal(jw *journalWriter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = jw
}

// logEvent appends an event; callers hold s.mu. Mutators that stamp a
// timestamp into the row pass the same instant in e.At so replay
// reproduces the row exactly; otherwise the event is stamped here.
// Non-default tenants stamp their namespace on every record; the
// default tenant leaves the field absent so its journal stays
// byte-identical to a pre-tenant one.
func (s *Store) logEvent(e event) error {
	if s.journal == nil {
		return nil
	}
	if e.At.IsZero() {
		e.At = s.clock()
	}
	if e.Tenant == "" && s.tenant != "" && s.tenant != DefaultTenant {
		e.Tenant = s.tenant
	}
	return s.journal.logRecord(e)
}

// ReplayResult reports what a journal replay consumed.
type ReplayResult struct {
	// Records is the number of records applied.
	Records int
	// GoodBytes is the byte offset of the end of the last fully
	// applied record — the length a torn journal should be truncated
	// to before appending resumes.
	GoodBytes int64
	// Torn reports whether a torn final record was discarded.
	Torn bool
}

// replayJournal applies framed journal records from r to the store. A
// torn final record (crash mid-append) is tolerated and discarded;
// mid-file corruption or a record that fails to apply surfaces as a
// *CorruptError. It runs on a freshly constructed (or
// snapshot-restored) store before new mutations are accepted. After
// each resolve event commits to the store, onResolve (when non-nil)
// receives the resolved record so recovery can replay the feedback
// through the skill-update path.
func (s *Store) replayJournal(r io.Reader, onResolve func(TaskRecord) error) (ReplayResult, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return ReplayResult{}, fmt.Errorf("crowddb: replay: %w", err)
	}
	// Replay re-executes mutations through the normal store methods,
	// which stamp timestamps from the clock. Pin the clock to each
	// event's recorded time so the rebuilt state matches the original
	// byte for byte, then restore the live clock.
	s.mu.Lock()
	origClock := s.clock
	s.mu.Unlock()
	defer s.SetClock(origClock)

	return walkJournal(data, func(idx int, off int64, payload []byte) error {
		var e event
		if err := json.Unmarshal(payload, &e); err != nil {
			return &CorruptError{Offset: off, Record: idx, Err: err}
		}
		at := e.At
		s.SetClock(func() time.Time { return at })
		if err := s.applyEvent(e, onResolve); err != nil {
			return &CorruptError{Offset: off, Record: idx, Err: err}
		}
		return nil
	})
}

// walkJournal is the one reader of the journal's frame format
// ([length | crc32 | payload], see encodeRecord): it calls fn with the
// index, byte offset and payload of every record whose frame is whole
// and whose checksum matches, and reports how many records fn accepted
// and where the last of them ends. A torn final record — a partial
// header or payload at EOF, or a full-length last record with wrong
// bytes, all of which a crash mid-append leaves behind — ends the walk
// cleanly with Torn set; a bad length or checksum anywhere before that
// is a *CorruptError. An error from fn stops the walk and is returned
// as is, with the result counting the records before it.
func walkJournal(data []byte, fn func(idx int, off int64, payload []byte) error) (ReplayResult, error) {
	var res ReplayResult
	size := int64(len(data))
	for res.GoodBytes < size {
		off := res.GoodBytes
		rest := data[off:]
		if len(rest) < recordHeaderSize {
			res.Torn = true // partial header at EOF
			return res, nil
		}
		length := int64(binary.LittleEndian.Uint32(rest[0:4]))
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if length > maxRecordSize {
			return res, &CorruptError{Offset: off, Record: res.Records,
				Err: fmt.Errorf("record length %d exceeds %d", length, maxRecordSize)}
		}
		if int64(len(rest)) < recordHeaderSize+length {
			res.Torn = true // partial payload at EOF
			return res, nil
		}
		payload := rest[recordHeaderSize : recordHeaderSize+length]
		if crc32.ChecksumIEEE(payload) != sum {
			if off+recordHeaderSize+length == size {
				// The final record is present at full length but its
				// bytes are wrong — a torn write inside the payload.
				res.Torn = true
				return res, nil
			}
			return res, &CorruptError{Offset: off, Record: res.Records, Err: errors.New("checksum mismatch")}
		}
		if err := fn(res.Records, off, payload); err != nil {
			return res, err
		}
		res.Records++
		res.GoodBytes = off + recordHeaderSize + length
	}
	return res, nil
}

// applyReplicated applies one replicated event with the clock pinned
// to the event's recorded time, so a follower's rows match the
// primary's byte for byte — the streaming counterpart of replay's
// per-record clock pinning. Unlike replay, the store has a live
// journal attached, so the application also journals the event
// locally (that is what makes a follower durable in its own right).
func (s *Store) applyReplicated(e event, onResolve func(TaskRecord) error) error {
	s.mu.Lock()
	origClock := s.clock
	s.mu.Unlock()
	at := e.At
	s.SetClock(func() time.Time { return at })
	defer s.SetClock(origClock)
	return s.applyEvent(e, onResolve)
}

// tenantMismatch is the namespace cross-check on replay and replicated
// apply: a record stamped for another tenant must never fold into this
// store's model. An unstamped record is accepted anywhere — it is
// either pre-tenant history or a default-tenant record, both of which
// belong to whatever namespace owns the journal it sits in.
func (s *Store) tenantMismatch(e event) error {
	if e.Tenant == "" {
		return nil
	}
	s.mu.Lock()
	mine := s.tenant
	s.mu.Unlock()
	if mine == "" {
		mine = DefaultTenant
	}
	if e.Tenant != mine {
		return fmt.Errorf("%w: record for tenant %q in tenant %q journal", ErrBadRequest, e.Tenant, mine)
	}
	return nil
}

func (s *Store) applyEvent(e event, onResolve func(TaskRecord) error) error {
	if err := s.tenantMismatch(e); err != nil {
		return err
	}
	switch e.Kind {
	case evAddWorker:
		_, err := s.AddWorker(e.Worker, e.Name)
		return err
	case evPresence:
		if e.Online == nil {
			return fmt.Errorf("%w: presence event without online flag", ErrBadRequest)
		}
		return s.SetOnline(e.Worker, *e.Online)
	case evAddTask:
		t, err := s.AddTask(e.Text, e.Tokens)
		if err != nil {
			return err
		}
		if t.ID != e.Task {
			return fmt.Errorf("%w: replayed task id %d, journal says %d", ErrBadRequest, t.ID, e.Task)
		}
		return nil
	case evAssign:
		return s.Assign(e.Task, e.Workers)
	case evAnswer:
		return s.RecordAnswer(e.Task, e.Worker, e.Answer)
	case evResolve:
		scores, err := decodeScores(e.Scores)
		if err != nil {
			return err
		}
		rec, err := s.Resolve(e.Task, scores)
		if err != nil {
			return err
		}
		if onResolve != nil {
			return onResolve(rec)
		}
		return nil
	case evSkillFeedback:
		// Store rows are untouched; journal through the live path (its
		// dedupe and seal gate; the pinned clock keeps the record's At)
		// and hand the scores to the skill-update hook as a synthetic
		// resolved record. A keyed forward already folded is skipped.
		scores, err := decodeScores(e.Scores)
		if err != nil {
			return err
		}
		forwardOf := -1
		if e.ForwardOf != nil {
			forwardOf = *e.ForwardOf
		}
		applied, err := s.LogSkillFeedback(e.Tokens, scores, forwardOf)
		if err != nil || !applied || onResolve == nil {
			return err
		}
		return onResolve(syntheticFeedbackRecord(e.Tokens, scores))
	default:
		return fmt.Errorf("%w: unknown journal event %q", ErrBadRequest, e.Kind)
	}
}

// decodeScores converts a string-keyed score map — a journal event's
// or a feedback request's — back to worker ids. A key is a worker id
// spelled as encodeScores spells it and nothing else: "7x" is refused,
// not read as worker 7, and so are "07" and "+7", which would otherwise
// name worker 7 twice in one map and keep whichever score map order
// visited last.
func decodeScores(in map[string]float64) (map[int]float64, error) {
	scores := make(map[int]float64, len(in))
	for k, v := range in {
		id, err := strconv.Atoi(k)
		if err != nil || strconv.Itoa(id) != k {
			return nil, fmt.Errorf("%w: bad worker id %q in scores", ErrBadRequest, k)
		}
		scores[id] = v
	}
	return scores, nil
}

// encodeScores is the journaling counterpart of decodeScores.
func encodeScores(scores map[int]float64) map[string]float64 {
	out := make(map[string]float64, len(scores))
	for w, sc := range scores {
		out[strconv.Itoa(w)] = sc
	}
	return out
}

// syntheticFeedbackRecord shapes model-only skill feedback like a
// resolved task so it flows through the one skill-update path the
// manager has. Answers are sorted by worker id for deterministic
// replay.
func syntheticFeedbackRecord(tokens []string, scores map[int]float64) TaskRecord {
	rec := TaskRecord{Tokens: append([]string(nil), tokens...), Status: TaskResolved}
	for w, sc := range scores {
		rec.Answers = append(rec.Answers, Answer{Worker: w, Score: sc})
	}
	sort.Slice(rec.Answers, func(a, b int) bool { return rec.Answers[a].Worker < rec.Answers[b].Worker })
	return rec
}

// LogSkillFeedback journals model-only skill feedback (no store rows
// change). The sealed gate applies: an acknowledged posterior update
// must be recoverable, exactly like a resolve.
//
// forwardOf >= 0 keys the record to the home-shard task whose
// resolution it forwards, and makes the call idempotent: the first
// keyed call journals the record, marks the key applied, and reports
// applied=true; every later call with the same key is a durable no-op
// reporting applied=false, so the caller skips the model fold.
// forwardOf < 0 is unkeyed feedback, always applied.
func (s *Store) LogSkillFeedback(tokens []string, scores map[int]float64, forwardOf int) (applied bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if forwardOf >= 0 && s.appliedForwards[forwardOf] {
		return false, nil
	}
	if err := s.sealedErrLocked(); err != nil {
		return false, err
	}
	e := event{Kind: evSkillFeedback, Tokens: append([]string(nil), tokens...), Scores: encodeScores(scores)}
	if forwardOf >= 0 {
		key := forwardOf
		e.ForwardOf = &key
	}
	if err := s.logEvent(e); err != nil {
		return false, err
	}
	if forwardOf >= 0 {
		s.appliedForwards[forwardOf] = true
	}
	return true, nil
}

// replayJournalFile replays path into s; a missing file is an empty
// journal.
func replayJournalFile(s *Store, path string, onResolve func(TaskRecord) error) (ReplayResult, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return ReplayResult{}, nil
	}
	if err != nil {
		return ReplayResult{}, fmt.Errorf("crowddb: open journal: %w", err)
	}
	defer f.Close()
	return s.replayJournal(f, onResolve)
}
