package crowddb

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"crowdselect/internal/clock"
)

// The crowd database persists in two complementary ways: point-in-time
// snapshots (Snapshot/RestoreSnapshot) and an append-only journal of
// every mutation. The journal makes the store recoverable up to the
// last acknowledged operation, which the paper's architecture needs
// because crowd updates arrive continuously (§2: crowd insertion,
// crowd update, crowd retrieval).
//
// Journal wire format: a sequence of frames of the one frame codec
// (frame.go), each payload one JSON-encoded event. The frame makes a torn
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
	Kind    eventKind    `json:"kind"`
	Worker  int          `json:"worker,omitempty"`
	Name    string       `json:"name,omitempty"`
	Online  *bool        `json:"online,omitempty"`
	Task    int          `json:"task,omitempty"`
	Text    string       `json:"text,omitempty"`
	Tokens  []string     `json:"tokens,omitempty"`
	Workers []int        `json:"workers,omitempty"`
	Answer  string       `json:"answer,omitempty"`
	Scores  workerScores `json:"scores,omitempty"`
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

// ErrJournal wraps journal write failures; a mutation it fails is
// refused as degraded_read_only, like the ones the seal refuses after.
var ErrJournal = refuse(ErrDegraded, "crowddb: journal write failed")

// CorruptError is the frame codec's one typed error: a journal record
// present in full that fails the codec or cannot be decoded or applied
// — mid-file corruption, unlike a torn final record (which replay
// tolerates by truncation) — or a typed frame of a stream or archive
// that is cut short or fails the codec. Offset is the byte offset of
// the frame; Record is its zero-based index.
type CorruptError struct {
	Offset int64
	Record int
	Err    error
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("crowddb: corrupt at frame %d (byte offset %d): %v", e.Record, e.Offset, e.Err)
}

func (e *CorruptError) Unwrap() error { return e.Err }

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
	clock    clock.Clock
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

func newJournalWriter(f JournalFile, policy SyncPolicy, stats *DurabilityStats, onErr func(error), onAppend func(payload []byte), clk clock.Clock) *journalWriter {
	return &journalWriter{f: f, policy: policy, stats: stats, onErr: onErr, onAppend: onAppend, lastSync: clk.Now(), clock: clk}
}

// append writes one record's frame in one Write.
func (jw *journalWriter) append(frame []byte) error {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	defer jw.onAppend(frame[recordHeaderSize:])
	if _, err := jw.f.Write(frame); err != nil {
		jw.onErr(err)
		return fmt.Errorf("%w: %v", ErrJournal, err)
	}
	jw.records++
	jw.unsynced++
	jw.stats.RecordsWritten.Add(1)
	jw.stats.BytesWritten.Add(int64(len(frame)))
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
	if jw.policy.interval > 0 && jw.clock.Now().Sub(jw.lastSync) >= jw.policy.interval {
		return true
	}
	return false
}

func (jw *journalWriter) syncLocked() error {
	if err := jw.f.Sync(); err != nil {
		return err
	}
	jw.unsynced = 0
	jw.lastSync = jw.clock.Now()
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

// logEvent journals the mutation apply makes; callers hold s.mu. The
// record is framed before apply runs, so one over maxRecordSize, which
// no boot could read back, is refused (ErrFrameTooLarge) with the
// store as it was and no degraded mode; then apply changes the store
// and the record is appended. Every mutator stamps its time in e.At,
// the same instant it writes into the row, so replay reproduces the
// row exactly. Non-default tenants
// stamp their namespace on every record; the default tenant leaves the
// field absent so its journal stays byte-identical to a pre-tenant one.
func (s *Store) logEvent(e event, apply func()) error {
	if s.journal == nil {
		apply()
		return nil
	}
	if e.Tenant == "" && s.tenant != "" && s.tenant != DefaultTenant {
		e.Tenant = s.tenant
	}
	payload, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrJournal, err)
	}
	frame, err := appendFrame(nil, payload, maxRecordSize)
	if err != nil {
		return err
	}
	apply()
	return s.journal.append(frame)
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

// replayJournal applies a journal's framed records to the store. A
// torn final record (crash mid-append) is tolerated and discarded;
// mid-file corruption or a record that fails to apply surfaces as a
// *CorruptError. It runs on a freshly constructed (or
// snapshot-restored) store before new mutations are accepted. After
// each resolve event commits to the store, onResolve (when non-nil)
// receives the resolved record so recovery can replay the feedback
// through the skill-update path.
func (s *Store) replayJournal(data []byte, onResolve func(TaskRecord) error) (ReplayResult, error) {
	return walkJournal(data, func(idx int, off int64, payload []byte) error {
		var e event
		err := json.Unmarshal(payload, &e)
		if err == nil {
			err = s.applyEvent(e, onResolve)
		}
		if err != nil {
			return &CorruptError{Offset: off, Record: idx, Err: err}
		}
		return nil
	})
}

// walkJournal is the journal's reader of the frame codec (frame.go):
// it calls fn with the index, byte offset and payload of every record
// whose frame is whole and whose checksum matches, and reports how many
// records fn accepted and where the last of them ends. A torn final
// record — a partial header or payload at EOF, or a full-length last
// record with wrong bytes, all of which a crash mid-append leaves
// behind — ends the walk cleanly with Torn set; a length over
// maxRecordSize or a bad checksum anywhere before that is a
// *CorruptError. An error from fn stops the walk and is returned as is,
// with the result counting the records before it.
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
		h := frameHeader(rest[:recordHeaderSize])
		length, err := h.length(maxRecordSize)
		if err != nil {
			return res, &CorruptError{Offset: off, Record: res.Records, Err: err}
		}
		end := recordHeaderSize + length
		if len(rest) < end {
			res.Torn = true // partial payload at EOF
			return res, nil
		}
		payload := rest[recordHeaderSize:end]
		if err := h.check(payload); err != nil {
			if len(rest) == end {
				// The final record is present at full length but its
				// bytes are wrong — a torn write inside the payload.
				res.Torn = true
				return res, nil
			}
			return res, &CorruptError{Offset: off, Record: res.Records, Err: err}
		}
		if err := fn(res.Records, off, payload); err != nil {
			return res, err
		}
		res.Records++
		res.GoodBytes = off + int64(end)
	}
	return res, nil
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

// applyEvent applies one journaled event — replayed or replicated —
// through the store's mutators, whose lower-case twins take the
// event's recorded time, so the rebuilt rows match the original byte
// for byte. A follower's store has
// a live journal attached, so there the application also journals the
// event locally (that is what makes a follower durable in its own
// right).
func (s *Store) applyEvent(e event, onResolve func(TaskRecord) error) error {
	if err := s.tenantMismatch(e); err != nil {
		return err
	}
	switch e.Kind {
	case evAddWorker:
		_, err := s.addWorker(e.At, e.Worker, e.Name)
		return err
	case evPresence:
		if e.Online == nil {
			return fmt.Errorf("%w: presence event without online flag", ErrBadRequest)
		}
		return s.setOnline(e.At, e.Worker, *e.Online)
	case evAddTask:
		t, err := s.addTask(e.At, e.Text, e.Tokens)
		if err != nil {
			return err
		}
		if t.ID != e.Task {
			return fmt.Errorf("%w: replayed task id %d, journal says %d", ErrBadRequest, t.ID, e.Task)
		}
		return nil
	case evAssign:
		return s.assign(e.At, e.Task, e.Workers)
	case evAnswer:
		return s.recordAnswer(e.At, e.Task, e.Worker, e.Answer)
	case evResolve:
		rec, err := s.resolve(e.At, e.Task, e.Scores)
		if err != nil {
			return err
		}
		if onResolve != nil {
			return onResolve(rec)
		}
		return nil
	case evSkillFeedback:
		// Store rows are untouched; journal through the live path (its
		// dedupe and seal gate, at the record's At)
		// and hand the scores to the skill-update hook as a synthetic
		// resolved record. A keyed forward already folded is skipped.
		forwardOf := -1
		if e.ForwardOf != nil {
			forwardOf = *e.ForwardOf
		}
		applied, err := s.logSkillFeedback(e.At, e.Tokens, e.Scores, forwardOf)
		if err != nil || !applied || onResolve == nil {
			return err
		}
		return onResolve(syntheticFeedbackRecord(e.Tokens, e.Scores))
	default:
		return fmt.Errorf("%w: unknown journal event %q", ErrBadRequest, e.Kind)
	}
}

// workerScores is a score per worker id — a journal event's or a
// feedback request's. On the wire each key is a worker id as
// strconv.Itoa spells it, in encoding/json's sorted order, and nothing
// else: "7x" is refused, not read as worker 7, and so are "07" and
// "+7". A worker named twice is refused by name, where a map of the
// keys would keep its last score and drop the first.
type workerScores map[int]float64

func (m *workerScores) UnmarshalJSON(b []byte) error {
	var keyed map[string]float64
	if err := json.Unmarshal(b, &keyed); err != nil {
		return err
	}
	if bytes.Count(b, []byte{':'}) > len(keyed) { // a key repeated, or one holding a colon
		dec, seen := json.NewDecoder(bytes.NewReader(b)), map[string]bool{}
		for tok, err := dec.Token(); err == nil; tok, err = dec.Token() {
			k, key := tok.(string) // every value is a number, so a string is a key
			if key && seen[k] {
				return fmt.Errorf("%w: worker %s scored twice", ErrBadRequest, k)
			}
			seen[k] = key
		}
	}
	*m = make(workerScores, len(keyed))
	for k, v := range keyed {
		id, err := strconv.Atoi(k)
		if err != nil || strconv.Itoa(id) != k {
			return fmt.Errorf("%w: bad worker id %q in scores", ErrBadRequest, k)
		}
		(*m)[id] = v
	}
	return nil
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
	return s.logSkillFeedback(s.clock.Now(), tokens, scores, forwardOf)
}

func (s *Store) logSkillFeedback(at time.Time, tokens []string, scores map[int]float64, forwardOf int) (applied bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if forwardOf >= 0 && s.appliedForwards[forwardOf] {
		return false, nil
	}
	if err := s.sealedErrLocked(); err != nil {
		return false, err
	}
	e := event{Kind: evSkillFeedback, Tokens: append([]string(nil), tokens...), Scores: scores, At: at}
	if forwardOf >= 0 {
		key := forwardOf
		e.ForwardOf = &key
	}
	if err := s.logEvent(e, func() {}); err != nil {
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
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return ReplayResult{}, nil
	}
	if err != nil {
		return ReplayResult{}, fmt.Errorf("crowddb: read journal: %w", err)
	}
	return s.replayJournal(data, onResolve)
}
