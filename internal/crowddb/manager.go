package crowddb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"crowdselect/internal/core"
	"crowdselect/internal/rank"
	"crowdselect/internal/text"
)

// Selector is the model the crowd manager serves: exactly the
// *core.ConcurrentModel methods the manager calls. It is an interface
// only so contract tests can substitute fakes; every deployment passes
// a *core.ConcurrentModel, whose locking is what makes concurrent
// selection and feedback safe.
//
//   - RankBatchScored ranks a batch of tasks in one call — projections
//     fan out across cores and every selection sees one model version —
//     keeping each candidate's Eq. 1 score, truncated to k and
//     element-wise identical to ranking each bag alone. Scores are what
//     make per-shard top-k lists mergeable into a global top-k.
//   - RankBatchProjected also appends each λ_c to the caller's flat
//     slice and hands back the category version it was projected under;
//     RankCategoriesScored ranks against categories another node
//     projected at the same version (core.ErrCategoryVersion otherwise) —
//     DESIGN §11, "The fleet projects once".
//   - All three rank into lists cut from the caller's rank.Arena, valid
//     until the caller reuses it, and take the candidates as a
//     core.Candidates: the ids with the membership bitset the presence
//     snapshot built once, so the skill index ranks without rebuilding
//     membership per request.
//   - Project and UpdateWorkerSkill fold a resolved task's feedback into
//     the answerers' skill posteriors — the crowd-update path of §4.2.
//     The fold has no solve that can fail, so an UpdateWorkerSkill error
//     means invalid input (core.ErrBadUpdate); it reaches the feedback
//     caller. UpdateWorkerSkill retains neither slice it is handed.
//   - Digest is the canonical hash of the posteriors (DESIGN §14).
//
// A pure selection (RankOnly and its forms) cuts the bags it hands a
// selector from pooled storage: they are valid for the duration of the
// call and must not be retained.
type Selector interface {
	Name() string
	RankBatchScored(ctx context.Context, a *rank.Arena, bags []text.Bag, candidates core.Candidates, k int) ([][]rank.Item, error)
	RankBatchProjected(ctx context.Context, a *rank.Arena, lambdas []float64, bags []text.Bag, candidates core.Candidates, k int) ([][]rank.Item, []float64, string, error)
	RankCategoriesScored(ctx context.Context, a *rank.Arena, version string, cats [][]float64, candidates core.Candidates, k int) ([][]rank.Item, error)
	Project(bag text.Bag) core.TaskCategory
	UpdateWorkerSkill(worker int, cats []core.TaskCategory, scores []float64) error
	Digest() (string, error)
}

var _ Selector = (*core.ConcurrentModel)(nil)

// Manager is the crowd manager of Figure 1: it projects incoming
// tasks, selects the right online workers, drives the dispatcher, and
// folds feedback back into the crowd database and the model.
type Manager struct {
	store *Store
	vocab *text.Vocabulary
	sel   Selector
	k     int
	// resolveMu spans the two halves of a resolve — the store commit
	// (which journals it) and the model's posterior update. Every
	// resolver holds it exclusively, so posteriors fold in journal
	// order and a replay rebuilds the live model_digest (a skill
	// estimate depends on the order its evidence arrives in); Quiesce
	// takes it to cut checkpoints where the store and the model agree.
	resolveMu sync.Mutex
	// shard is this node's identity in an N-shard fleet. When enabled,
	// selection candidates shrink to owned workers, skill updates fold
	// only owned posteriors, and ApplyModelFeedback refuses workers
	// owned elsewhere. Set once at boot, before traffic and before
	// recovery replays the journal (replay reuses the same filters, so
	// the rebuilt model matches the live one).
	shard ShardSpec
	// owned caches a sharded node's candidate set: the owned subset of
	// one store online snapshot, refiltered when the store publishes
	// the next one.
	owned atomic.Pointer[ownedSet]
}

// ownedSet is the subset of the online snapshot `of` that this shard
// owns, sorted, len == cap, with its membership bitset, shared and
// read-only like the snapshot.
type ownedSet struct {
	of    *onlineSet
	cands core.Candidates
}

// NewManager wires a crowd manager over the store. vocab maps task
// text to the term ids the selector was trained on; k is the default
// crowd size per task. SetShard and SetTenant name the node's shard
// and tenant before any mutation is journaled or replayed.
func NewManager(store *Store, vocab *text.Vocabulary, sel Selector, k int) (*Manager, error) {
	if store == nil || vocab == nil || sel == nil {
		return nil, fmt.Errorf("%w: manager needs a store, vocabulary and selector", ErrBadRequest)
	}
	if k < 1 {
		return nil, fmt.Errorf("%w: crowd size %d", ErrBadRequest, k)
	}
	return &Manager{store: store, vocab: vocab, sel: sel, k: k}, nil
}

// Store returns the underlying crowd database.
func (m *Manager) Store() *Store { return m.store }

// SetShard installs the node's shard identity and strides the store's
// task ids onto it. Call at boot before recovery and before serving:
// ownership filters must be in place when the journal replays, or the
// rebuilt posteriors would differ from the ones that produced it.
func (m *Manager) SetShard(sp ShardSpec) {
	m.shard = sp
	m.owned.Store(nil)
	m.store.ConfigureTaskIDStride(sp.Index, sp.Count)
}

// Shard reports the node's shard identity (zero value: unsharded).
func (m *Manager) Shard() ShardSpec { return m.shard }

// SetTenant names the tenant this manager (and its store) serves
// (DESIGN §13). Call once at boot, before mutations and before
// recovery, so journal records are stamped — and cross-checked —
// against the right namespace.
func (m *Manager) SetTenant(name string) { m.store.SetTenant(name) }

// candidateWorkers is the selection candidate set: online workers,
// restricted to the ones this shard owns. The global top-k over all
// shards' candidates equals the single-node top-k because the parts
// partition the online set. The slice is shared between requests and
// must not be modified; a request loads it once, so every task of a
// batch is ranked against one online set.
func (m *Manager) candidateWorkers() core.Candidates {
	online := m.store.onlineSnapshot()
	if !m.shard.Enabled() {
		return online.cands
	}
	if o := m.owned.Load(); o != nil && o.of == online {
		return o.cands
	}
	var ids []int
	for _, id := range online.cands.IDs() {
		if m.shard.OwnsWorker(id) {
			ids = append(ids, id)
		}
	}
	cands := core.NewCandidates(ids[:len(ids):len(ids)])
	m.owned.Store(&ownedSet{of: online, cands: cands})
	return cands
}

// SelectorName reports which algorithm backs the manager.
func (m *Manager) SelectorName() string { return m.sel.Name() }

// Submission is the result of SubmitTask: the stored task and the
// workers the dispatcher distributed it to, best first.
type Submission struct {
	Task    TaskRecord
	Workers []int
}

// TaskSubmission is one element of a SubmitBatch request. K ≤ 0 uses
// the manager default crowd size. A non-empty Workers list bypasses
// ranking and assigns exactly those workers, best first — the
// scatter-gather coordinator's submit path, where the global top-k was
// already merged from per-shard scored selections. Preassigned workers
// this shard owns must be online (see validatePreassigned); foreign
// workers are the coordinator's responsibility.
type TaskSubmission struct {
	Text    string
	K       int
	Workers []int
}

// SubmitTask runs the blue path of Figure 1: store the task, project
// it into the latent category space, rank the online workers, keep the
// top k, and dispatch. k ≤ 0 uses the manager default. ctx cancels
// the selection work (a disconnected HTTP client stops the
// projection).
func (m *Manager) SubmitTask(ctx context.Context, taskText string, k int) (Submission, error) {
	subs, err := m.SubmitBatch(ctx, []TaskSubmission{{Text: taskText, K: k}})
	if err != nil {
		return Submission{}, err
	}
	return subs[0], nil
}

// SubmitBatch runs the blue path of Figure 1 for a whole batch in one
// round trip: every task is stored (ids are assigned in input order),
// all bags are projected and ranked together in one RankBatchScored
// call, which fans projections across cores — and each task is
// dispatched to its own top-k crowd.
// Selections are element-wise identical to submitting the tasks one by
// one with no interleaved feedback.
//
// What can be known up front is refused before any task row is written:
// an empty batch, a bad preassigned crowd, and a batch that needs
// ranking while no candidate worker is online. Past that point the
// batch is not transactional: a failure while ranking or assigning (or
// ctx cancellation during ranking) returns the error and leaves already
// stored tasks open and unassigned, exactly as if their individual
// submissions had failed at the same point.
func (m *Manager) SubmitBatch(ctx context.Context, reqs []TaskSubmission) ([]Submission, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrBadRequest)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	needRanking := false
	for i, r := range reqs {
		if err := m.validatePreassigned(r.Workers); err != nil {
			return nil, fmt.Errorf("task index %d: %w", i, err)
		}
		needRanking = needRanking || len(r.Workers) == 0
	}
	var online core.Candidates
	if needRanking {
		if online = m.candidateWorkers(); len(online.IDs()) == 0 {
			return nil, fmt.Errorf("%w: no online workers", ErrBadRequest)
		}
	}
	tasks := make([]TaskRecord, len(reqs))
	ks := make([]int, len(reqs))
	var rankIdx []int // indices of tasks that still need ranking
	var rankBags []text.Bag
	kmax := 0
	for i, r := range reqs {
		ks[i] = r.K
		if ks[i] <= 0 {
			ks[i] = m.k
		}
		tokens := text.Tokenize(r.Text)
		task, err := m.store.AddTask(r.Text, tokens)
		if err != nil {
			return nil, err
		}
		tasks[i] = task
		if len(r.Workers) > 0 {
			continue // preassigned crowd: no ranking needed
		}
		if ks[i] > kmax {
			kmax = ks[i]
		}
		rankIdx = append(rankIdx, i)
		rankBags = append(rankBags, text.NewBagKnown(m.vocab, tokens))
	}
	ranked := make([][]int, len(reqs))
	if len(rankIdx) > 0 {
		parts, err := m.rankBatch(ctx, rankBags, online, kmax)
		if err != nil {
			return nil, err
		}
		for j, i := range rankIdx {
			ranked[i] = parts[j]
		}
	}
	out := make([]Submission, len(reqs))
	for i := range reqs {
		crowd := reqs[i].Workers
		if len(crowd) == 0 {
			crowd = ranked[i]
			if len(crowd) > ks[i] {
				crowd = crowd[:ks[i]]
			}
		}
		if err := m.store.Assign(tasks[i].ID, crowd); err != nil {
			return nil, err
		}
		stored, err := m.store.GetTask(tasks[i].ID)
		if err != nil {
			return nil, err
		}
		out[i] = Submission{Task: stored, Workers: crowd}
	}
	return out, nil
}

// validatePreassigned gates the Workers preassignment bypass, which
// the public tasks endpoints also expose. For every worker this shard
// owns (all of them, on an unsharded node) the local presence bit is
// authoritative, so an unknown, duplicate, or offline worker is
// refused up front — otherwise any client could assign crowds that
// will never answer, skipping both ranking and the online filter.
// Foreign-owned workers are trusted: in a sharded fleet the field is
// how the scatter-gather coordinator hands a task's home shard the
// globally merged crowd, whose foreign members were drawn from their
// owner shards' own online candidate sets.
func (m *Manager) validatePreassigned(workers []int) error {
	seen := make(map[int]bool, len(workers))
	for _, w := range workers {
		if seen[w] {
			return fmt.Errorf("%w: duplicate preassigned worker %d", ErrBadRequest, w)
		}
		seen[w] = true
		if !m.shard.OwnsWorker(w) {
			continue
		}
		wk, err := m.store.GetWorker(w)
		if err != nil {
			return err
		}
		if !wk.Online {
			return fmt.Errorf("%w: preassigned worker %d is offline", ErrBadRequest, w)
		}
	}
	return nil
}

// rankOnly is the pure selection path behind every RankOnly form:
// validate the batch, default each requested k (ks is overwritten in
// place), load the candidate set once, rank at the largest k and
// truncate each result to its own.
func (m *Manager) rankOnly(ctx context.Context, ks []int, score func(candidates core.Candidates, k int) ([][]rank.Item, error)) ([][]rank.Item, error) {
	if len(ks) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrBadRequest)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	kmax := 0
	for i := range ks {
		if ks[i] <= 0 {
			ks[i] = m.k
		}
		if ks[i] > kmax {
			kmax = ks[i]
		}
	}
	online := m.candidateWorkers()
	if len(online.IDs()) == 0 {
		return nil, fmt.Errorf("%w: no online workers", ErrBadRequest)
	}
	ranked, err := score(online, kmax)
	if err != nil {
		return nil, err
	}
	for i := range ranked {
		if len(ranked[i]) > ks[i] {
			ranked[i] = ranked[i][:ks[i]]
		}
	}
	return ranked, nil
}

// textScratch is the text leg of one pure selection, pooled: the bag
// builder, the bags it cut (windows of the builder's storage) and each
// task's requested k. Nothing a selector returns points into it —
// rankings and categories land in storage the caller passed — so it is
// released as soon as the ranking call has returned.
type textScratch struct {
	bb   text.BagBuilder
	bags []text.Bag
	ks   []int
}

var textScratchPool = sync.Pool{New: func() any { return new(textScratch) }}

func (ts *textScratch) release() {
	ts.bb.Reset()
	clear(ts.bags)
	ts.bags, ts.ks = ts.bags[:0], ts.ks[:0]
	textScratchPool.Put(ts)
}

// textBatch is what rankOnly needs of a batch of task texts: each
// task's requested k and its bag, built straight from the text. The
// caller releases the scratch once the batch is ranked.
func (m *Manager) textBatch(reqs []TaskSubmission) *textScratch {
	ts := textScratchPool.Get().(*textScratch)
	for _, r := range reqs {
		ts.ks = append(ts.ks, r.K)
		ts.bags = append(ts.bags, ts.bb.KnownText(m.vocab, r.Text))
	}
	return ts
}

// arenas holds the rank.Arenas of the selections whose callers receive
// ids copied out of them (RankOnly, SubmitBatch).
var arenas = sync.Pool{New: func() any { return new(rank.Arena) }}

// putArena pools a, unless a huge batch grew it past maxPooledItems.
func putArena(a *rank.Arena) {
	if a.Cap() <= maxPooledItems {
		arenas.Put(a)
	}
}

// RankOnly is the pure selection path: it projects and ranks a batch
// of tasks against the online workers without storing anything — no
// task rows, no assignments, no journal writes. This is the read-only
// counterpart of SubmitBatch (selections are computed by the same
// ranking code) and the only selection path that stays available in
// degraded read-only mode, when the store has sealed mutations. The
// caller owns the result.
func (m *Manager) RankOnly(ctx context.Context, reqs []TaskSubmission) ([][]int, error) {
	a := arenas.Get().(*rank.Arena)
	defer putArena(a)
	ranked, err := m.rankTexts(ctx, a, reqs)
	if err != nil {
		return nil, err
	}
	return ownedIDs(ranked), nil
}

// RankOnlyScored is RankOnly keeping the Eq. 1 scores — the text leg
// of scatter-gather selection. The caller owns the result.
func (m *Manager) RankOnlyScored(ctx context.Context, reqs []TaskSubmission) ([][]rank.Item, error) {
	return m.rankTexts(ctx, new(rank.Arena), reqs)
}

// rankTexts is RankOnlyScored ranking into lists cut from a.
func (m *Manager) rankTexts(ctx context.Context, a *rank.Arena, reqs []TaskSubmission) ([][]rank.Item, error) {
	ts := m.textBatch(reqs)
	defer ts.release()
	return m.rankOnly(ctx, ts.ks, func(candidates core.Candidates, k int) ([][]rank.Item, error) {
		return m.sel.RankBatchScored(ctx, a, ts.bags, candidates, k)
	})
}

// rankProjected is rankTexts that also appends each task's projected
// λ_c to lambdas, in task order, and returns the category version they
// were projected under — the projecting leg of a fleet selection.
func (m *Manager) rankProjected(ctx context.Context, a *rank.Arena, lambdas []float64, reqs []TaskSubmission) (ranked [][]rank.Item, _ []float64, version string, err error) {
	ts := m.textBatch(reqs)
	defer ts.release()
	ranked, err = m.rankOnly(ctx, ts.ks, func(candidates core.Candidates, k int) (items [][]rank.Item, err error) {
		items, lambdas, version, err = m.sel.RankBatchProjected(ctx, a, lambdas, ts.bags, candidates, k)
		return items, err
	})
	return ranked, lambdas, version, err
}

// rankCategories ranks the online workers against categories another
// node projected, into lists cut from a — the score-only leg of a fleet
// selection: no tokenizer, no projection cache, no solve. ks holds each
// task's requested crowd size (≤ 0: the manager default) and is
// overwritten with the effective one. A version other than the
// selector's own returns core.ErrCategoryVersion; a category that is not
// a finite K-vector is ErrBadRequest.
func (m *Manager) rankCategories(ctx context.Context, a *rank.Arena, ks []int, cats [][]float64, version string) ([][]rank.Item, error) {
	if len(cats) != len(ks) {
		return nil, fmt.Errorf("%w: %d categories for %d tasks", ErrBadRequest, len(cats), len(ks))
	}
	ranked, err := m.rankOnly(ctx, ks, func(candidates core.Candidates, k int) ([][]rank.Item, error) {
		return m.sel.RankCategoriesScored(ctx, a, version, cats, candidates, k)
	})
	if errors.Is(err, core.ErrBadCategory) {
		err = fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return ranked, err
}

// ownedIDs copies the ids of rankings out of an arena into one array
// the caller owns, each list capped so that appending to one never
// writes into the next; an empty ranking stays nil.
func ownedIDs(ranked [][]rank.Item) [][]int {
	n := 0
	for _, items := range ranked {
		n += len(items)
	}
	flat, out := make([]int, 0, n), make([][]int, len(ranked))
	for i, items := range ranked {
		if len(items) == 0 {
			continue
		}
		start := len(flat)
		for _, it := range items {
			flat = append(flat, it.ID)
		}
		out[i] = flat[start:len(flat):len(flat)]
	}
	return out
}

// ApplyModelFeedback folds feedback scores into owned workers'
// posteriors without touching any task row — the red path's
// cross-shard leg. The coordinator resolves a task at its home shard,
// then forwards each foreign answerer's score here, to the shard that
// owns the worker's posterior. Scores for workers owned elsewhere are
// refused with a typed wrong-shard error. The update is journaled
// first (sealed gate applies), so it survives recovery and reaches
// replicas like any resolve.
//
// forwardOf >= 0 names the home-shard task this forward belongs to
// and makes the call idempotent: the scores for a given task fold at
// most once per owner, however often a coordinator retries after a
// partial failure. forwardOf < 0 applies unconditionally (unkeyed
// model-only feedback).
func (m *Manager) ApplyModelFeedback(ctx context.Context, forwardOf int, taskText string, scores map[int]float64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(scores) == 0 {
		return fmt.Errorf("%w: no scores", ErrBadRequest)
	}
	for w := range scores {
		if !m.shard.OwnsWorker(w) {
			return &WrongShardError{Resource: "worker", ID: w, Owner: ShardOfWorker(w, m.shard.Count)}
		}
	}
	tokens := text.Tokenize(taskText)
	m.resolveMu.Lock()
	defer m.resolveMu.Unlock()
	applied, err := m.store.LogSkillFeedback(tokens, scores, forwardOf)
	if err != nil {
		return err
	}
	if !applied { // duplicate forward: already folded, idempotent success
		return nil
	}
	return m.applySkillFeedback(syntheticFeedbackRecord(tokens, scores))
}

// rankBatch ranks every bag against the candidate set, truncated to k:
// the ids of one RankBatchScored call, in slices the caller owns — a
// submitted task's crowd never aliases pooled storage.
func (m *Manager) rankBatch(ctx context.Context, bags []text.Bag, candidates core.Candidates, k int) ([][]int, error) {
	a := arenas.Get().(*rank.Arena)
	defer putArena(a)
	scored, err := m.sel.RankBatchScored(ctx, a, bags, candidates, k)
	if err != nil {
		return nil, err
	}
	return ownedIDs(scored), nil
}

// CollectAnswer records one worker's answer to a dispatched task.
func (m *Manager) CollectAnswer(taskID, workerID int, answer string) error {
	return m.store.RecordAnswer(taskID, workerID, answer)
}

// ResolveTask records the feedback scores for a task's answers (the
// red path of Figure 1) and updates the answerers' latent skills. A
// failed skill update is reported alongside the already-resolved
// record: the store transition committed, the model update did not.
// A ctx already cancelled at entry aborts before the store commits;
// once the resolve has committed the skill update always runs, so the
// model never silently diverges from the store.
func (m *Manager) ResolveTask(ctx context.Context, taskID int, scores map[int]float64) (TaskRecord, error) {
	if err := ctx.Err(); err != nil {
		return TaskRecord{}, err
	}
	m.resolveMu.Lock()
	defer m.resolveMu.Unlock()
	rec, err := m.store.Resolve(taskID, scores)
	if err != nil {
		return TaskRecord{}, err
	}
	if err := m.applySkillFeedback(rec); err != nil {
		return rec, fmt.Errorf("task %d resolved but skill update failed: %w", taskID, err)
	}
	return rec, nil
}

// applySkillFeedback folds one resolved task's scores into the
// answerers' posteriors — the second half of ResolveTask, also used
// verbatim when recovery replays resolve events so the rebuilt
// posteriors match the pre-crash model element-wise.
func (m *Manager) applySkillFeedback(rec TaskRecord) error {
	cats := []core.TaskCategory{m.sel.Project(text.NewBagKnown(m.vocab, rec.Tokens))}
	score := []float64{0}
	for _, a := range rec.Answers {
		// A sharded node owns only its slice of the posterior state:
		// foreign answerers' feedback reaches their owner shards through
		// the coordinator's ApplyModelFeedback legs. The same filter
		// runs during journal replay and replication apply, so rebuilt
		// models match the live one exactly.
		if !m.shard.OwnsWorker(a.Worker) {
			continue
		}
		score[0] = a.Score
		if err := m.sel.UpdateWorkerSkill(a.Worker, cats, score); err != nil {
			return err
		}
	}
	return nil
}

// applyReplicatedEvent applies one replicated journal event through
// the same replay path boot recovery uses, holding the resolve lock
// across the whole application so a resolve's store commit and skill
// update are never split by a checkpoint — the replica-side twin of
// ResolveTask's locking.
func (m *Manager) applyReplicatedEvent(e event) error {
	m.resolveMu.Lock()
	defer m.resolveMu.Unlock()
	return m.store.applyEvent(e, m.applySkillFeedback)
}

// Quiesce runs f with no resolve in flight: the durability layer's
// hook (DB.SetQuiescer) for cutting checkpoints where the store and
// the model agree.
func (m *Manager) Quiesce(f func() error) error {
	m.resolveMu.Lock()
	defer m.resolveMu.Unlock()
	return f()
}
