package crowdclient

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"crowdselect/internal/core"
	"crowdselect/internal/crowddb"
	"crowdselect/internal/selcodec"
)

// Router is the shard-aware front door to a horizontally-partitioned
// crowdd fleet. It holds one Multi (primary + replicas) per shard and
// routes by resource ownership:
//
//   - Selections scatter to every shard (each shard ranks only the
//     workers it owns, with scores) and gather by merging the
//     per-shard top-k lists — score descending, id ascending on ties —
//     which is bitwise-identical to a single node ranking the full
//     roster, because Eq. 1 scores live in one shared latent space.
//     The fleet projects each text once: one shard, rotating per call,
//     gets the texts and returns the categories it projected; the
//     others score those categories (see scatterScored).
//     Shards that are entirely unreachable are skipped: selections
//     degrade to the surviving shards' candidates instead of failing.
//   - A request whose route names a task or a worker goes to the
//     shard that owns it, by the route-table row's key
//     (crowddb.RouteOf): a task to its home shard, id mod count —
//     shards mint strided task ids precisely so the id carries its
//     owner — and a worker (get, presence) to its owner under the
//     consistent-hash ring shared with the servers.
//   - Feedback resolves at the home shard, then forwards each foreign
//     answerer's score to that worker's owner shard over
//     skills:feedback, so every posterior lands exactly once.
//
// The Router carries an epoch-versioned Topology. Any 421 wrong_shard
// refusal triggers a refresh-and-retry: the fleet layout is re-fetched
// (highest epoch wins) and the call re-routed once. It is safe for
// concurrent use.
type Router struct {
	opts  Options
	seeds []string

	mu     sync.RWMutex
	topo   crowddb.Topology
	shards []*Multi

	rrHome    atomic.Int64 // round-robin cursor for batch home shards
	rrProject atomic.Int64 // round-robin cursor for the projecting shard
	refreshes atomic.Int64
	partials  atomic.Int64 // scatter legs skipped because a shard failed
	fallbacks atomic.Int64 // score-only legs re-sent as text
}

// NewRouter discovers the fleet layout from the seed URLs (any node of
// any shard serves GET /api/v1/topology, replicas included) and builds
// one Multi per shard from the discovered topology.
func NewRouter(ctx context.Context, seeds []string, opts Options) (*Router, error) {
	if len(seeds) == 0 {
		return nil, errors.New("crowdclient: NewRouter needs at least one seed URL")
	}
	r := &Router{opts: opts, seeds: append([]string(nil), seeds...)}
	var lastErr error
	for _, s := range seeds {
		doc, err := New(s, opts).Topology(ctx)
		if err != nil {
			lastErr = err
			continue
		}
		if err := r.adopt(doc); err != nil {
			lastErr = err
			continue
		}
		return r, nil
	}
	return nil, fmt.Errorf("crowdclient: no seed served a topology: %w", lastErr)
}

// adopt installs doc as the Router's layout and rebuilds the per-shard
// Multis. The caller must not hold r.mu.
func (r *Router) adopt(doc crowddb.Topology) error {
	if err := doc.Validate(); err != nil {
		return err
	}
	shards := make([]*Multi, doc.Count)
	for i, sh := range doc.Shards {
		endpoints := append([]string{sh.URL}, sh.Replicas...)
		m, err := NewMulti(endpoints, r.opts)
		if err != nil {
			return err
		}
		shards[i] = m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.topo.Count != 0 && doc.Epoch <= r.topo.Epoch {
		return nil // keep the layout we already trust
	}
	r.topo = doc
	r.shards = shards
	return nil
}

// Refresh re-fetches the fleet layout from every known endpoint and
// adopts the highest-epoch document found. Called automatically on
// wrong_shard refusals; callers may also invoke it after pushing a new
// topology elsewhere.
func (r *Router) Refresh(ctx context.Context) error {
	r.refreshes.Add(1)
	var (
		best  crowddb.Topology
		found bool
		last  error
	)
	for _, m := range r.snapshotShards() {
		doc, err := m.Topology(ctx)
		if err != nil {
			last = err
			continue
		}
		if !found || doc.Epoch > best.Epoch {
			best, found = doc, true
		}
	}
	if !found {
		for _, s := range r.seeds {
			doc, err := New(s, r.opts).Topology(ctx)
			if err != nil {
				last = err
				continue
			}
			if !found || doc.Epoch > best.Epoch {
				best, found = doc, true
			}
		}
	}
	if !found {
		return fmt.Errorf("crowdclient: topology refresh failed on every endpoint: %w", last)
	}
	return r.adopt(best)
}

// PushTopology installs doc on every endpoint of every shard (primaries
// and replicas — replicas serve discovery too) and adopts it locally.
// Per-endpoint failures are joined, not fatal: a partially-pushed epoch
// converges as routers refresh.
func (r *Router) PushTopology(ctx context.Context, doc crowddb.Topology) error {
	if err := doc.Validate(); err != nil {
		return err
	}
	var errs []error
	for _, m := range r.snapshotShards() {
		for i := range m.Endpoints() {
			if _, err := m.Client(i).PushTopology(ctx, doc); err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", m.Endpoints()[i], err))
			}
		}
	}
	if err := r.adopt(doc); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// ForTenant derives a Router view whose every call is scoped to the
// named tenant. The view trusts the same topology the parent trusts
// right now (tenants share one fleet layout) and shares each shard's
// believed-primary hint, but refreshes independently afterwards. Pass
// "default" (or "") to address the un-prefixed namespace.
func (r *Router) ForTenant(name string) *Router {
	opts := r.opts
	opts.Tenant = name
	nr := &Router{opts: opts, seeds: append([]string(nil), r.seeds...)}
	r.mu.RLock()
	nr.topo = r.topo
	nr.shards = make([]*Multi, len(r.shards))
	for i, m := range r.shards {
		nr.shards[i] = m.ForTenant(name)
	}
	r.mu.RUnlock()
	return nr
}

// Tenant reports the namespace this Router addresses.
func (r *Router) Tenant() string {
	if t := normalizeTenant(r.opts.Tenant); t != "" {
		return t
	}
	return crowddb.DefaultTenant
}

// Topology returns the layout the Router currently trusts.
func (r *Router) Topology() crowddb.Topology {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.topo
}

// Count returns the number of shards in the trusted layout.
func (r *Router) Count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.topo.Count
}

// Refreshes counts topology refreshes since construction.
func (r *Router) Refreshes() int64 { return r.refreshes.Load() }

// Partials counts scatter legs skipped because their shard was
// unreachable or answered a malformed response — nonzero means some
// selections were computed from a degraded candidate set.
func (r *Router) Partials() int64 { return r.partials.Load() }

// Fallbacks counts score-only legs a shard refused with
// category_mismatch and the Router sent again as text — nonzero means
// the fleet's nodes disagree on the category parameters (a mixed or
// mid-re-bootstrap fleet) and those selections paid a second
// projection. The results are exact either way.
func (r *Router) Fallbacks() int64 { return r.fallbacks.Load() }

// Shard returns the Multi for shard i (for drills and diagnostics).
func (r *Router) Shard(i int) *Multi {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.shards[i]
}

func (r *Router) snapshotShards() []*Multi {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]*Multi(nil), r.shards...)
}

// call sends one {id}-keyed request to the shard that owns the id under
// its route-table row's key (crowddb.RouteOf), through that shard's
// Multi. On a wrong_shard refusal it refreshes the topology and retries
// once — at the owner the server hinted when the hint is in range, else
// at the new layout's owner.
func (r *Router) call(ctx context.Context, method, path string, body, out any) error {
	_, key, id := crowddb.RouteOf(method, path)
	if key == crowddb.KeyNone {
		return fmt.Errorf("crowdclient: %s %s names no owning shard", method, path)
	}
	owner := func() *Multi {
		r.mu.RLock()
		defer r.mu.RUnlock()
		return r.shards[key.ShardOf(id, r.topo.Count)]
	}
	err := owner().call(ctx, method, path, body, out)
	var ae *APIError
	if !errors.Is(err, crowddb.ErrWrongShard) || !errors.As(err, &ae) {
		return err
	}
	if rerr := r.Refresh(ctx); rerr != nil {
		return errors.Join(err, rerr)
	}
	var m *Multi
	r.mu.RLock()
	if ae.ShardOwner >= 0 && ae.ShardOwner < len(r.shards) {
		m = r.shards[ae.ShardOwner]
	}
	r.mu.RUnlock()
	if m == nil {
		m = owner()
	}
	return m.call(ctx, method, path, body, out)
}

// scatterScored runs one selection batch over the fleet in two phases
// and returns the scatter holding every shard's leg (ok or failed) plus
// the selector name; the caller merges and releases it.
//
// Phase 1: one shard — rotating per call, the next in rotation when it
// fails — gets the texts, and answers its own scored lists plus the
// category λ_c it projected for each task and its category version.
// Phase 2: every other shard, in parallel, gets those categories in
// place of the texts and only scores them over its own workers; λ_c
// crosses the wire bit-exact, so the scores are the ones the shard would
// have computed from the text. A shard whose category parameters differ
// refuses with category_mismatch and gets that leg again as text.
//
// Every body is encoded by selcodec, byte for byte what json.Marshal
// writes, and posted by Multi.leg. A leg that fails or answers a
// malformed response is that shard's error: it is counted in Partials
// and the selection degrades to the other shards' candidates; only a
// selection no shard answered fails.
func (r *Router) scatterScored(ctx context.Context, tasks []crowddb.SubmitRequest) (*scatter, string, error) {
	shards := r.snapshotShards()
	sc := newScatter(tasks, len(shards))
	sc.projecting = selcodec.AppendTextLeg(sc.projecting[:0], sc.texts, sc.ks, true)

	var projected *selcodec.Response
	start := nextIndex(&r.rrProject, len(shards))
	for i := 0; i < len(shards) && projected == nil; i++ {
		idx := (start + i) % len(shards)
		l := &sc.legs[idx]
		err := shards[idx].leg(ctx, sc.projecting, l)
		if err == nil {
			err = checkLeg(&l.resp, len(tasks), true)
		}
		if err != nil {
			l.err = fmt.Errorf("shard %d: %w", idx, err)
			continue
		}
		l.ok, projected = true, &l.resp
	}
	if projected == nil {
		errs := make([]error, len(sc.legs))
		for i := range sc.legs {
			errs[i] = sc.legs[i].err
		}
		sc.release()
		return nil, "", fmt.Errorf("selection failed on every shard: %w", errors.Join(errs...))
	}

	var encErr error
	sc.scoreOnly, encErr = selcodec.AppendCategoryLeg(sc.scoreOnly[:0], sc.ks, projected.Cats, projected.Dim, projected.Version)
	var wg sync.WaitGroup
	for idx, m := range shards {
		l := &sc.legs[idx]
		if l.ok || l.err != nil {
			continue // phase 1 already has this shard's answer
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := encErr
			if err == nil {
				err = m.leg(ctx, sc.scoreOnly, l)
			}
			if errors.Is(err, core.ErrCategoryVersion) {
				r.fallbacks.Add(1)
				l.text = selcodec.AppendTextLeg(l.text[:0], sc.texts, sc.ks, false)
				err = m.leg(ctx, l.text, l)
			}
			if err == nil {
				err = checkLeg(&l.resp, len(tasks), false)
			}
			if err != nil {
				l.err = fmt.Errorf("shard %d: %w", idx, err)
				return
			}
			l.ok = true
		}()
	}
	wg.Wait()
	for i := range sc.legs {
		if sc.legs[i].err != nil {
			r.partials.Add(1)
		}
	}
	return sc, projected.Model, nil
}

// checkExplicitK enforces the Router's one extra contract over the
// single-node API: every task must carry an explicit k. Without it,
// each shard would apply its own server-side default and the Router
// could not tell a full per-shard list from an exhausted one, so the
// truncation point of the merge would be a guess.
func checkExplicitK(tasks []crowddb.SubmitRequest) error {
	for i, t := range tasks {
		if t.K <= 0 {
			return fmt.Errorf("router requires explicit k > 0 (task %d)", i)
		}
	}
	return nil
}

// Selections ranks crowds for a batch of task texts across the whole
// fleet: scatter scored per-shard selections, gather with a rank merge.
// Results carry both workers and scores.
func (r *Router) Selections(ctx context.Context, tasks []crowddb.SubmitRequest) (crowddb.SelectionsResponse, error) {
	if err := checkExplicitK(tasks); err != nil {
		return crowddb.SelectionsResponse{}, err
	}
	sc, model, err := r.scatterScored(ctx, tasks)
	if err != nil {
		return crowddb.SelectionsResponse{}, err
	}
	defer sc.release()
	return crowddb.SelectionsResponse{Results: sc.merge(), Model: model}, nil
}

// SubmitBatch stores a batch of tasks on one home shard with the crowd
// preassigned from a fleet-wide scatter-gather selection. The home
// shard rotates per call; if it is down the batch moves to the next
// shard (task ids carry their minting shard, so any shard can be home).
func (r *Router) SubmitBatch(ctx context.Context, reqs []crowddb.SubmitRequest) ([]crowddb.SubmitResponse, error) {
	if err := checkExplicitK(reqs); err != nil {
		return nil, err
	}
	sc, _, err := r.scatterScored(ctx, reqs)
	if err != nil {
		return nil, err
	}
	merged := sc.merge()
	sc.release()
	pre := make([]crowddb.SubmitRequest, len(reqs))
	for i, req := range reqs {
		if len(merged[i].Workers) == 0 {
			return nil, fmt.Errorf("no online workers for task %d", i)
		}
		pre[i] = crowddb.SubmitRequest{Text: req.Text, K: req.K, Workers: merged[i].Workers}
	}
	shards := r.snapshotShards()
	start := nextIndex(&r.rrHome, len(shards))
	var lastErr error
	for i := 0; i < len(shards); i++ {
		home := shards[(start+i)%len(shards)]
		resp, err := home.SubmitBatch(ctx, pre)
		if err == nil {
			return resp, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("submit failed on every shard: %w", lastErr)
}

// SubmitTask stores one task with a fleet-wide selected crowd.
func (r *Router) SubmitTask(ctx context.Context, text string, k int) (crowddb.SubmitResponse, error) {
	resp, err := r.SubmitBatch(ctx, []crowddb.SubmitRequest{{Text: text, K: k}})
	if err != nil {
		return crowddb.SubmitResponse{}, err
	}
	return resp[0], nil
}

// GetTask fetches a task from its home shard.
func (r *Router) GetTask(ctx context.Context, id int) (crowddb.TaskRecord, error) {
	return api{r}.GetTask(ctx, id)
}

// Answer records a worker's answer on the task's home shard.
func (r *Router) Answer(ctx context.Context, taskID, workerID int, text string) error {
	return api{r}.Answer(ctx, taskID, workerID, text)
}

// Feedback resolves a task at its home shard, then forwards each
// foreign answerer's score to that worker's owner shard so every
// posterior update lands on exactly one owner. The home shard folds
// only the workers it owns; the forwarded legs are journaled by their
// owners, so a recovering shard rebuilds the same model. Forward-leg
// failures are joined into the returned error alongside the resolved
// record — the resolution itself is durable at that point.
//
// Feedback is idempotent, which is what closes the partial-failure
// window: the forward legs are keyed by task id and deduplicated at
// each owner, and a Feedback call that finds the task already resolved
// (a retry after a crash or a failed leg) re-forwards from the stored
// resolution instead of failing with bad-state. Callers therefore
// retry the whole call until it returns nil, and every posterior still
// folds exactly once.
func (r *Router) Feedback(ctx context.Context, taskID int, scores map[int]float64) (crowddb.TaskRecord, error) {
	count := r.Count()
	home := crowddb.ShardOfTask(taskID, count)
	rec, err := api{r}.Feedback(ctx, taskID, scores)
	if err != nil {
		// The resolve may have committed on an earlier attempt whose
		// forwards never drained (the home shard answers bad-state
		// from then on). The stored resolution is authoritative; when
		// it exists, finish the forwarding legs instead of failing.
		stored, gerr := r.GetTask(ctx, taskID)
		if gerr != nil || stored.Status != crowddb.TaskResolved {
			return rec, err
		}
		rec = stored
	}
	foreign := make(map[int]map[int]float64)
	for _, a := range rec.Answers {
		owner := crowddb.ShardOfWorker(a.Worker, count)
		if owner == home {
			continue
		}
		if foreign[owner] == nil {
			foreign[owner] = make(map[int]float64)
		}
		foreign[owner][a.Worker] = a.Score
	}
	owners := make([]int, 0, len(foreign))
	for o := range foreign {
		owners = append(owners, o)
	}
	sort.Ints(owners)
	var errs []error
	for _, o := range owners {
		m := r.Shard(o)
		if ferr := m.SkillFeedback(ctx, taskID, rec.Text, foreign[o]); ferr != nil {
			errs = append(errs, fmt.Errorf("skill feedback to shard %d: %w", o, ferr))
		}
	}
	return rec, errors.Join(errs...)
}

// SetPresence flips a worker's availability on the shard that owns the
// worker.
func (r *Router) SetPresence(ctx context.Context, id int, online bool) error {
	return api{r}.SetPresence(ctx, id, online)
}

// GetWorker fetches a worker's roster entry from its owner shard (the
// owner holds the authoritative presence bit; the others refuse).
func (r *Router) GetWorker(ctx context.Context, id int) (crowddb.Worker, error) {
	return api{r}.GetWorker(ctx, id)
}

// FleetStats returns every shard's stats, indexed by shard.
func (r *Router) FleetStats(ctx context.Context) ([]crowddb.StatsResponse, error) {
	shards := r.snapshotShards()
	out := make([]crowddb.StatsResponse, len(shards))
	var errs []error
	for i, m := range shards {
		st, err := m.Stats(ctx)
		if err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
			continue
		}
		out[i] = st
	}
	return out, errors.Join(errs...)
}
