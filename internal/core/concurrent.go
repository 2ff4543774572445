package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"crowdselect/internal/linalg"
	"crowdselect/internal/randx"
	"crowdselect/internal/rank"
	"crowdselect/internal/text"
)

// defaultProjectionCacheCap bounds the projection cache of a freshly
// wrapped model. At K≈10 an entry is a few hundred bytes, so the
// default costs at most a couple of megabytes.
const defaultProjectionCacheCap = 8192

// ConcurrentModel makes one trained Model safe for the serving regime
// of §2 Figure 1: crowd-selection reads (Project, SelectTopK, Rank)
// running concurrently with incremental posterior writes
// (UpdateWorkerSkill[Drift]) as feedback keeps arriving. A bare Model
// is not safe for that mix — the update path swaps LambdaW/NuW2
// entries the selection path is reading.
//
// The wrapper holds an RWMutex: selection and projection take the read
// lock (so any number run in parallel, which matters — projection is
// the expensive Newton solve), and posterior updates take
// the write lock for the short solve-and-swap. Together with the
// update's commit-after-solve discipline this guarantees readers never
// observe a half-applied posterior.
//
// # Projection cache
//
// The wrapper memoizes Project results by exact bag fingerprint in a
// bounded LRU: arrival streams repeat task texts, and a cache hit
// replaces a Newton solve with a map lookup. Every cached
// category is tagged with the wrapper's epoch, and a lookup under a
// newer epoch is a miss. The epoch is the version of the *category
// parameters*: Project reads only MuC, SigmaC and LogBeta, so only the
// two ways those can change — Replace and a mutation through Unwrap
// followed by InvalidateProjections — advance it. A committed
// UpdateWorkerSkill[Drift] writes only one worker's LambdaW/NuW2 row,
// which no projection reads, so it leaves the epoch and every cached
// entry alone (TestProjectUnaffectedBySkillUpdates holds the premise):
// the incremental crowd update of §4.2(2) never makes the next task's
// projection cold. Project returns categories the caller owns and may
// mutate freely; the ranking calls project into pooled scratch they
// release before returning, so a category that is only scored is never
// allocated.
//
// Methods not exposed here (training, saving, …) are reached
// through Unwrap, which hands back the underlying Model; the caller
// must ensure no concurrent wrapper calls are in flight while using it
// for anything that mutates, and must call InvalidateProjections
// afterwards so cached projections of the pre-mutation model are
// dropped.
type ConcurrentModel struct {
	mu    sync.RWMutex
	m     *Model
	epoch atomic.Uint64
	cache *projectionCache
	// version is the category-parameter digest of the epoch it was
	// computed under (see categoryVersionLocked).
	version atomic.Pointer[categoryVersionAt]
	// kernel is KernelVersion outside tests (see LabelKernelForTest).
	kernel int
}

type categoryVersionAt struct {
	epoch  uint64
	digest string
}

// ErrCategoryVersion refuses categories projected under category
// parameters other than this model's: scoring them would rank against a
// λ_c this model would not have produced.
var ErrCategoryVersion = errors.New("core: category version mismatch")

// ErrBadCategory reports a supplied category that is not a finite
// K-vector.
var ErrBadCategory = errors.New("core: malformed category")

// NewConcurrentModel wraps m. The wrapper owns synchronization from
// here on: callers must not keep mutating m directly.
func NewConcurrentModel(m *Model) *ConcurrentModel {
	return &ConcurrentModel{m: m, cache: newProjectionCache(defaultProjectionCacheCap), kernel: KernelVersion}
}

// LabelKernelForTest makes c report the category version a binary of
// kernel version v would report for c's parameters, so a test can stand
// a two-version fleet up in one process. It relabels only: the arithmetic
// stays this binary's. Call before serving; not for production use.
func (c *ConcurrentModel) LabelKernelForTest(v int) {
	c.kernel = v
	c.InvalidateProjections()
}

// Unwrap returns the underlying Model for setup-time configuration or
// exclusive-access operations (saving, diagnostics). See the type
// comment for the safety contract. Once the model has ranked, its skill
// rows are written only by UpdateWorkerSkill[Drift]: a write to LambdaW
// outside the fold is not allowed, because the skill index that prunes
// the ranking would not see it (replace the model instead).
func (c *ConcurrentModel) Unwrap() *Model { return c.m }

// Name identifies the algorithm in reports, like (*Model).Name.
func (c *ConcurrentModel) Name() string { return c.m.Name() }

// InvalidateProjections advances the epoch, orphaning every cached
// projection. Call it after mutating the model through Unwrap.
func (c *ConcurrentModel) InvalidateProjections() { c.epoch.Add(1) }

// categoryVersionLocked identifies the category parameters — everything
// a projection reads (see (*Model).categoryVersion) — as a digest that is
// equal on two nodes exactly when they project every task alike. It is
// kept beside the epoch and recomputed only by the first caller after the
// epoch advanced (Replace, InvalidateProjections); a skill update never
// changes it. It needs the read lock, which keeps the model and the epoch
// it is hashed under together. Two first callers may both hash; they
// store the same answer.
func (c *ConcurrentModel) categoryVersionLocked() string {
	epoch := c.epoch.Load()
	if v := c.version.Load(); v != nil && v.epoch == epoch {
		return v.digest
	}
	v := &categoryVersionAt{epoch: epoch, digest: c.m.categoryVersion(c.kernel)}
	c.version.Store(v)
	return v.digest
}

// SetProjectionCacheCapacity resizes the projection cache; n <= 0
// disables caching entirely. Safe to call while serving.
func (c *ConcurrentModel) SetProjectionCacheCapacity(n int) { c.cache.resize(n) }

// CacheStats reports projection-cache hits, misses and occupancy.
func (c *ConcurrentModel) CacheStats() ProjectionCacheStats { return c.cache.stats() }

// Project estimates the latent category of a new task (Algorithm 3,
// first phase) under the read lock, serving repeats from the
// projection cache.
func (c *ConcurrentModel) Project(bag text.Bag) TaskCategory {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.projectLocked(bag)
}

// projectLocked is the cache-through projection, a batch of one; the
// caller holds the read lock, which excludes Replace, so the model and
// the epoch read here belong together for the whole computation.
func (c *ConcurrentModel) projectLocked(bag text.Bag) TaskCategory {
	sc := batchScratchPool.Get().(*batchScratch)
	defer sc.release()
	// Only a cancelled ctx fails a batch, and this one cannot be cancelled.
	_ = c.projectViewsLocked(context.Background(), sc, []text.Bag{bag})
	return sc.views[0].clone()
}

// batchScratch is the working set of one cache-through batch that dies
// with it: the key being looked up, every bag's category (views into
// one flat array), the distinct misses (their bags, their views and the
// key strings the cache will keep) and the bags that repeat one of
// them. Pooled, and released only once the batch's projections have
// joined — they read bags and write views through it — and its views
// have been read.
type batchScratch struct {
	key      []byte
	cats     []float64      // 2K per bag: λ_c, then ν_c²
	views    []TaskCategory // bag i's category, cut from cats
	missBags []text.Bag     // each distinct missing bag
	missCats []TaskCategory // parallel to missBags: its view
	missKeys []string       // parallel to missBags
	pending  map[string]int // missing key → index into missBags
	repeats  []batchRepeat
	index    indexScratch // the rankings' skill-index queries
	fan      *fanOut      // the misses' projections, GOMAXPROCS wide
}

// batchRepeat is a bag equal to an earlier miss of the same batch.
type batchRepeat struct{ out, miss int }

var batchScratchPool = sync.Pool{New: func() any { return &batchScratch{pending: make(map[string]int)} }}

// cutViews shapes views as n categories of k components over cats,
// growing it as needed. The views are not zeroed: a batch writes every
// component of each before reading it.
func (sc *batchScratch) cutViews(n, k int) {
	if cap(sc.cats) < 2*k*n {
		sc.cats = make([]float64, 2*k*n)
	}
	sc.views = sc.views[:0]
	for i := 0; i < n; i++ {
		v := sc.cats[2*k*i : 2*k*(i+1) : 2*k*(i+1)]
		sc.views = append(sc.views, TaskCategory{Lambda: v[:k:k], Nu2: v[k:]})
	}
}

// release empties the scratch — dropping its references to the
// caller's bags and to the key strings — and pools it.
func (sc *batchScratch) release() {
	clear(sc.missBags)
	clear(sc.missKeys)
	clear(sc.pending)
	sc.missBags, sc.missCats, sc.missKeys, sc.repeats = sc.missBags[:0], sc.missCats[:0], sc.missKeys[:0], sc.repeats[:0]
	batchScratchPool.Put(sc)
}

// projectViewsLocked projects bags[i] into sc.views[i], through the
// cache: a hit is copied into its view, each distinct miss is projected
// straight into its own and then copied into the cache, and a bag that
// repeats a miss copies that miss's view. The misses fan out across
// GOMAXPROCS goroutines; a single miss is projected inline.
func (c *ConcurrentModel) projectViewsLocked(ctx context.Context, sc *batchScratch, bags []text.Bag) error {
	epoch := c.epoch.Load()
	sc.cutViews(len(bags), c.m.K)
	for i, bag := range bags {
		sc.key = appendBagKey(sc.key[:0], bag)
		// A bag equal to one already missed in this batch is neither
		// looked up nor projected again: nothing is stored until the batch
		// is projected, so it would miss too.
		if j, ok := sc.pending[string(sc.key)]; ok {
			sc.repeats = append(sc.repeats, batchRepeat{out: i, miss: j})
			continue
		}
		if c.cache.getInto(sc.key, epoch, sc.views[i]) {
			continue
		}
		// The one string a miss allocates: it keys the in-batch repeat
		// detection now and the cache entry afterwards.
		key := string(sc.key)
		sc.pending[key] = len(sc.missBags)
		sc.missBags = append(sc.missBags, bag)
		sc.missCats = append(sc.missCats, sc.views[i])
		sc.missKeys = append(sc.missKeys, key)
	}
	if len(sc.missBags) == 0 {
		return nil
	}
	if w := runtime.GOMAXPROCS(0); sc.fan == nil || sc.fan.width() != w {
		sc.fan = newFanOut(w)
	}
	if err := c.m.projectInto(ctx, sc.fan, sc.missBags, sc.missCats); err != nil {
		return err
	}
	for j, cat := range sc.missCats {
		c.cache.put(sc.missKeys[j], epoch, cat)
	}
	for _, r := range sc.repeats {
		sc.views[r.out].copyFrom(sc.missCats[r.miss])
	}
	return nil
}

// SelectTopK implements Eq. 1 under the read lock.
func (c *ConcurrentModel) SelectTopK(cat linalg.Vector, candidates []int, k int) []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.m.SelectTopK(cat, candidates, k)
}

// SelectForTask is the end-to-end Algorithm 3 under the read lock, so
// the projection and the ranking see the same posteriors. The
// projection is served through the cache.
func (c *ConcurrentModel) SelectForTask(bag text.Bag, candidates []int, k int, rng *randx.RNG) []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cat := c.projectLocked(bag)
	cv := cat.Mean()
	if rng != nil {
		cv = cat.Sample(rng)
	}
	return c.m.SelectTopK(cv, candidates, k)
}

// Rank orders the candidate workers best first for the task — the
// Selector-interface form of SelectForTask.
func (c *ConcurrentModel) Rank(bag text.Bag, candidates []int) []int {
	return c.SelectForTask(bag, candidates, len(candidates), nil)
}

// RankBatchScored ranks every bag's top-k crowd in one read-lock scope,
// keeping the Eq. 1 scores: projections fan out across GOMAXPROCS
// goroutines (cache hits are free), then each category is ranked
// against the shared candidate set, so all selections see one model
// version. This is the manager's batched selection path and the
// text leg of scatter-gather selection — the coordinator merges
// these lists with rank.MergeTopK. A cancelled ctx abandons the batch
// and returns ctx.Err().
//
// The rankings are lists cut from a (rank.Arena.Lists): they are valid
// until the caller's next use of a, and a caller that keeps a ranks
// without allocating.
func (c *ConcurrentModel) RankBatchScored(ctx context.Context, a *rank.Arena, bags []text.Bag, candidates Candidates, k int) ([][]rank.Item, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	sc := batchScratchPool.Get().(*batchScratch)
	defer sc.release()
	return c.rankBatchLocked(ctx, a, sc, bags, candidates, k)
}

// rankBatchLocked leaves each bag's category in sc.views.
func (c *ConcurrentModel) rankBatchLocked(ctx context.Context, a *rank.Arena, sc *batchScratch, bags []text.Bag, candidates Candidates, k int) ([][]rank.Item, error) {
	if err := c.projectViewsLocked(ctx, sc, bags); err != nil {
		return nil, err
	}
	return c.scoreLocked(ctx, a, &sc.index, len(bags), func(i int) linalg.Vector { return sc.views[i].Mean() }, candidates, k)
}

// scoreLocked is the second phase of Algorithm 3 over a batch: it ranks
// the candidates against n categories, cat(i) the i-th, into lists cut
// from a, on the skill index's scratch sc. The caller holds the read
// lock.
func (c *ConcurrentModel) scoreLocked(ctx context.Context, a *rank.Arena, sc *indexScratch, n int, cat func(i int) linalg.Vector, candidates Candidates, k int) ([][]rank.Item, error) {
	out := a.Lists(n, max(0, min(k, len(candidates.ids))))
	for i := range out {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out[i] = c.m.rankInto(out[i], sc, cat(i), candidates, k)
	}
	return out, nil
}

// RankBatchProjected is RankBatchScored that also hands back what it
// projected — each bag's λ_c, the vector the scores were taken against,
// appended to lambdas in bag order, K components each — and the
// category version it was projected under, all from one read-lock scope.
// It is the projecting leg of a fleet selection: the other shards score
// these categories (RankCategoriesScored) instead of projecting the
// text again.
func (c *ConcurrentModel) RankBatchProjected(ctx context.Context, a *rank.Arena, lambdas []float64, bags []text.Bag, candidates Candidates, k int) ([][]rank.Item, []float64, string, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	sc := batchScratchPool.Get().(*batchScratch)
	defer sc.release()
	out, err := c.rankBatchLocked(ctx, a, sc, bags, candidates, k)
	if err != nil {
		return nil, lambdas, "", err
	}
	for _, cat := range sc.views {
		lambdas = append(lambdas, cat.Lambda...)
	}
	return out, lambdas, c.categoryVersionLocked(), nil
}

// RankCategoriesScored is the second phase of Algorithm 3 alone: it
// ranks the candidates against categories projected elsewhere, touching
// neither the tokenizer, the projection cache nor the Newton solver. version
// must equal this model's category version (checked under the same read
// lock the scoring holds), else ErrCategoryVersion; every category must
// be a finite K-vector, else ErrBadCategory. Given equal versions the
// result is what RankBatchScored returns for the bags the categories
// were projected from, in lists cut from a like its.
func (c *ConcurrentModel) RankCategoriesScored(ctx context.Context, a *rank.Arena, version string, cats [][]float64, candidates Candidates, k int) ([][]rank.Item, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if own := c.categoryVersionLocked(); version != own {
		return nil, fmt.Errorf("%w: got %q, serving %q", ErrCategoryVersion, version, own)
	}
	for i, cat := range cats {
		if len(cat) != c.m.K {
			return nil, fmt.Errorf("%w: category %d has %d components, want %d", ErrBadCategory, i, len(cat), c.m.K)
		}
		for _, v := range cat {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%w: category %d is not finite", ErrBadCategory, i)
			}
		}
	}
	sc := batchScratchPool.Get().(*batchScratch)
	defer sc.release()
	return c.scoreLocked(ctx, a, &sc.index, len(cats), func(i int) linalg.Vector { return cats[i] }, candidates, k)
}

// Save serializes the model under the read lock, so a checkpoint
// written while feedback traffic keeps arriving is a consistent
// point-in-time view of the posteriors (the durability layer's model
// snapshotter).
func (c *ConcurrentModel) Save(w io.Writer) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.m.Save(w)
}

// Replace swaps the wrapped model for m under the write lock and
// bumps the epoch — m brings its own category parameters — so every
// cached projection is invalidated. It is the
// re-bootstrap path for replication: a follower that fell behind its
// primary's compaction adopts a whole new checkpoint in place while
// readers keep serving.
func (c *ConcurrentModel) Replace(m *Model) {
	c.mu.Lock()
	c.m = m
	c.epoch.Add(1)
	c.mu.Unlock()
}

// UpdateWorkerSkill folds feedback on resolved tasks into one worker's
// posterior under the write lock.
func (c *ConcurrentModel) UpdateWorkerSkill(worker int, cats []TaskCategory, scores []float64) error {
	return c.UpdateWorkerSkillDrift(worker, cats, scores, 0)
}

// UpdateWorkerSkillDrift is UpdateWorkerSkill with Kalman-style
// process noise, under the write lock. It writes one worker's posterior
// and nothing a projection reads, so the epoch and the projection cache
// are untouched.
func (c *ConcurrentModel) UpdateWorkerSkillDrift(worker int, cats []TaskCategory, scores []float64, processVar float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.UpdateWorkerSkillDrift(worker, cats, scores, processVar)
}
