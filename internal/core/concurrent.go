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
// the expensive conjugate-gradient step), and posterior updates take
// the write lock for the short solve-and-swap. Together with the
// update's commit-after-solve discipline this guarantees readers never
// observe a half-applied posterior.
//
// # Projection cache
//
// The wrapper memoizes Project results by exact bag fingerprint in a
// bounded LRU: arrival streams repeat task texts, and a cache hit
// replaces a conjugate-gradient solve with a map lookup. Every cached
// category is tagged with the wrapper's epoch, and a lookup under a
// newer epoch is a miss. The epoch is the version of the *category
// parameters*: Project reads only MuC, SigmaC and LogBeta, so only the
// two ways those can change — Replace and a mutation through Unwrap
// followed by InvalidateProjections — advance it. A committed
// UpdateWorkerSkill[Drift] writes only one worker's LambdaW/NuW2 row,
// which no projection reads, so it leaves the epoch and every cached
// entry alone (TestProjectUnaffectedBySkillUpdates holds the premise):
// the incremental crowd update of §4.2(2) never makes the next task's
// projection cold. Returned categories are defensive copies; callers
// may mutate them freely.
//
// Methods not exposed here (training, TopTerms, …) are reached
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
	// computed under (see CategoryVersion).
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
// comment for the safety contract.
func (c *ConcurrentModel) Unwrap() *Model { return c.m }

// Name identifies the algorithm in reports, like (*Model).Name.
func (c *ConcurrentModel) Name() string { return c.m.Name() }

// NumWorkers returns the number of workers the model was trained over.
func (c *ConcurrentModel) NumWorkers() int { return c.m.NumWorkers() }

// Epoch returns the category-parameter version: it advances on Replace
// and InvalidateProjections — never on a skill update — and tags
// projection-cache entries so none outlives the MuC/SigmaC/LogBeta it
// was computed from.
func (c *ConcurrentModel) Epoch() uint64 { return c.epoch.Load() }

// InvalidateProjections advances the epoch, orphaning every cached
// projection. Call it after mutating the model through Unwrap.
func (c *ConcurrentModel) InvalidateProjections() { c.epoch.Add(1) }

// CategoryVersion identifies the category parameters — everything a
// projection reads (see (*Model).categoryVersion) — as a digest that is
// equal on two nodes exactly when they project every task alike. It is
// kept beside the epoch and recomputed only by the first caller after
// the epoch advanced (Replace, InvalidateProjections); a skill update
// never changes it.
func (c *ConcurrentModel) CategoryVersion() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.categoryVersionLocked()
}

// categoryVersionLocked needs the read lock, which keeps the model and
// the epoch it is hashed under together. Two first callers may both
// hash; they store the same answer.
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

// projectLocked is the cache-through projection; the caller holds the
// read lock, which excludes Replace, so the model and the epoch read
// here belong together for the whole computation.
func (c *ConcurrentModel) projectLocked(bag text.Bag) TaskCategory {
	sc := batchScratchPool.Get().(*batchScratch)
	defer sc.release()
	sc.key = appendBagKey(sc.key[:0], bag)
	epoch := c.epoch.Load()
	if cat, ok := c.cache.get(sc.key, epoch); ok {
		return cat
	}
	cat := c.m.Project(bag)
	c.cache.put(string(sc.key), epoch, cat)
	return cat
}

// ProjectAll projects a batch of tasks; the read lock is held across
// the whole batch so every projection sees one model version.
func (c *ConcurrentModel) ProjectAll(bags []text.Bag, parallelism int) []TaskCategory {
	out, _ := c.ProjectAllCtx(context.Background(), bags, parallelism)
	return out
}

// ProjectAllCtx projects a batch with cancellation: cache hits are
// filled first, then each distinct missing bag fans out once through
// the model's parallel projection, all under one read lock (one model
// version per batch). A cancelled ctx abandons the remaining
// projections and returns ctx.Err().
func (c *ConcurrentModel) ProjectAllCtx(ctx context.Context, bags []text.Bag, parallelism int) ([]TaskCategory, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.projectAllLocked(ctx, bags, parallelism)
}

// batchScratch is the working set of one cache-through batch that dies
// with it: the key being looked up, the distinct misses (their output
// slots, bags and the key strings the cache will keep) and the bags
// that repeat one of them. Pooled, and released only once the batch's
// projections have joined, since they read bags through it.
type batchScratch struct {
	key      []byte
	missIdx  []int          // out index of each distinct missing bag
	missBags []text.Bag     // parallel to missIdx
	missKeys []string       // parallel to missIdx
	pending  map[string]int // missing key → index into missIdx
	repeats  []batchRepeat
}

// batchRepeat is a bag equal to an earlier miss of the same batch.
type batchRepeat struct{ out, miss int }

var batchScratchPool = sync.Pool{New: func() any { return &batchScratch{pending: make(map[string]int)} }}

// release empties the scratch — dropping its references to the
// caller's bags and to the key strings — and pools it.
func (sc *batchScratch) release() {
	clear(sc.missBags)
	clear(sc.missKeys)
	clear(sc.pending)
	sc.missIdx, sc.missBags, sc.missKeys, sc.repeats = sc.missIdx[:0], sc.missBags[:0], sc.missKeys[:0], sc.repeats[:0]
	batchScratchPool.Put(sc)
}

func (c *ConcurrentModel) projectAllLocked(ctx context.Context, bags []text.Bag, parallelism int) ([]TaskCategory, error) {
	epoch := c.epoch.Load()
	out := make([]TaskCategory, len(bags))
	sc := batchScratchPool.Get().(*batchScratch)
	defer sc.release()
	for i, bag := range bags {
		sc.key = appendBagKey(sc.key[:0], bag)
		// A bag equal to one already missed in this batch is neither
		// looked up nor projected again: nothing is stored until the batch
		// is projected, so it would miss too.
		if j, ok := sc.pending[string(sc.key)]; ok {
			sc.repeats = append(sc.repeats, batchRepeat{out: i, miss: j})
			continue
		}
		if cat, ok := c.cache.get(sc.key, epoch); ok {
			out[i] = cat
			continue
		}
		// The one string a miss allocates: it keys the in-batch repeat
		// detection now and the cache entry afterwards.
		key := string(sc.key)
		sc.pending[key] = len(sc.missIdx)
		sc.missIdx = append(sc.missIdx, i)
		sc.missBags = append(sc.missBags, bag)
		sc.missKeys = append(sc.missKeys, key)
	}
	if len(sc.missIdx) > 0 {
		if err := c.m.projectInto(ctx, sc.missBags, sc.missIdx, out, parallelism); err != nil {
			return nil, err
		}
		for j, i := range sc.missIdx {
			c.cache.put(sc.missKeys[j], epoch, out[i])
		}
		for _, r := range sc.repeats {
			out[r.out] = out[sc.missIdx[r.miss]].clone()
		}
	}
	return out, nil
}

// Score returns worker i's predictive performance wᵢ·c (§4.2).
func (c *ConcurrentModel) Score(worker int, cat linalg.Vector) float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.m.Score(worker, cat)
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
func (c *ConcurrentModel) RankBatchScored(ctx context.Context, bags []text.Bag, candidates []int, k int) ([][]rank.Item, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out, _, err := c.rankBatchLocked(ctx, bags, candidates, k)
	return out, err
}

func (c *ConcurrentModel) rankBatchLocked(ctx context.Context, bags []text.Bag, candidates []int, k int) ([][]rank.Item, []TaskCategory, error) {
	cats, err := c.projectAllLocked(ctx, bags, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, nil, err
	}
	out := make([][]rank.Item, len(bags))
	for i, cat := range cats {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		out[i] = c.m.SelectTopKScored(cat.Mean(), candidates, k)
	}
	return out, cats, nil
}

// RankBatchProjected is RankBatchScored that also hands back what it
// projected — each bag's λ_c, the vector the scores were taken against —
// and the CategoryVersion it was projected under, all from one
// read-lock scope. It is the projecting leg of a fleet selection: the
// other shards score these categories (RankCategoriesScored) instead of
// projecting the text again.
func (c *ConcurrentModel) RankBatchProjected(ctx context.Context, bags []text.Bag, candidates []int, k int) ([][]rank.Item, [][]float64, string, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out, cats, err := c.rankBatchLocked(ctx, bags, candidates, k)
	if err != nil {
		return nil, nil, "", err
	}
	lambdas := make([][]float64, len(cats))
	for i, cat := range cats {
		lambdas[i] = cat.Mean()
	}
	return out, lambdas, c.categoryVersionLocked(), nil
}

// RankCategoriesScored is the second phase of Algorithm 3 alone: it
// ranks the candidates against categories projected elsewhere, touching
// neither the tokenizer, the projection cache nor the CG solver. version
// must equal this model's CategoryVersion (checked under the same read
// lock the scoring holds), else ErrCategoryVersion; every category must
// be a finite K-vector, else ErrBadCategory. Given equal versions the
// result is what RankBatchScored returns for the bags the categories
// were projected from.
func (c *ConcurrentModel) RankCategoriesScored(ctx context.Context, version string, cats [][]float64, candidates []int, k int) ([][]rank.Item, error) {
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
	out := make([][]rank.Item, len(cats))
	for i, cat := range cats {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out[i] = c.m.SelectTopKScored(cat, candidates, k)
	}
	return out, nil
}

// Skills returns a copy of worker i's posterior-mean skill vector.
// Unlike (*Model).Skills it does not alias model state: a snapshot is
// the only read that stays coherent once updates resume.
func (c *ConcurrentModel) Skills(i int) linalg.Vector {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.m.Skills(i).Clone()
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
