package core

import (
	"cmp"
	"math"
	"slices"

	"crowdselect/internal/linalg"
	"crowdselect/internal/rank"
)

// indexBlock is how many workers one block of the skill index bounds.
// Smaller blocks score fewer workers but bound more blocks per query; on
// the bench platform 32 and 128 were both slower than 64.
const indexBlock = 64

// maxIndexedWorkers is the largest crowd the skill index covers: it
// names a worker's block in 16 bits. A larger crowd is scanned.
const maxIndexedWorkers = indexBlock << 16

// indexMinCandidates is the smallest candidate set the skill index
// ranks; a smaller one is scanned, and so is one of fewer than
// M/indexMinDensity candidates (Model.rankInto). The result is the same
// either way, so both move only time. A query bounds every block of the
// crowd, M/64 bounds of K products each, which costs about what scoring
// a sixteenth of the crowd does: BenchmarkSelectTopK's presence subsets
// at 10⁴ workers put the crossover between 5 % and 10 % of the crowd,
// and at 10³ workers its subset of 93 ties, so the floor sits above it.
const (
	indexMinCandidates = 128
	indexMinDensity    = 16
)

// Candidates is the candidate set of a selection: worker ids and, when
// the ids are sorted, distinct and non-negative, their membership
// bitset, which lets the skill index rank them without scoring each
// one. A set without a bitset is scanned, so ids in any order, or
// duplicated, rank exactly as the scan ranks them. Candidates are
// read-only and may be shared between goroutines.
type Candidates struct {
	ids  []int
	bits []uint64
}

// NewCandidates wraps ids, which the caller must not modify while the
// set is in use, and builds their bitset when they are sorted, distinct
// and non-negative. The bitset holds at most one word per id, so a few
// large ids build none; such a set is too sparse for the index anyway
// (rankInto's density rule scans it).
func NewCandidates(ids []int) Candidates {
	c := Candidates{ids: ids}
	if len(ids) == 0 || ids[0] < 0 {
		return c
	}
	last := ids[len(ids)-1]
	words := last>>6 + 1
	if words <= 0 || words > len(ids) {
		return c
	}
	bits := make([]uint64, words)
	prev := -1
	for _, id := range ids {
		// id > last: an unsorted tail would index past the bitset.
		if id <= prev || id > last {
			return c
		}
		bits[id>>6] |= 1 << (id & 63)
		prev = id
	}
	c.bits = bits
	return c
}

// IDs returns the candidate ids, in the order they were given.
func (c Candidates) IDs() []int { return c.ids }

// skillIndex is an exact block-max index over the worker skill rows
// LambdaW, for Eq. 1's top-k (Block-Max WAND, Ding & Suel 2011, applied
// to maximum inner product). Workers are ordered by their strongest
// category, then by that skill descending, and cut into blocks of
// indexBlock; each block keeps, per category, the least and the greatest
// skill of its members. A query bounds every block's best score from
// those, visits blocks in descending bound and stops at the first whose
// bound is below the k-th score found so far. The index holds no copy of
// a skill row: it scores through Model.Score, so every score it keeps
// has the scan's bits.
type skillIndex struct {
	k     int
	order []int32  // worker ids, block after block
	block []uint16 // block[w] is the block holding w
	// bounds holds, per block, the K least then the K greatest member
	// skills; min and max carry a NaN skill into both.
	bounds []float64
}

// indexScratch is the per-query working set of the index, pooled with
// the batch scratch: each block's bound and the heap of blocks not yet
// visited — and how many workers the last query scored, which the tests
// read.
type indexScratch struct {
	bound  []float64
	blocks []int32
	scored int
}

// newSkillIndex indexes rows, the K-vectors of at most
// maxIndexedWorkers workers.
func newSkillIndex(rows []linalg.Vector, k int) *skillIndex {
	m := len(rows)
	x := &skillIndex{k: k, order: make([]int32, m), block: make([]uint16, m)}
	strongest := make([]int32, m)
	for w, row := range rows {
		x.order[w] = int32(w)
		for kk, v := range row {
			if v > row[strongest[w]] {
				strongest[w] = int32(kk)
			}
		}
	}
	slices.SortFunc(x.order, func(a, b int32) int {
		if c := cmp.Compare(strongest[a], strongest[b]); c != 0 {
			return c
		}
		if c := cmp.Compare(rows[b][strongest[b]], rows[a][strongest[a]]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for p, w := range x.order {
		x.block[w] = uint16(p / indexBlock)
	}
	nb := (m + indexBlock - 1) / indexBlock
	x.bounds = make([]float64, 2*k*nb)
	for b := 0; b < nb; b++ {
		x.refreshBlock(rows, b)
	}
	return x
}

// refresh recomputes the bounds of worker's block from rows: the fold
// calls it after committing the worker's new row. It allocates nothing.
func (x *skillIndex) refresh(rows []linalg.Vector, worker int) {
	x.refreshBlock(rows, int(x.block[worker]))
}

func (x *skillIndex) refreshBlock(rows []linalg.Vector, b int) {
	k := x.k
	lo, hi := x.bounds[2*k*b:2*k*b+k], x.bounds[2*k*b+k:2*k*(b+1)]
	for kk := range lo {
		lo[kk], hi[kk] = math.Inf(1), math.Inf(-1)
	}
	for _, w := range x.order[b*indexBlock : min((b+1)*indexBlock, len(x.order))] {
		for kk, v := range rows[w] {
			lo[kk], hi[kk] = min(lo[kk], v), max(hi[kk], v)
		}
	}
}

// topK ranks the members of bits among m's workers against c into dst's
// storage, keeping n of them (1 ≤ n ≤ the member count), and returns
// what the scan over the members returns.
//
// A block's bound is Σₖ max(cₖ·loₖ, cₖ·hiₖ), the greatest exact score a
// member can reach, plus a pad for rounding: a computed score exceeds
// its exact value, and the computed sum falls short of its exact value,
// each by at most γ_K·Σₖ|cₖ|·max(|loₖ|, |hiₖ|) (Higham §3.1), so the
// pad takes (2K+8)·2⁻⁵³ of that sum — which also covers the rounding
// of the pad and of its addition — and 2K+2 subnormal steps for
// products that underflow. (Summed in Dot's order with Dot's products,
// the bound needs no pad where rounding is monotone and nothing fuses,
// as on amd64 and 386; the pad keeps it sound where a compiler fuses
// the score's multiply-add, as on arm64.) A NaN anywhere — a skill, a
// component of c, Inf·0 — makes the bound NaN, which is taken as +Inf:
// such a block is always visited. A block is skipped only when its
// bound is strictly below the k-th score kept, so neither a tie nor a
// NaN k-th score prunes.
func (x *skillIndex) topK(dst []rank.Item, sc *indexScratch, m *Model, c linalg.Vector, bits []uint64, n int) []rank.Item {
	k := x.k
	nb := len(x.bounds) / (2 * k)
	padRel := float64(2*k+8) * 0x1p-53
	padAbs := float64(2*k+2) * 0x1p-1074
	if cap(sc.bound) < nb {
		sc.bound = make([]float64, nb)
		sc.blocks = make([]int32, nb)
	}
	bound, heap := sc.bound[:nb], sc.blocks[:nb]
	for b := range bound {
		lo, hi := x.bounds[2*k*b:2*k*b+k], x.bounds[2*k*b+k:2*k*(b+1)]
		var s, mag float64
		for kk, ck := range c {
			p, q := ck*lo[kk], ck*hi[kk]
			if q > p {
				p = q
			}
			s += p
			mag += math.Abs(ck) * max(math.Abs(lo[kk]), math.Abs(hi[kk]))
		}
		s += mag*padRel + padAbs
		if s != s {
			s = math.Inf(1)
		}
		bound[b] = s
		heap[b] = int32(b)
	}
	for i := nb/2 - 1; i >= 0; i-- {
		siftBlocks(heap, bound, i)
	}
	top := rank.NewBounded(dst, n)
	sc.scored = 0
	for len(heap) > 0 {
		b := int(heap[0])
		if top.Full() && bound[b] < top.Worst().Score {
			break
		}
		heap[0] = heap[len(heap)-1]
		heap = heap[:len(heap)-1]
		siftBlocks(heap, bound, 0)
		for _, w := range x.order[b*indexBlock : min((b+1)*indexBlock, len(x.order))] {
			if i := int(w) >> 6; i >= len(bits) || bits[i]&(1<<(w&63)) == 0 {
				continue
			}
			top.Offer(rank.Item{ID: int(w), Score: m.Score(int(w), c)})
			sc.scored++
		}
	}
	return top.Sorted()
}

// siftBlocks restores the max-heap of blocks by bound below heap[i].
func siftBlocks(heap []int32, bound []float64, i int) {
	for {
		c := 2*i + 1
		if c >= len(heap) {
			return
		}
		if r := c + 1; r < len(heap) && bound[heap[r]] > bound[heap[c]] {
			c = r
		}
		if bound[heap[c]] <= bound[heap[i]] {
			return
		}
		heap[i], heap[c] = heap[c], heap[i]
		i = c
	}
}
