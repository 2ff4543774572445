// Package rank provides the small ranking utilities shared by every
// crowd-selection algorithm: top-k selection over scored candidates
// (Eq. 1 of the paper) and the rank of a designated candidate, which
// the ACCU and TopK metrics of §7.2.2 are built on.
package rank

import (
	"slices"
)

// Item is a scored candidate.
type Item struct {
	ID    int
	Score float64
}

// before reports whether a ranks strictly ahead of b. It is the one
// total order every function of this package ranks by: score
// descending, then id ascending, with a NaN score after every number
// (NaNs among themselves by id) — without that clause the order would
// not be a strict weak one and a sort's output would be unspecified.
func before(a, b Item) bool {
	if a.Score > b.Score {
		return true
	}
	if a.Score < b.Score {
		return false
	}
	// Equal scores, or at least one NaN.
	aNaN, bNaN := a.Score != a.Score, b.Score != b.Score
	if aNaN != bNaN {
		return bNaN
	}
	return a.ID < b.ID
}

// TopK returns the k highest-scoring candidate ids, best first. Ties
// break toward the lower id so results are deterministic. k larger
// than the candidate set returns all candidates ranked.
func TopK(candidates []int, score func(id int) float64, k int) []int {
	return IDs(TopKScored(candidates, score, k))
}

// TopKScored is TopK keeping the scores: the k best candidates as
// Items, best first, under the same tie-break (score desc, id asc).
// Scored lists are what a scatter-gather coordinator needs — per-shard
// ranks alone cannot be merged, per-shard scores can.
//
// Each candidate is scored once. For k below the candidate count only k
// Items are kept, in a heap whose root is the worst of them: a
// candidate that does not beat the root costs one compare, one that
// does costs a log k sift, and the k kept are sorted at the end.
func TopKScored(candidates []int, score func(id int) float64, k int) []Item {
	return TopKScoredInto(nil, candidates, score, k)
}

// TopKScoredInto is TopKScored ranking into dst's storage: it returns
// dst[:n], n = min(k, len(candidates)), holding the n best candidates,
// and allocates only when cap(dst) < n.
func TopKScoredInto(dst []Item, candidates []int, score func(id int) float64, k int) []Item {
	if k <= 0 || len(candidates) == 0 {
		return dst[:0]
	}
	n := min(k, len(candidates))
	if cap(dst) < n {
		dst = make([]Item, n)
	}
	h := dst[:n]
	for i, id := range candidates[:len(h)] {
		h[i] = Item{ID: id, Score: score(id)}
	}
	if len(h) < len(candidates) {
		for i := len(h)/2 - 1; i >= 0; i-- {
			siftDown(h, i)
		}
		for _, id := range candidates[len(h):] {
			it := Item{ID: id, Score: score(id)}
			// The float compare is false for NaN, so NaN and an equal
			// score fall through to the full order.
			if it.Score < h[0].Score || !before(it, h[0]) {
				continue
			}
			h[0] = it
			siftDown(h, 0)
		}
	}
	sortItems(h)
	return h
}

// Arena holds the storage of a batch of rankings: n lists of capacity k
// in one backing array, which the next Lists call reuses. A caller that
// keeps an Arena ranks batch after batch without allocating.
type Arena struct {
	items []Item
	lists [][]Item
}

// Lists cuts n empty lists of capacity k from the arena, invalidating
// the lists of the previous call. Each is capped at k, so appending to
// one never writes into the next.
func (a *Arena) Lists(n, k int) [][]Item {
	if cap(a.items) < n*k {
		a.items = make([]Item, n*k)
	}
	a.lists = a.lists[:0]
	for i := 0; i < n; i++ {
		a.lists = append(a.lists, a.items[i*k:i*k:(i+1)*k])
	}
	return a.lists
}

// Cap reports how many Items the arena's storage holds, so that a pool
// can drop an arena one huge batch grew.
func (a *Arena) Cap() int { return cap(a.items) }

// siftDown restores the heap order below h[i]: every item ranks after,
// or equal to, each of its children, so h[0] is the worst of h.
func siftDown(h []Item, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && before(h[c], h[r]) {
			c = r
		}
		if !before(h[i], h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// MergeTopK merges per-shard top-k lists into the global top-k under
// the same total order TopK uses (score desc, id asc). Duplicate ids
// across lists keep their best score. Provided every list is itself a
// top-k of a disjoint candidate subset under that order, the merge is
// exactly TopK over the union — the merge-equivalence property the
// sharded selection path relies on (DESIGN §11).
func MergeTopK(lists [][]Item, k int) []Item {
	if k <= 0 {
		return nil
	}
	var n int
	for _, l := range lists {
		n += len(l)
	}
	if n == 0 {
		return nil
	}
	at := make(map[int]int, n) // id → index in merged
	merged := make([]Item, 0, n)
	for _, l := range lists {
		for _, it := range l {
			if i, ok := at[it.ID]; ok {
				if before(it, merged[i]) {
					merged[i] = it
				}
				continue
			}
			at[it.ID] = len(merged)
			merged = append(merged, it)
		}
	}
	sortItems(merged)
	if k > len(merged) {
		k = len(merged)
	}
	return merged[:k:k]
}

// IDs projects a scored list onto its ids, best first.
func IDs(items []Item) []int {
	if len(items) == 0 {
		return nil
	}
	out := make([]int, len(items))
	for i, it := range items {
		out[i] = it.ID
	}
	return out
}

// RankAll returns every candidate ranked best first.
func RankAll(candidates []int, score func(id int) float64) []int {
	return TopK(candidates, score, len(candidates))
}

// RankOf returns the 0-based rank of target among candidates under
// score (0 = best), and false when target is not a candidate. It is
// the position RankAll would put target at, found by counting the
// candidates that rank before it: O(M), no allocation.
func RankOf(candidates []int, score func(id int) float64, target int) (int, bool) {
	if !slices.Contains(candidates, target) {
		return 0, false
	}
	t := Item{ID: target, Score: score(target)}
	r := 0
	for _, id := range candidates {
		if id != target && before(Item{ID: id, Score: score(id)}, t) {
			r++
		}
	}
	return r, true
}

func sortItems(items []Item) {
	slices.SortFunc(items, func(a, b Item) int {
		switch {
		case before(a, b):
			return -1
		case before(b, a):
			return 1
		}
		return 0
	})
}
