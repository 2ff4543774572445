package rank

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"crowdselect/internal/race"
)

func scoreOf(m map[int]float64) func(int) float64 {
	return func(id int) float64 { return m[id] }
}

func TestTopK(t *testing.T) {
	scores := map[int]float64{1: 0.5, 2: 0.9, 3: 0.1, 4: 0.7}
	got := TopK([]int{1, 2, 3, 4}, scoreOf(scores), 2)
	if !reflect.DeepEqual(got, []int{2, 4}) {
		t.Errorf("TopK = %v", got)
	}
}

func TestTopKOverAsk(t *testing.T) {
	got := TopK([]int{5, 6}, scoreOf(map[int]float64{5: 1, 6: 2}), 10)
	if !reflect.DeepEqual(got, []int{6, 5}) {
		t.Errorf("TopK = %v", got)
	}
}

func TestTopKEmptyAndZero(t *testing.T) {
	if got := TopK(nil, scoreOf(nil), 3); got != nil {
		t.Errorf("TopK(nil) = %v", got)
	}
	if got := TopK([]int{1}, scoreOf(nil), 0); got != nil {
		t.Errorf("TopK(k=0) = %v", got)
	}
}

func TestTopKTiesBreakByID(t *testing.T) {
	got := TopK([]int{9, 3, 7}, scoreOf(map[int]float64{9: 1, 3: 1, 7: 1}), 3)
	if !reflect.DeepEqual(got, []int{3, 7, 9}) {
		t.Errorf("tie order = %v", got)
	}
}

func TestRankOf(t *testing.T) {
	scores := map[int]float64{1: 0.5, 2: 0.9, 3: 0.1}
	if r, ok := RankOf([]int{1, 2, 3}, scoreOf(scores), 1); !ok || r != 1 {
		t.Errorf("RankOf(1) = %d, %v", r, ok)
	}
	if r, ok := RankOf([]int{1, 2, 3}, scoreOf(scores), 2); !ok || r != 0 {
		t.Errorf("RankOf(2) = %d, %v", r, ok)
	}
	if _, ok := RankOf([]int{1, 2}, scoreOf(scores), 99); ok {
		t.Error("missing target reported found")
	}
}

func TestRankAllIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(20)
		cands := make([]int, n)
		scores := make(map[int]float64, n)
		for i := range cands {
			cands[i] = rng.Intn(1000)
			scores[cands[i]] = rng.NormFloat64()
		}
		ranked := RankAll(cands, scoreOf(scores))
		if len(ranked) != n {
			t.Fatalf("RankAll length %d, want %d", len(ranked), n)
		}
		a, b := append([]int(nil), cands...), append([]int(nil), ranked...)
		sort.Ints(a)
		sort.Ints(b)
		if !reflect.DeepEqual(a, b) {
			t.Fatal("RankAll is not a permutation of candidates")
		}
		for i := 1; i < n; i++ {
			if scores[ranked[i]] > scores[ranked[i-1]] {
				t.Fatal("RankAll not sorted by score")
			}
		}
	}
}

// Property: ranking is invariant under positive affine transforms of
// the score (relied on by selection-score semantics).
func TestRankInvariantUnderAffine(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(10)
		cands := make([]int, n)
		scores := make(map[int]float64, n)
		for i := range cands {
			cands[i] = i
			scores[i] = rng.NormFloat64()
		}
		a, b := 0.5+rng.Float64()*3, rng.NormFloat64()*10
		r1 := RankAll(cands, scoreOf(scores))
		r2 := RankAll(cands, func(id int) float64 { return a*scores[id] + b })
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("affine transform changed ranking: %v vs %v", r1, r2)
		}
	}
}

// fullSort is the reference TopK and TopKScored must equal: score
// every candidate, stable-sort all of them under `before`, keep the
// first k.
func fullSort(candidates []int, score func(int) float64, k int) []Item {
	if k <= 0 || len(candidates) == 0 {
		return nil
	}
	items := make([]Item, len(candidates))
	for i, id := range candidates {
		items[i] = Item{ID: id, Score: score(id)}
	}
	sort.SliceStable(items, func(a, b int) bool { return before(items[a], items[b]) })
	if k > len(items) {
		k = len(items)
	}
	return items[:k]
}

// sameItems is reflect.DeepEqual for ranked lists that may hold NaN
// scores: ids equal and scores equal bit for bit.
func sameItems(a, b []Item) bool {
	return slices.EqualFunc(a, b, func(x, y Item) bool {
		return x.ID == y.ID && math.Float64bits(x.Score) == math.Float64bits(y.Score)
	})
}

// checkTopK holds TopKScored and TopK on one input to the first k of
// the full sort, and the scored list to len == cap.
func checkTopK(t *testing.T, what string, ids []int, score func(int) float64, k int) {
	t.Helper()
	want := fullSort(ids, score, k)
	got := TopKScored(ids, score, k)
	if !sameItems(got, want) {
		t.Fatalf("%s (n=%d k=%d): TopKScored diverged\ngot:  %v\nwant: %v", what, len(ids), k, got, want)
	}
	if len(got) != cap(got) {
		t.Fatalf("%s (n=%d k=%d): TopKScored returned len %d, cap %d", what, len(ids), k, len(got), cap(got))
	}
	// Into a list of an arena whose storage holds an earlier ranking.
	var a Arena
	stale := a.Lists(2, k)
	stale[0] = TopKScoredInto(stale[0], ids, func(int) float64 { return -1 }, k)
	lists := a.Lists(2, k)
	if into := TopKScoredInto(lists[0], ids, score, k); !sameItems(into, want) || &into[0] != &lists[0][:1][0] {
		t.Fatalf("%s (n=%d k=%d): TopKScoredInto diverged or left the arena\ngot:  %v\nwant: %v", what, len(ids), k, into, want)
	}
	if got := TopK(ids, score, k); !slices.Equal(got, IDs(want)) {
		t.Fatalf("%s (n=%d k=%d): TopK diverged\ngot:  %v\nwant: %v", what, len(ids), k, got, IDs(want))
	}
}

// TestTopKEqualsFullSort holds TopK and TopKScored to the first k of
// the full sort, on quantised scores where ties are the rule, for every
// regime of k: none, one, a few, all but one, all, more than all. Then
// on crowds of up to 3 000, where the bounded selection's heap is deep,
// and on the fixed orders that drive its sift paths to their extremes:
// ascending scores (every candidate displaces the root), descending
// (none does), all equal (only ids decide) and all NaN.
func TestTopKEqualsFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(20260928))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(80)
		ids := rng.Perm(n + rng.Intn(20))[:n] // distinct ids, shuffled, with gaps
		scores := make(map[int]float64, n)
		for _, id := range ids {
			scores[id] = float64(rng.Intn(6)) / 3
		}
		score := scoreOf(scores)
		for _, k := range []int{0, 1, 3, n - 1, n, n + 5} {
			want := fullSort(ids, score, k)
			if got := TopKScored(ids, score, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (n=%d k=%d): TopKScored diverged\ngot:  %v\nwant: %v", trial, n, k, got, want)
			}
			if got := TopK(ids, score, k); !reflect.DeepEqual(got, IDs(want)) {
				t.Fatalf("trial %d (n=%d k=%d): TopK diverged\ngot:  %v\nwant: %v", trial, n, k, got, IDs(want))
			}
		}
	}
	for trial := 0; trial < 40; trial++ {
		n := 100 + rng.Intn(2900)
		ids := rng.Perm(2 * n)[:n]
		scores := make(map[int]float64, n)
		for _, id := range ids {
			scores[id] = float64(rng.Intn(50)) / 7
		}
		for _, k := range []int{10, 64, n / 2} {
			checkTopK(t, fmt.Sprintf("large trial %d", trial), ids, scoreOf(scores), k)
		}
	}
	const n = 3000
	inOrder, shuffled := make([]int, n), rng.Perm(n)
	for i := range inOrder {
		inOrder[i] = i
	}
	for _, c := range []struct {
		name  string
		ids   []int
		score func(int) float64
	}{
		{"ascending", inOrder, func(id int) float64 { return float64(id) }},
		{"descending", inOrder, func(id int) float64 { return float64(n - id) }},
		{"all equal", shuffled, func(int) float64 { return 1 }},
		{"all NaN", shuffled, func(int) float64 { return math.NaN() }},
	} {
		for _, k := range []int{1, 10, 64, n / 2, n - 1} {
			checkTopK(t, c.name, c.ids, c.score, k)
		}
	}
}

// FuzzTopKEqualsFullSort decodes its input into k, a shuffle seed and
// one score per byte — NaN, ±Inf, ±0 or one of 251 quantised values, so
// duplicates are the rule — and holds TopKScored to the full sort and to
// MergeTopK of a random two-way split.
func FuzzTopKEqualsFullSort(f *testing.F) {
	f.Add([]byte{3, 1, 0, 1, 2, 3, 4, 5, 6, 7, 200, 100, 100, 9})
	f.Add([]byte{10, 2, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 130, 140, 150})
	f.Add([]byte{5, 3, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		specials := [...]float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
		seed, raw := int64(data[1]), data[2:]
		k := int(data[0]) % (len(raw) + 2)
		scores := make([]float64, len(raw))
		for i, b := range raw {
			if int(b) < len(specials) {
				scores[i] = specials[b]
			} else {
				scores[i] = float64(int(b)-128) / 16
			}
		}
		score := func(id int) float64 { return scores[id] }
		rng := rand.New(rand.NewSource(seed))
		ids := rng.Perm(len(raw))
		want := fullSort(ids, score, k)
		if got := TopKScored(ids, score, k); !sameItems(got, want) {
			t.Fatalf("k=%d ids %v: TopKScored = %v, want %v", k, ids, got, want)
		}
		var parts [2][]int
		for _, id := range ids {
			s := rng.Intn(2)
			parts[s] = append(parts[s], id)
		}
		merged := MergeTopK([][]Item{TopKScored(parts[0], score, k), TopKScored(parts[1], score, k)}, k)
		if !sameItems(merged, want) {
			t.Fatalf("k=%d split %v | %v: MergeTopK = %v, want %v", k, parts[0], parts[1], merged, want)
		}
	})
}

// TestTopKScoredAllocations is the allocation gate of the bounded
// selection: below the candidate count it allocates the k Items it
// returns and nothing for the candidates, whatever their number; at or
// above it, the M Items of the full sort. TopKScoredInto a list of an
// Arena allocates nothing at all.
func TestTopKScoredAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under -race; run `make allocs`")
	}
	rng := rand.New(rand.NewSource(5))
	for _, m := range []int{100, 10000, 100000} {
		ids, scores := make([]int, m), make([]float64, m)
		for i := range ids {
			ids[i], scores[i] = i, rng.NormFloat64()
		}
		score := func(id int) float64 { return scores[id] }
		// 10 and 64 Items are 160 and 1 024 B, both size classes, so a
		// k-Item allocation is exactly 16·k bytes.
		for _, k := range []int{10, 64, m, m + 1} {
			// The fewest bytes of three readings: the process's own
			// background allocations land in one now and then.
			const runs = 10
			allocs, bytesPerRun := 0.0, math.Inf(1)
			for try := 0; try < 3; try++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				allocs = testing.AllocsPerRun(runs, func() { sinkItems = TopKScored(ids, score, k) })
				runtime.ReadMemStats(&after)
				bytesPerRun = min(bytesPerRun, float64(after.TotalAlloc-before.TotalAlloc)/(runs+1)) // AllocsPerRun warms up once
			}
			if allocs != 1 {
				t.Errorf("M=%d k=%d: %v allocations, want 1", m, k, allocs)
			}
			if k < m && bytesPerRun != float64(16*k) {
				t.Errorf("M=%d k=%d: %.0f bytes, want %d (k Items)", m, k, bytesPerRun, 16*k)
			}
			// M Items, rounded up to a size class or to whole pages.
			if k >= m && (bytesPerRun < float64(16*m) || bytesPerRun >= float64(16*m+8192)) {
				t.Errorf("M=%d k=%d: %.0f bytes, want %d (M Items) rounded up", m, k, bytesPerRun, 16*m)
			}
			if k >= m {
				continue
			}
			var a Arena
			a.Lists(8, k) // the arena's storage, grown once
			into := testing.AllocsPerRun(runs, func() {
				for i, l := range a.Lists(8, k) {
					sinkItems = TopKScoredInto(l, ids[i*m/8:], score, k)
				}
			})
			if into != 0 {
				t.Errorf("M=%d k=%d: TopKScoredInto an arena allocates %v times per batch, want 0", m, k, into)
			}
		}
	}
}

// TestOrderIsTotalWithNaN is the regression test for the comparator
// that was not a strict weak order once a score was NaN: the sort, the
// merge and the counted rank must agree on one ranking in which NaN
// comes after every number, ±Inf included, and ties go to the lower id.
func TestOrderIsTotalWithNaN(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	scores := map[int]float64{
		0: nan, 1: 0.5, 2: inf, 3: 0.5, 4: -inf, 5: nan, 6: inf, 7: 0, 8: nan, 9: 0.5,
	}
	want := []int{2, 6, 1, 3, 9, 7, 4, 0, 5, 8}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		ids := rng.Perm(len(scores))
		for k := 1; k <= len(ids)+1; k++ {
			wantK := want[:min(k, len(want))]
			if got := TopK(ids, scoreOf(scores), k); !reflect.DeepEqual(got, wantK) {
				t.Fatalf("order %v k=%d: TopK = %v, want %v", ids, k, got, wantK)
			}
			cut := rng.Intn(len(ids) + 1)
			merged := MergeTopK([][]Item{
				TopKScored(ids[:cut], scoreOf(scores), k),
				TopKScored(ids[cut:], scoreOf(scores), k),
			}, k)
			if got := IDs(merged); !reflect.DeepEqual(got, wantK) {
				t.Fatalf("order %v cut %d k=%d: merged = %v, want %v", ids, cut, k, got, wantK)
			}
		}
		for r, id := range want {
			if got, ok := RankOf(ids, scoreOf(scores), id); !ok || got != r {
				t.Fatalf("order %v: RankOf(%d) = %d, %v, want %d", ids, id, got, ok, r)
			}
		}
	}
	// A duplicate id keeps its best score under the same order: a
	// number beats NaN whichever list comes first.
	for _, lists := range [][][]Item{
		{{{ID: 1, Score: nan}}, {{ID: 1, Score: 0.2}}},
		{{{ID: 1, Score: 0.2}}, {{ID: 1, Score: nan}}},
	} {
		if got := MergeTopK(lists, 1); len(got) != 1 || got[0].Score != 0.2 {
			t.Errorf("MergeTopK(%v) = %v, want score 0.2", lists, got)
		}
	}
}

// TestRankOfMatchesRankAll: the counted rank is the position the full
// ranking gives, ties included, and costs no allocation.
func TestRankOfMatchesRankAll(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		ids := rng.Perm(n)
		scores := make(map[int]float64, n)
		for _, id := range ids {
			scores[id] = float64(rng.Intn(4))
		}
		for r, id := range RankAll(ids, scoreOf(scores)) {
			if got, ok := RankOf(ids, scoreOf(scores), id); !ok || got != r {
				t.Fatalf("trial %d: RankOf(%d) = %d, %v, want %d", trial, id, got, ok, r)
			}
		}
		if _, ok := RankOf(ids, scoreOf(scores), n); ok {
			t.Fatalf("trial %d: a non-candidate was ranked", trial)
		}
	}
	ids, scores := rng.Perm(1000), make([]float64, 1000)
	for i := range scores {
		scores[i] = rng.Float64()
	}
	score := func(id int) float64 { return scores[id] }
	if a := testing.AllocsPerRun(10, func() { RankOf(ids, score, 500) }); a != 0 {
		t.Errorf("RankOf allocates %v times per call, want 0", a)
	}
}
