package core

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"crowdselect/internal/corpus"
	"crowdselect/internal/rank"
	"crowdselect/internal/text"
)

// TestProjectionCacheHitsAndEpoch: repeated projections of the same
// bag are served from the cache. The epoch is the category-parameter
// version: a committed skill update — which writes nothing a projection
// reads — leaves the epoch, the entries and the hit path alone, while
// Replace and InvalidateProjections (the two ways MuC/SigmaC/LogBeta
// can change) orphan every entry.
func TestProjectionCacheHitsAndEpoch(t *testing.T) {
	d, m, _ := trainSmall(t, 5)
	cm := NewConcurrentModel(m)
	bag := d.Tasks[0].Bag(d.Vocab)

	first := cm.Project(bag)
	if st := cm.CacheStats(); st.Misses != 1 || st.Hits != 0 || st.Entries != 1 {
		t.Fatalf("after first projection: %+v", st)
	}
	second := cm.Project(bag)
	if st := cm.CacheStats(); st.Hits != 1 {
		t.Fatalf("repeat projection did not hit the cache: %+v", st)
	}
	if !slices.Equal(first.Lambda, second.Lambda) || !slices.Equal(first.Nu2, second.Nu2) {
		t.Error("cached projection differs from computed projection")
	}
	// Returned categories are private copies: mutating one must not
	// poison the cache.
	second.Lambda[0] += 1e6
	third := cm.Project(bag)
	if third.Lambda[0] == second.Lambda[0] {
		t.Error("caller mutation leaked into the cache")
	}

	// A committed skill update moves neither the epoch nor the cache.
	epoch, pre := cm.epoch.Load(), cm.CacheStats()
	if err := cm.UpdateWorkerSkill(0, []TaskCategory{first}, []float64{3}); err != nil {
		t.Fatal(err)
	}
	if cm.epoch.Load() != epoch {
		t.Fatalf("epoch = %d after a skill update, want %d (unchanged)", cm.epoch.Load(), epoch)
	}
	if st := cm.CacheStats(); st != pre {
		t.Fatalf("skill update touched the cache: %+v -> %+v", pre, st)
	}
	after := cm.Project(bag)
	if st := cm.CacheStats(); st.Hits != pre.Hits+1 || st.Misses != pre.Misses {
		t.Errorf("post-update projection was recomputed: %+v -> %+v", pre, st)
	}
	if !slices.Equal(after.Lambda, first.Lambda) || !slices.Equal(after.Nu2, first.Nu2) {
		t.Error("post-update projection differs")
	}

	// Replace and InvalidateProjections each advance the epoch and turn
	// the next lookup of every entry into a miss.
	for name, orphan := range map[string]func(){
		"Replace":               func() { cm.Replace(m) },
		"InvalidateProjections": cm.InvalidateProjections,
	} {
		epoch, pre = cm.epoch.Load(), cm.CacheStats()
		orphan()
		if cm.epoch.Load() != epoch+1 {
			t.Errorf("%s: epoch = %d, want %d", name, cm.epoch.Load(), epoch+1)
		}
		cm.Project(bag)
		if st := cm.CacheStats(); st.Misses != pre.Misses+1 || st.Hits != pre.Hits {
			t.Errorf("%s: stale entry served: %+v -> %+v", name, pre, st)
		}
	}
}

// TestProjectionCacheEpochOnFailedUpdate: like a committed update, one
// that does not commit (invalid input, no evidence) leaves the epoch
// alone.
func TestProjectionCacheEpochOnFailedUpdate(t *testing.T) {
	_, m, _ := trainSmall(t, 4)
	cm := NewConcurrentModel(m)
	epoch := cm.epoch.Load()
	if err := cm.UpdateWorkerSkill(-1, []TaskCategory{{}}, []float64{1}); err == nil {
		t.Fatal("invalid update accepted")
	}
	if cm.epoch.Load() != epoch {
		t.Errorf("epoch bumped by a failed update")
	}
	if err := cm.UpdateWorkerSkill(0, nil, nil); err != nil {
		t.Fatalf("empty update: %v", err)
	}
	if cm.epoch.Load() != epoch {
		t.Errorf("epoch bumped by an empty (no-op) update")
	}
}

// TestInvalidateProjections: the epoch bump bench/replay.go calls
// orphans every cached entry.
func TestInvalidateProjections(t *testing.T) {
	d, m, _ := trainSmall(t, 4)
	cm := NewConcurrentModel(m)
	bag := d.Tasks[0].Bag(d.Vocab)
	cm.Project(bag)
	cm.InvalidateProjections()
	pre := cm.CacheStats()
	cm.Project(bag)
	if st := cm.CacheStats(); st.Misses != pre.Misses+1 {
		t.Error("projection after InvalidateProjections was served from cache")
	}
}

// TestProjectionCacheCapacity: the LRU stays bounded and capacity 0
// disables caching.
func TestProjectionCacheCapacity(t *testing.T) {
	d, m, _ := trainSmall(t, 4)
	cm := NewConcurrentModel(m)
	cm.SetProjectionCacheCapacity(2)
	for i := 0; i < 3; i++ {
		cm.Project(d.Tasks[i].Bag(d.Vocab))
	}
	if st := cm.CacheStats(); st.Entries != 2 || st.Capacity != 2 {
		t.Errorf("stats after overflow: %+v", st)
	}
	// The LRU victim is task 0: it must recompute, task 2 must hit.
	pre := cm.CacheStats()
	cm.Project(d.Tasks[2].Bag(d.Vocab))
	if st := cm.CacheStats(); st.Hits != pre.Hits+1 {
		t.Errorf("MRU entry evicted: %+v", cm.CacheStats())
	}
	cm.Project(d.Tasks[0].Bag(d.Vocab))
	if st := cm.CacheStats(); st.Misses != pre.Misses+1 {
		t.Errorf("LRU entry survived past capacity: %+v", st)
	}

	cm.SetProjectionCacheCapacity(0)
	if st := cm.CacheStats(); st.Entries != 0 || !st.Disabled {
		t.Errorf("disable did not clear: %+v", st)
	}
	// While disabled, lookups neither cache nor count: a disabled cache
	// must be distinguishable from a thrashing one in metrics.
	base := cm.CacheStats()
	cm.Project(d.Tasks[1].Bag(d.Vocab))
	cm.Project(d.Tasks[1].Bag(d.Vocab))
	if st := cm.CacheStats(); st.Hits != base.Hits || st.Misses != base.Misses || st.Entries != 0 {
		t.Errorf("disabled cache still counting: base %+v now %+v", base, cm.CacheStats())
	}
	cm.SetProjectionCacheCapacity(4)
	if st := cm.CacheStats(); st.Disabled {
		t.Errorf("re-enabled cache still reports disabled: %+v", st)
	}
}

// TestBagKeyExactness: two different bags never share a fingerprint,
// and equal bags always do — equal meaning equal count bits, so +0 and
// −0, and two NaN payloads, are different bags.
func TestBagKeyExactness(t *testing.T) {
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	a := text.Bag{IDs: []int{1, 2}, Counts: []float64{1, 2}}
	b := text.Bag{IDs: []int{1, 2}, Counts: []float64{1, 2}}
	bagKey := func(b text.Bag) string { return string(appendBagKey(nil, b)) }
	if bagKey(a) != bagKey(b) {
		t.Error("equal bags have different keys")
	}
	if x, y := (text.Bag{IDs: []int{4}, Counts: []float64{nan1}}), (text.Bag{IDs: []int{4}, Counts: []float64{nan1}}); bagKey(x) != bagKey(y) {
		t.Error("bags with the same NaN payload have different keys")
	}
	variants := []text.Bag{
		{IDs: []int{1, 3}, Counts: []float64{1, 2}},
		{IDs: []int{1, 2}, Counts: []float64{1, 3}},
		{IDs: []int{1}, Counts: []float64{1}},
		{},
		{IDs: []int{1, 2}, Counts: []float64{1, 0}},
		{IDs: []int{1, 2}, Counts: []float64{1, math.Copysign(0, -1)}},
		{IDs: []int{1, 2}, Counts: []float64{1, nan1}},
		{IDs: []int{1, 2}, Counts: []float64{1, nan2}},
	}
	seen := map[string]bool{bagKey(a): true}
	for i, v := range variants {
		k := bagKey(v)
		if seen[k] {
			t.Errorf("variant %d collides", i)
		}
		seen[k] = true
	}
}

// decodeBagKey inverts appendBagKey. It lives only here: production code
// compares keys and never reads one back.
func decodeBagKey(key []byte) (text.Bag, error) {
	var b text.Bag
	prev := 0
	for len(key) > 0 {
		delta, n := binary.Varint(key)
		if n <= 0 {
			return b, errors.New("truncated id")
		}
		key = key[n:]
		prev += int(delta)
		var c float64
		switch {
		case len(key) == 0:
			return b, errors.New("id without a count")
		case key[0] == 0x01:
			if len(key) < 9 {
				return b, errors.New("truncated count bits")
			}
			c = math.Float64frombits(binary.LittleEndian.Uint64(key[1:9]))
			key = key[9:]
		default:
			u, n := binary.Uvarint(key)
			if n <= 0 || u%2 != 0 {
				return b, errors.New("malformed integer count")
			}
			c = float64(u / 2)
			key = key[n:]
		}
		b.IDs = append(b.IDs, prev)
		b.Counts = append(b.Counts, c)
	}
	return b, nil
}

// fuzzBag reads a bag from arbitrary bytes. Per term a control byte
// picks the id — a small step from the previous one (sorted ids, as
// real bags have) or any 64-bit value — and the count: a small integer,
// one of the edges of the integer encoding, or any 64 bits.
func fuzzBag(raw []byte) text.Bag {
	edges := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff0000000000001),
		math.Float64frombits(0xfff8000000000abc), math.Inf(1), math.Inf(-1),
		0x1p52 - 1, 0x1p52, 0x1p53, 0x1p53 + 2, 0x1p63, 0.5, 1.5, -1, 5e-324, math.MaxFloat64,
	}
	next := func(n int) []byte {
		if len(raw) < n { // pad with zeros, never writing into the fuzzer's input
			raw = append(raw[:len(raw):len(raw)], make([]byte, n-len(raw))...)
		}
		out := raw[:n]
		raw = raw[n:]
		return out
	}
	var b text.Bag
	id := 0
	for len(raw) > 0 {
		ctl := next(1)[0]
		if ctl&1 == 0 {
			id += int(int8(next(1)[0]))
		} else {
			id = int(binary.LittleEndian.Uint64(next(8)))
		}
		var c float64
		switch ctl >> 1 & 3 {
		case 0, 1:
			c = float64(next(1)[0])
		case 2:
			c = edges[int(next(1)[0])%len(edges)]
		default:
			c = math.Float64frombits(binary.LittleEndian.Uint64(next(8)))
		}
		b.IDs = append(b.IDs, id)
		b.Counts = append(b.Counts, c)
	}
	return b
}

// FuzzBagKeyRoundTrip: decoding a bag's key gives the bag back, ids and
// count bits alike, for any ids (negative, huge, unsorted) and counts.
// An invertible encoding is an exact one: two bags share a key only if
// they are the same bag.
func FuzzBagKeyRoundTrip(f *testing.F) {
	f.Add([]byte{})
	// Ids 3 and 5 with counts 1 and 7.
	f.Add([]byte{0, 3, 1, 0, 2, 7})
	// Id −1 with count −0.
	f.Add([]byte{5, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1})
	// Counts 2⁵², 2⁵³+2 and 2⁶³, then 1.5 on a repeated id.
	f.Add([]byte{4, 1, 8, 4, 1, 10, 4, 1, 11, 4, 0, 13})
	// Id −2⁶³ with a NaN payload, then a step down that wraps to 2⁶³−5.
	f.Add([]byte{7, 0, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0xfb, 9})
	f.Fuzz(func(t *testing.T, raw []byte) {
		bag := fuzzBag(raw)
		key := appendBagKey(nil, bag)
		got, err := decodeBagKey(key)
		if err != nil {
			t.Fatalf("key %x of %v: %v", key, bag, err)
		}
		if len(got.IDs) != len(bag.IDs) {
			t.Fatalf("key %x decodes to %d terms, want %d", key, len(got.IDs), len(bag.IDs))
		}
		for i := range bag.IDs {
			if got.IDs[i] != bag.IDs[i] || math.Float64bits(got.Counts[i]) != math.Float64bits(bag.Counts[i]) {
				t.Fatalf("term %d: decoded (%d, %#x), want (%d, %#x)", i,
					got.IDs[i], math.Float64bits(got.Counts[i]), bag.IDs[i], math.Float64bits(bag.Counts[i]))
			}
		}
	})
}

// TestBagKeyBytesPerTerm: the key of a text's bag is a few bytes a term,
// not 16. The bags are drawn as the cold selections of internal/crowddb
// (coldBodies) and the repository benchmark draw their never-seen texts,
// on the platform of its cold tests; each cache entry keeps one key.
func TestBagKeyBytesPerTerm(t *testing.T) {
	p := corpus.Quora().Scaled(0.03)
	p.Seed = 11
	var terms, bytes int
	for _, bag := range benchStyleBags(corpus.MustGenerate(p), 800) {
		terms += len(bag.IDs)
		bytes += len(appendBagKey(nil, bag))
	}
	perTerm := float64(bytes) / float64(terms)
	t.Logf("%.1f terms and %.1f key bytes a text, %.2f bytes a term", float64(terms)/800, float64(bytes)/800, perTerm)
	if perTerm > 3 {
		t.Errorf("the bag key takes %.2f bytes a term, want <= 3", perTerm)
	}
}

// TestRankBatchMatchesSequentialRank: the batched fast path must be
// element-wise identical to ranking each bag alone.
func TestRankBatchMatchesSequentialRank(t *testing.T) {
	d, m, _ := trainSmall(t, 6)
	cm := NewConcurrentModel(m)
	cands := make([]int, m.M)
	for i := range cands {
		cands[i] = i
	}
	var bags []text.Bag
	for i := 0; i < len(d.Tasks) && i < 8; i++ {
		bags = append(bags, d.Tasks[i].Bag(d.Vocab))
	}
	k := 3
	got, err := cm.RankBatchScored(context.Background(), new(rank.Arena), bags, NewCandidates(cands), k)
	if err != nil {
		t.Fatal(err)
	}
	for i, bag := range bags {
		want := cm.Rank(bag, cands)[:k]
		if ids := rank.IDs(got[i]); !reflect.DeepEqual(ids, want) {
			t.Fatalf("bag %d: RankBatchScored = %v, sequential = %v", i, ids, want)
		}
	}
	// Cancelled context aborts.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cm.RankBatchScored(ctx, new(rank.Arena), bags, NewCandidates(cands), k); err == nil {
		t.Error("cancelled RankBatchScored succeeded")
	}
}

// TestBatchProjectsRepeatedBagOnce: a batch that carries the same bag
// twice runs one projection for it and fans the result out, and the
// batch stays element-wise equal to the sequential loop.
func TestBatchProjectsRepeatedBagOnce(t *testing.T) {
	d, m, _ := trainSmall(t, 5)
	cm := NewConcurrentModel(m)
	a, b := d.Tasks[0].Bag(d.Vocab), d.Tasks[1].Bag(d.Vocab)
	bags := []text.Bag{a, b, a}
	cands := make([]int, m.M)
	for i := range cands {
		cands[i] = i
	}
	const k = 4

	first, err := cm.RankBatchScored(context.Background(), new(rank.Arena), bags, NewCandidates(cands), k)
	if err != nil {
		t.Fatal(err)
	}
	if st := cm.CacheStats(); st.Misses != 2 || st.Hits != 0 || st.Entries != 2 {
		t.Fatalf("2 equal + 1 distinct bag: %+v, want 2 misses and 2 entries", st)
	}
	again, err := cm.RankBatchScored(context.Background(), new(rank.Arena), bags, NewCandidates(cands), k)
	if err != nil {
		t.Fatal(err)
	}
	if st := cm.CacheStats(); st.Misses != 2 || st.Hits != 3 {
		t.Fatalf("second batch: %+v, want 3 hits", st)
	}
	for i, bag := range bags {
		want := m.SelectTopKScored(m.Project(bag).Mean(), cands, k)
		for _, got := range [][]rank.Item{first[i], again[i]} {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("bag %d: batch ranking %v, sequential %v", i, got, want)
			}
		}
		if got := cm.Project(bag); !reflect.DeepEqual(got, m.Project(bag)) {
			t.Fatalf("bag %d: cached projection %v, sequential %v", i, got, m.Project(bag))
		}
	}
}

// TestProjectionCacheUnderRace hammers cached projections against
// posterior commits. Under -race this verifies that the cache
// bookkeeping is race-free and that a projection shares no memory with
// the skill writer; the assertion verifies that the commits orphaned
// nothing (once the hammer stops, every bag is still a hit).
func TestProjectionCacheUnderRace(t *testing.T) {
	d, m, _ := trainSmall(t, 4)
	cm := NewConcurrentModel(m)
	bags := make([]text.Bag, 4)
	for i := range bags {
		bags[i] = d.Tasks[i].Bag(d.Vocab)
	}
	cat := cm.Project(bags[0])
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				got := cm.Project(bags[(g+i)%len(bags)])
				if len(got.Lambda) != m.K {
					t.Errorf("projection degenerated: %d dims", len(got.Lambda))
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := cm.UpdateWorkerSkillDrift(worker, []TaskCategory{cat}, []float64{float64(i % 5)}, 0.01); err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	pre := cm.CacheStats()
	for _, bag := range bags {
		cm.Project(bag)
	}
	if st := cm.CacheStats(); st.Misses != pre.Misses || st.Hits != pre.Hits+uint64(len(bags)) {
		t.Errorf("skill commits cost cache entries: %+v -> %+v, want %d more hits", pre, st, len(bags))
	}
}
