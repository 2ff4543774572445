package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"crowdselect/internal/linalg"
	"crowdselect/internal/race"
	"crowdselect/internal/rank"
)

// indexPlatforms caches, per crowd size M, the layer benchmarks'
// platform (benchFixture: the full Quora profile's 950 workers, K = 10,
// 6 sweeps) widened to M workers with copies of its prior mean μ_w — a
// worker without answers trains to the prior — and the λ_c of 64
// bench-style texts projected against it. At M = 10⁴ that is 9 050
// identical prior rows; the repository benchmark's platform, which
// generates its 10 000 workers instead (seconds per thousand), has 9 415.
var indexPlatforms struct {
	sync.Mutex
	byM map[int]*indexPlatform
}

type indexPlatform struct {
	m    *Model
	cats []linalg.Vector
}

func platformAt(tb testing.TB, workers int) *indexPlatform {
	tb.Helper()
	trained, _ := benchFixture(tb)
	indexPlatforms.Lock()
	defer indexPlatforms.Unlock()
	if p := indexPlatforms.byM[workers]; p != nil {
		return p
	}
	m := cloneViaSave(tb, trained)
	for w := m.M; w < workers; w++ {
		m.LambdaW = append(m.LambdaW, m.MuW.Clone())
		m.NuW2 = append(m.NuW2, linalg.ConstVector(m.K, 1))
	}
	m.M = workers
	p := &indexPlatform{m: m}
	for _, bag := range benchStyleBags(benchPlatform.d, 64) {
		p.cats = append(p.cats, m.Project(bag).Mean())
	}
	if indexPlatforms.byM == nil {
		indexPlatforms.byM = make(map[int]*indexPlatform)
	}
	indexPlatforms.byM[workers] = p
	return p
}

// scan is the oracle: the full scan of Eq. 1 over ids.
func scan(m *Model, c linalg.Vector, ids []int, k int) []rank.Item {
	return rank.TopKScoredInto(nil, ids, func(id int) float64 { return m.Score(id, c) }, k)
}

// sameRanking reports whether two rankings hold the same ids with the same
// score bits, in the same order.
func sameRanking(a, b []rank.Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// checkAgainstScan ranks ids against c three ways — the served path
// (Model.rankInto over NewCandidates, which picks index or scan), the
// exported SelectTopKScored over the bare ids and the index itself, at
// any size and density — and fails unless each equals the scan bit for
// bit. ids must be distinct, in any order.
func checkAgainstScan(t *testing.T, what string, m *Model, c linalg.Vector, ids []int, k int) {
	t.Helper()
	want := scan(m, c, ids, k)
	var sc indexScratch
	if got := m.rankInto(nil, &sc, c, NewCandidates(ids), k); !sameRanking(got, want) {
		t.Fatalf("%s, k=%d: rankInto = %v, scan = %v", what, k, got, want)
	}
	if got := m.SelectTopKScored(c, ids, k); !sameRanking(got, want) {
		t.Fatalf("%s, k=%d: SelectTopKScored = %v, scan = %v", what, k, got, want)
	}
	if len(ids) > 0 && k >= 1 {
		got := m.index().topK(nil, &sc, m, c, bitsOf(ids), min(k, len(ids)))
		if !sameRanking(got, want) {
			t.Fatalf("%s, k=%d: index = %v, scan = %v", what, k, got, want)
		}
	}
}

// bitsOf is the membership bitset of distinct ids, at any density.
func bitsOf(ids []int) []uint64 {
	bits := make([]uint64, slices.Max(ids)>>6+1)
	for _, id := range ids {
		bits[id>>6] |= 1 << (id & 63)
	}
	return bits
}

// indexPalette is what generated skills and categories draw from beside
// Gaussians: zeros of both signs, exact ties, neighbours one ulp apart,
// values whose products underflow and subnormals.
var indexPalette = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 3,
	math.Nextafter(1, 2), math.Nextafter(1, 0), math.Nextafter(0.5, 1),
	1e-160, -1e-160, 1e-300, 5e-324, -5e-324,
}

func paletteVec(rng *rand.Rand, k int) linalg.Vector {
	v := make(linalg.Vector, k)
	for i := range v {
		v[i] = indexPalette[rng.Intn(len(indexPalette))]
	}
	return v
}

func gaussVec(rng *rand.Rand, k int, scale float64) linalg.Vector {
	v := make(linalg.Vector, k)
	for i := range v {
		v[i] = scale * rng.NormFloat64()
	}
	return v
}

// randomIndexModel is a model of the given shape for the index's
// differential tests: a share of the crowd sits on one identical prior
// row (as the platform's answerless workers do), some rows repeat it
// nudged by an ulp or two in one component (near-ties inside the
// rounding pad), some are drawn from indexPalette (exact ties, ±0,
// underflow) and the rest are Gaussian; with nonFinite, a few rows carry
// a NaN or an infinity.
func randomIndexModel(rng *rand.Rand, workers, k int, nonFinite bool) *Model {
	m := &Model{K: k, M: workers, Tau2: 1, LambdaW: make([]linalg.Vector, workers), NuW2: make([]linalg.Vector, workers)}
	prior := gaussVec(rng, k, 0.3)
	priorShare := rng.Float64()
	for w := range m.LambdaW {
		var row linalg.Vector
		switch r := rng.Float64(); {
		case r < priorShare:
			row = prior.Clone()
		case r < priorShare+0.1:
			row = prior.Clone()
			i := rng.Intn(k)
			for n := rng.Intn(3); n >= 0; n-- {
				row[i] = math.Nextafter(row[i], math.Inf(rng.Intn(2)*2-1))
			}
		case r < priorShare+0.2:
			row = paletteVec(rng, k)
		default:
			row = gaussVec(rng, k, 1)
		}
		if nonFinite && rng.Intn(40) == 0 {
			row[rng.Intn(k)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
		}
		m.LambdaW[w] = row
		m.NuW2[w] = linalg.ConstVector(k, 0.5)
	}
	return m
}

// randomCategory is a query: Gaussian, drawn from the palette, zero (every
// score ±0), or the prior row's direction.
func randomCategory(rng *rand.Rand, m *Model) linalg.Vector {
	switch rng.Intn(5) {
	case 0:
		return paletteVec(rng, m.K)
	case 1:
		return make(linalg.Vector, m.K)
	case 2:
		return m.LambdaW[0].Clone()
	}
	return gaussVec(rng, m.K, 1)
}

// candidateSets are the sets a model of m workers is ranked over: every
// worker, a presence subset of random density, one shard's owned subset,
// and every worker in descending and in shuffled order, which
// NewCandidates must leave to the scan.
func candidateSets(rng *rand.Rand, m int) map[string][]int {
	all := make([]int, m)
	present, owned := []int{}, []int{}
	density := rng.Float64()
	shards := 2 + rng.Intn(4)
	shard := rng.Intn(shards)
	for i := range all {
		all[i] = i
		if rng.Float64() < density {
			present = append(present, i)
		}
		if i%shards == shard {
			owned = append(owned, i)
		}
	}
	reversed, shuffled := slices.Clone(all), slices.Clone(all)
	slices.Reverse(reversed)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	return map[string][]int{"all": all, "present": present, "owned": owned, "reversed": reversed, "shuffled": shuffled}
}

// runIndexCase ranks a random model over each candidate set at k ∈ {0,
// 1, 10, n−1, n, n+5} against the scan, folding feedback into random
// workers between rounds of queries.
func runIndexCase(t *testing.T, seed int64, workers, k, rounds int) {
	rng := rand.New(rand.NewSource(seed))
	m := randomIndexModel(rng, workers, k, seed%3 == 0)
	sets := candidateSets(rng, workers)
	for round := 0; round < rounds; round++ {
		c := randomCategory(rng, m)
		for name, ids := range sets {
			n := len(ids)
			for _, kk := range []int{0, 1, 10, n - 1, n, n + 5} {
				checkAgainstScan(t, fmt.Sprintf("seed %d, %d workers, K=%d, round %d, %s (%d)", seed, workers, m.K, round, name, n), m, c, ids, kk)
			}
		}
		for f := rng.Intn(4); f > 0; f-- {
			cat := TaskCategory{Lambda: gaussVec(rng, m.K, 1), Nu2: linalg.ConstVector(m.K, 0.1)}
			// A fold the posterior refuses (a non-finite row) commits nothing.
			_ = m.UpdateWorkerSkill(rng.Intn(workers), []TaskCategory{cat}, []float64{3 * rng.NormFloat64()})
		}
	}
}

// TestSelectTopKMatchesScan is the index's seeded differential test:
// over random models — a large group of identical rows among them,
// forced ties, ±0, near-ties within an ulp, NaN and infinite skills —
// every candidate set and every k, with folds between queries, the
// top-k equals the full scan, ids and score bits.
func TestSelectTopKMatchesScan(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		workers := []int{1, 2, 63, 64, 65, 200, 700, 1500}[seed%8]
		runIndexCase(t, seed, workers, 1+int(seed%11), 4)
	}
	runIndexCase(t, 1000, 10000, 10, 3)
}

// FuzzSelectTopKMatchesScan is TestSelectTopKMatchesScan's case
// generator driven by the fuzzer: any seed, crowd size, dimension and
// number of fold rounds.
func FuzzSelectTopKMatchesScan(f *testing.F) {
	f.Add(int64(1), uint16(700), uint8(10), uint8(3))
	f.Add(int64(3), uint16(64), uint8(1), uint8(2))
	f.Add(int64(9), uint16(1500), uint8(4), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, workers uint16, k, rounds uint8) {
		runIndexCase(t, seed, 1+int(workers)%2000, 1+int(k)%12, 1+int(rounds)%4)
	})
}

// TestSkillIndexAllocationsAndScoredShare holds the index to what it
// is for, on the benchmark's platform at 10⁴ workers (mostly one prior
// row), by counts rather than timings:
//   - a top-10 over the whole crowd, ranked as a selection ranks it,
//     scores at most 5 % of the crowd, so a silent fall back to the full
//     scan fails here;
//   - once the index is built and the scratch warm, that selection
//     allocates nothing;
//   - a fold re-bounds its block without allocating: it still takes
//     exactly the 2 allocations of the posterior it commits, and the
//     index stays exact.
func TestSkillIndexAllocationsAndScoredShare(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under -race, and the platform trains for 20 s there; run `make allocs`")
	}
	p := platformAt(t, 10000)
	m := cloneViaSave(t, p.m) // folded below: the shared platform stays as trained
	cands := NewCandidates(m.allCandidates().IDs())
	var sc indexScratch
	worst, total := 0, 0
	for i, c := range p.cats {
		sc.scored = m.M
		got := m.rankInto(nil, &sc, c, cands, 10)
		if want := scan(m, c, cands.ids, 10); !sameRanking(got, want) {
			t.Fatalf("text %d: index = %v, scan = %v", i, got, want)
		}
		worst, total = max(worst, sc.scored), total+sc.scored
	}
	t.Logf("%d workers, k=10: %.0f scored per query on average, %d at most", m.M, float64(total)/float64(len(p.cats)), worst)
	if worst > m.M/20 {
		t.Errorf("a query scored %d of %d workers, want at most 5 %%", worst, m.M)
	}

	c, dst := p.cats[0], make([]rank.Item, 0, 10)
	if allocs := testing.AllocsPerRun(100, func() { m.rankInto(dst, &sc, c, cands, 10) }); allocs != 0 {
		t.Errorf("pruned selection: %.0f allocations, want 0", allocs)
	}
	cats, scores := []TaskCategory{{Lambda: p.cats[1], Nu2: linalg.ConstVector(m.K, 0.1)}}, []float64{4}
	w := 0
	if allocs := testing.AllocsPerRun(100, func() {
		if err := m.UpdateWorkerSkill(w, cats, scores); err != nil {
			t.Fatal(err)
		}
		w = (w + 97) % m.M
	}); allocs != 2 {
		t.Errorf("fold with the index built: %.0f allocations, want 2", allocs)
	}
	for i, c := range p.cats {
		if got, want := m.rankInto(nil, &sc, c, cands, 10), scan(m, c, cands.ids, 10); !sameRanking(got, want) {
			t.Fatalf("text %d after folds: index = %v, scan = %v", i, got, want)
		}
	}
}

// TestSkillIndexFoldsRaceSelections races folds against selections on
// a ConcurrentModel of 10⁴ workers: every selection, taken under the
// read lock, equals the scan under that same lock. Run it under -race
// (`make race` does).
func TestSkillIndexFoldsRaceSelections(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := randomIndexModel(rng, 10000, 10, false)
	cm := NewConcurrentModel(m)
	cands := m.allCandidates()
	queries := make([][]float64, 8)
	for i := range queries {
		queries[i] = gaussVec(rng, m.K, 1)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				cat := TaskCategory{Lambda: gaussVec(rng, m.K, 1), Nu2: linalg.ConstVector(m.K, 0.1)}
				if err := cm.UpdateWorkerSkill(rng.Intn(m.M), []TaskCategory{cat}, []float64{3 * rng.NormFloat64()}); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := new(rank.Arena)
			for i := 0; i < 10; i++ {
				cm.mu.RLock()
				got, err := cm.scoreLocked(context.Background(), a, new(indexScratch), len(queries), func(i int) linalg.Vector { return queries[i] }, cands, 10)
				for q := range queries {
					if want := scan(cm.m, queries[q], cands.ids, 10); err != nil || !sameRanking(got[q], want) {
						t.Errorf("query %d: index = %v (%v), scan = %v", q, got[q], err, want)
					}
				}
				cm.mu.RUnlock()
			}
		}()
	}
	wg.Wait()
}

var sinkItems []rank.Item

// BenchmarkSelectTopK is Eq. 1's top-10 over a platform crowd
// (platformAt) of M workers, as a served selection runs it — candidates
// with their bitset built once — by the full scan and by the skill
// index (at any density: rankInto would scan the sparse rows), cycling
// over 64 projected texts; scored/op is how many workers a query
// scores. The candidates are the whole crowd, or a random
// presence subset of the given share of it: those rows place the
// crossover rankInto draws (indexMinCandidates, indexMinDensity).
func BenchmarkSelectTopK(b *testing.B) {
	for _, bc := range []struct {
		workers int
		share   float64
	}{
		{1000, 1}, {1000, 0.1}, {1000, 0.2},
		{10000, 1}, {10000, 0.5}, {10000, 0.1}, {10000, 0.05}, {10000, 0.01},
		{100000, 1},
	} {
		p := platformAt(b, bc.workers)
		m := p.m
		ids, name := m.allCandidates().ids, fmt.Sprintf("M=%d", bc.workers)
		if bc.share < 1 {
			rng := rand.New(rand.NewSource(int64(bc.workers)))
			var present []int
			for _, id := range ids {
				if rng.Float64() < bc.share {
					present = append(present, id)
				}
			}
			ids = present
			name += fmt.Sprintf("/present=%g%%", 100*bc.share)
		}
		b.Run(name+"/scan", func(b *testing.B) {
			dst := make([]rank.Item, 0, 10)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := p.cats[i%len(p.cats)]
				sinkItems = rank.TopKScoredInto(dst, ids, func(id int) float64 { return m.Score(id, c) }, 10)
			}
			b.ReportMetric(float64(len(ids)), "scored/op")
		})
		b.Run(name+"/index", func(b *testing.B) {
			x, dst, bits := m.index(), make([]rank.Item, 0, 10), bitsOf(ids)
			var sc indexScratch
			x.topK(dst, &sc, m, p.cats[0], bits, 10) // grow the scratch
			scored := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkItems = x.topK(dst, &sc, m, p.cats[i%len(p.cats)], bits, 10)
				scored += sc.scored
			}
			b.ReportMetric(float64(scored)/float64(b.N), "scored/op")
		})
	}
}
