package crowdclient

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"crowdselect/internal/crowddb"
	"crowdselect/internal/race"
	"crowdselect/internal/rank"
	"crowdselect/internal/selcodec"
)

// TestRouterScratchIsNotShared is the aliasing oracle of the Router's
// pooled scatter — each leg's answer buffer and flat form, the bodies
// and the merge's items — and of the results cut from it (run it under
// -race). Eight clients each send 200 batches of eight texts through
// one Router over two shards whose 16-entry projection caches keep
// evicting: one text every client sends, one text twice in every batch
// and the rest drawn from a pool of forty. Every result, checked when it
// returns and again once every client is done, must equal the single
// node's ranking of its text computed beforehand: the same ids and the
// same score bits.
func TestRouterScratchIsNotShared(t *testing.T) {
	f := newFleet(t, 2)
	for _, n := range f.nodes {
		n.cm.SetProjectionCacheCapacity(16)
	}
	r := f.router(t)
	ctx := context.Background()
	const maxK = 6
	texts := f.texts(40)
	var all []crowddb.SubmitRequest
	for _, text := range texts {
		all = append(all, crowddb.SubmitRequest{Text: text, K: maxK})
	}
	want, err := New(f.single.URL, Options{}).SelectionsScored(ctx, all)
	if err != nil {
		t.Fatal(err)
	}
	// A top-k is the first k of the top-maxK under the one total order.
	check := func(label string, which, k int, got crowddb.SelectionResult) bool {
		w := want.Results[which]
		n := min(k, len(w.Workers))
		same := slices.Equal(got.Workers, w.Workers[:n]) && slices.EqualFunc(got.Scores, w.Scores[:n], func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		})
		if !same {
			t.Errorf("%s: text %d k=%d selected %v %v, the single node %v %v", label, which, k, got.Workers, got.Scores, w.Workers[:n], w.Scores[:n])
		}
		return same
	}

	const clients, batches, width = 8, 200, 8
	type sent struct {
		which, k int
		got      crowddb.SelectionResult
	}
	held := make([][]sent, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for b := range batches {
				which := make([]int, width)
				twice := 1 + rng.Intn(len(texts)-1)
				which[1], which[2] = twice, twice // which[0] = 0 is every client's
				for j := 3; j < width; j++ {
					which[j] = 1 + rng.Intn(len(texts)-1)
				}
				rng.Shuffle(width, func(i, j int) { which[i], which[j] = which[j], which[i] })
				batch := make([]crowddb.SubmitRequest, width)
				for j, i := range which {
					batch[j] = crowddb.SubmitRequest{Text: texts[i], K: 1 + rng.Intn(maxK)}
				}
				got, err := r.Selections(ctx, batch)
				if err != nil {
					t.Errorf("client %d batch %d: %v", c, b, err)
					return
				}
				for j, res := range got.Results {
					if !check("returned", which[j], batch[j].K, res) {
						return
					}
					held[c] = append(held[c], sent{which[j], batch[j].K, res})
				}
			}
		}()
	}
	wg.Wait()
	for _, h := range held {
		for _, s := range h {
			if !check("held", s.which, s.k, s.got) {
				return
			}
		}
	}
	if r.Partials() != 0 || r.Fallbacks() != 0 {
		t.Errorf("partials %d, fallbacks %d, want 0, 0", r.Partials(), r.Fallbacks())
	}
}

var sinkResults []crowddb.SelectionResult

// TestRouterMergeAllocations is the allocation gate of the Router's read
// and merge (DESIGN §8): two canned answers of eight tasks — a
// projecting leg's, with categories, and a score-only leg's — scanned
// into a pooled scatter and merged allocate the results' three backing
// arrays (the results, their ids and their scores) and nothing per task
// or per leg.
func TestRouterMergeAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under -race; run `make allocs`")
	}
	const tasks, k, dim = 8, 10, 10
	rng := rand.New(rand.NewSource(59))
	answer := func(shard int, cats [][]float64, version string) []byte {
		ranked := make([][]rank.Item, tasks)
		for i := range ranked {
			for j := range k {
				ranked[i] = append(ranked[i], rank.Item{ID: 2*(rng.Intn(500)*k+j) + shard, Score: rng.NormFloat64()})
			}
			slices.SortFunc(ranked[i], func(a, b rank.Item) int { return cmp.Compare(b.Score, a.Score) })
		}
		body, err := selcodec.AppendResponse(nil, ranked, true, "TDPM", cats, version)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	cats := make([][]float64, tasks)
	for i := range cats {
		for range dim {
			cats[i] = append(cats[i], rng.NormFloat64())
		}
	}
	bodies := [][]byte{answer(0, cats, "0123abcd"), answer(1, nil, "")}
	reqs := make([]crowddb.SubmitRequest, tasks)
	for i := range reqs {
		reqs[i].K = k
	}
	run := func() {
		sc := newScatter(reqs, len(bodies))
		for i, body := range bodies {
			l := &sc.legs[i]
			l.in.Reset()
			l.in.Write(body)
			err := l.read()
			if err == nil {
				err = checkLeg(&l.resp, tasks, i == 0)
			}
			if err != nil {
				t.Fatal(err)
			}
			l.ok = true
		}
		sinkResults = sc.merge()
		sc.release()
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 3 {
		t.Errorf("reading and merging two legs of %d tasks allocates %v times, want 3 (results, ids, scores)", tasks, allocs)
	}
	if n := len(sinkResults[0].Workers); n != k {
		t.Fatalf("merged %d workers for task 0, want %d", n, k)
	}
}
