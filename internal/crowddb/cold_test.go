package crowddb

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"crowdselect/internal/core"
	"crowdselect/internal/corpus"
	"crowdselect/internal/race"
	"crowdselect/internal/rank"
	"crowdselect/internal/text"
)

// coldPlatform is the repository benchmark's select_cold shape
// (bench/platform.go) in one process, at the given profile: terms
// respelled so they survive the tokenizer, a TDPM with k categories
// trained for the given sweeps, a tenth of the crowd online and the
// projection cache bounded to cacheCap entries.
func coldPlatform(tb testing.TB, p corpus.Profile, k, sweeps, cacheCap int) (*corpus.Dataset, *core.ConcurrentModel, *Manager) {
	tb.Helper()
	d := corpus.MustGenerate(p)
	for i, term := range d.VocabTerms {
		d.VocabTerms[i] = strings.ReplaceAll(term, "_", "")
	}
	for _, t := range d.Tasks {
		for i, tok := range t.Tokens {
			t.Tokens[i] = strings.ReplaceAll(tok, "_", "")
		}
	}
	var file bytes.Buffer // a round trip rebuilds the vocabulary index
	if err := d.Save(&file); err != nil {
		tb.Fatal(err)
	}
	d, err := corpus.Load(&file)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := core.NewConfig(k)
	cfg.MaxIter = sweeps
	m, _, err := core.Train(trainingTasks(d), len(d.Workers), d.Vocab.Size(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	store := NewStore()
	for w := range d.Workers {
		if _, err := store.AddWorker(w, ""); err != nil {
			tb.Fatal(err)
		}
	}
	for _, w := range rand.New(rand.NewSource(1)).Perm(len(d.Workers))[:len(d.Workers)*9/10] {
		if err := store.SetOnline(w, false); err != nil {
			tb.Fatal(err)
		}
	}
	cm := core.NewConcurrentModel(m)
	cm.SetProjectionCacheCapacity(cacheCap)
	mgr, err := NewManager(store, d.Vocab, cm, 10)
	if err != nil {
		tb.Fatal(err)
	}
	return d, cm, mgr
}

// coldBodies draws n selection requests of eight texts no request
// before them carried, k = 10: each text is a task's tokens with 30 %
// resampled from the vocabulary, as the repository benchmark draws its
// unseen texts.
func coldBodies(tb testing.TB, d *corpus.Dataset, rng *rand.Rand, n int) [][]byte {
	tb.Helper()
	bodies := make([][]byte, n)
	for i := range bodies {
		var req BatchSubmitRequest
		for j := 0; j < 8; j++ {
			toks := append([]string(nil), d.Tasks[rng.Intn(len(d.Tasks))].Tokens...)
			for p := range toks {
				if rng.Float64() < 0.3 {
					toks[p] = d.VocabTerms[rng.Intn(len(d.VocabTerms))]
				}
			}
			req.Tasks = append(req.Tasks, SubmitRequest{Text: strings.Join(toks, " "), K: 10})
		}
		body, err := json.Marshal(req)
		if err != nil {
			tb.Fatal(err)
		}
		bodies[i] = body
	}
	return bodies
}

// serveSelection drives the handler on a recorder, so what is measured
// is the server, not a socket.
func serveSelection(tb testing.TB, srv *Server, body []byte) {
	r := httptest.NewRequest(http.MethodPost, "/api/v1/selections", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, r)
	if rec.Code != http.StatusOK {
		tb.Fatalf("selections = %d: %s", rec.Code, rec.Body)
	}
}

// fillCache serves cold requests until the projection cache holds as
// many entries as it may, so that every later miss also evicts.
func fillCache(tb testing.TB, d *corpus.Dataset, cm *core.ConcurrentModel, srv *Server, rng *rand.Rand) {
	tb.Helper()
	for st := cm.CacheStats(); st.Entries < st.Capacity; st = cm.CacheStats() {
		for _, body := range coldBodies(tb, d, rng, 1+(st.Capacity-st.Entries)/8) {
			serveSelection(tb, srv, body)
		}
	}
}

// coldSelectionAllocFence and coldSelectionByteFence bound one POST
// /api/v1/selections of eight never-seen texts, k = 10, against a full
// projection cache, through Server.ServeHTTP on a recorder: the decoded
// body's strings and slices, eight cache keys, and the recorder. Before
// the text path was
// made one pass over pooled scratch the same request took 217
// allocations and 35.7 KB here; 95 and 18.4 KB before the body was
// decoded from a pooled buffer instead of through a json.Decoder and its
// per-request read buffer; 90 and 14.4 KB while the keys took 16 bytes a
// term and every category was cloned into a slice of its own; 73 and
// ≈ 11.4 KB while each ranking was a fresh slice and the response went
// through a DTO and the reflective encoder; 53 and ≈ 9.9 KB before every
// server was fenced. It takes 55 and ≈ 10.0–10.3 KB, the two more being
// the fencing gossip headers every response carries.
// The fences leave room for a collection emptying the pools mid-run, not
// for a map, a token slice, a cache entry, a category or a ranking per
// text, nor for that decoder or encoder.
const (
	coldSelectionAllocFence = 57
	coldSelectionByteFence  = 10<<10 + 512
)

// TestSelectionsColdAllocationFence is the allocation gate of the miss
// path: tokenising, bag building, key building, repeat detection,
// projection and the cache insert of a cold selection allocate one key
// string per text and nothing else — no token strings, no count maps,
// no categories, no list elements, no cache entries once the cache is
// full.
func TestSelectionsColdAllocationFence(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under -race; run `make allocs`")
	}
	p := corpus.Quora().Scaled(0.03)
	p.Seed = 11
	d, cm, mgr := coldPlatform(t, p, 5, 5, 64)
	srv := NewServer(mgr)
	rng := rand.New(rand.NewSource(3))
	fillCache(t, d, cm, srv, rng)
	const runs = 100
	bodies := coldBodies(t, d, rng, runs+1) // AllocsPerRun warms up once
	i := 0
	var before, after runtime.MemStats
	pre := cm.CacheStats()
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() { serveSelection(t, srv, bodies[i]); i++ })
	runtime.ReadMemStats(&after)
	bytesPerRun := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	st := cm.CacheStats()
	t.Logf("POST /api/v1/selections, 8 never-seen texts, full cache: %.1f allocations, %.0f bytes", allocs, bytesPerRun)
	if st.Hits != pre.Hits || st.Misses-pre.Misses < 8*runs || st.Entries != st.Capacity {
		t.Fatalf("the requests were not cold against a full cache: %+v -> %+v", pre, st)
	}
	if allocs > coldSelectionAllocFence {
		t.Errorf("%.1f allocations per cold selection, want <= %d", allocs, coldSelectionAllocFence)
	}
	if bytesPerRun > coldSelectionByteFence {
		t.Errorf("%.0f bytes per cold selection, want <= %d", bytesPerRun, coldSelectionByteFence)
	}
}

// BenchmarkSelectionsCold is the repository benchmark's select_cold
// request at its platform — full Quora, 950 workers of which 95 online,
// K = 10 categories, eight never-seen texts, k = 10 — against a
// projection cache filled to its default capacity, so B/op and
// allocs/op are the in-process share of select_cold's alloc_kb_per_op.
func BenchmarkSelectionsCold(b *testing.B) {
	d, cm, mgr := coldPlatform(b, corpus.Quora(), 10, 6, 8192) // built once: only the sub-benchmark is re-run as b.N grows
	srv := NewServer(mgr)
	rng := rand.New(rand.NewSource(2))
	fillCache(b, d, cm, srv, rng)
	b.Run("texts=8", func(b *testing.B) {
		bodies := coldBodies(b, d, rng, b.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveSelection(b, srv, bodies[i])
		}
	})
}

// TestSelectionsScratchIsNotShared is the aliasing oracle of the pooled
// text path (run it under -race): eight clients each send 200 different
// eight-text batches — some texts common to all clients, one repeated
// inside every batch — through RankOnlyScored against a projection cache
// of 16 entries, so every request builds its bags in a pooled builder,
// keys them in a pooled batch scratch, and evicts and reuses cache
// entries other requests were cloned from. Every ranking must equal, bit
// for bit, the one computed beforehand with none of that: fresh bags, a
// bare model, no cache.
func TestSelectionsScratchIsNotShared(t *testing.T) {
	const clients, batches, perBatch = 8, 200, 8
	p := corpus.Quora().Scaled(0.03)
	p.Seed = 11
	d, cm, mgr := coldPlatform(t, p, 5, 5, 16)
	for w := range d.Workers { // the whole crowd, so that a ranking has something to order
		if err := mgr.Store().SetOnline(w, true); err != nil {
			t.Fatal(err)
		}
	}
	m, candidates := cm.Unwrap(), mgr.Store().OnlineWorkers()

	rng := rand.New(rand.NewSource(9))
	pool := make([]string, 96)
	want := make(map[string][]rank.Item, len(pool))
	for i := range pool {
		toks := append([]string(nil), d.Tasks[rng.Intn(len(d.Tasks))].Tokens...)
		for p := range toks {
			switch r := rng.Float64(); {
			case r < 0.3:
				toks[p] = d.VocabTerms[rng.Intn(len(d.VocabTerms))]
			case r < 0.4:
				toks[p] = strings.ToUpper(toks[p]) + "?"
			}
		}
		pool[i] = strings.Join(toks, " ")
		cat := m.Project(text.NewBagKnown(d.Vocab, text.Tokenize(pool[i])))
		want[pool[i]] = m.SelectTopKScored(cat.Mean(), candidates, 5)
	}
	if len(want) < len(pool)*9/10 {
		t.Fatalf("only %d distinct texts in a pool of %d", len(want), len(pool))
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			for b := 0; b < batches; b++ {
				reqs := make([]TaskSubmission, perBatch)
				for j := range reqs {
					reqs[j] = TaskSubmission{Text: pool[8+rng.Intn(len(pool)-8)], K: 1 + rng.Intn(5)}
				}
				reqs[0].Text = pool[b%8]    // the texts every client sends
				reqs[6].Text = reqs[2].Text // a repeat inside the batch
				got, err := mgr.RankOnlyScored(context.Background(), reqs)
				if err != nil {
					t.Errorf("client %d batch %d: %v", c, b, err)
					return
				}
				for j, r := range reqs {
					if exp := want[r.Text][:r.K]; !sameItems(got[j], exp) {
						t.Errorf("client %d batch %d text %d: ranked %v, want %v", c, b, j, got[j], exp)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if st := cm.CacheStats(); st.Entries != 16 || st.Misses < 16 {
		t.Errorf("the cache never filled, so nothing was evicted and reused: %+v", st)
	}
}

func sameItems(a, b []rank.Item) bool {
	return slices.EqualFunc(a, b, func(x, y rank.Item) bool {
		return x.ID == y.ID && math.Float64bits(x.Score) == math.Float64bits(y.Score)
	})
}
