package crowdclient

import (
	"bytes"
	"context"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"crowdselect/internal/core"
	"crowdselect/internal/corpus"
	"crowdselect/internal/crowddb"
)

// benchFleet is the repository benchmark's fleet_cold shape
// (bench/platform.go, bench/fleet.go) in one process: the full Quora
// profile — 4 440 tasks, 950 workers, terms respelled so they survive
// the tokenizer — trained with K = 10 for 6 sweeps, served by two
// httptest shards with a tenth of the crowd online.
func benchFleet(b *testing.B) (*corpus.Dataset, []*core.ConcurrentModel, *Router) {
	b.Helper()
	d := corpus.MustGenerate(corpus.Quora())
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
		b.Fatal(err)
	}
	d, err := corpus.Load(&file)
	if err != nil {
		b.Fatal(err)
	}
	var tasks []core.ResolvedTask
	for _, task := range d.Tasks {
		rt := core.ResolvedTask{Bag: task.Bag(d.Vocab)}
		for _, r := range task.Responses {
			rt.Responses = append(rt.Responses, core.Scored{Worker: r.Worker, Score: r.Score})
		}
		tasks = append(tasks, rt)
	}
	cfg := core.NewConfig(10)
	cfg.MaxIter = 6
	m, _, err := core.Train(tasks, len(d.Workers), d.Vocab.Size(), cfg)
	if err != nil {
		b.Fatal(err)
	}

	const shards = 2
	offline := rand.New(rand.NewSource(1)).Perm(len(d.Workers))[:len(d.Workers)*9/10]
	doc := crowddb.Topology{Epoch: 1, Count: shards}
	var servers []*crowddb.Server
	var models []*core.ConcurrentModel
	for i := 0; i < shards; i++ {
		store := crowddb.NewStore()
		for w := range d.Workers {
			if _, err := store.AddWorker(w, ""); err != nil {
				b.Fatal(err)
			}
		}
		for _, w := range offline {
			if err := store.SetOnline(w, false); err != nil {
				b.Fatal(err)
			}
		}
		var saved bytes.Buffer
		if err := m.Save(&saved); err != nil {
			b.Fatal(err)
		}
		own, err := core.LoadModel(&saved)
		if err != nil {
			b.Fatal(err)
		}
		cm := core.NewConcurrentModel(own)
		mgr, err := crowddb.NewManager(store, d.Vocab, cm, 10)
		if err != nil {
			b.Fatal(err)
		}
		mgr.SetShard(crowddb.ShardSpec{Index: i, Count: shards})
		srv := crowddb.NewServer(mgr)
		hs := httptest.NewServer(srv)
		b.Cleanup(hs.Close)
		servers, models = append(servers, srv), append(models, cm)
		doc.Shards = append(doc.Shards, crowddb.ShardAddr{Index: i, URL: hs.URL})
	}
	for _, srv := range servers {
		pushTopology(b, srv, doc)
	}
	r, err := NewRouter(context.Background(), []string{doc.Shards[0].URL}, Options{})
	if err != nil {
		b.Fatal(err)
	}
	return d, models, r
}

// BenchmarkRouterSelections is one fleet selection of eight texts no
// shard has seen, k = 10, over two in-process shards: the Router's two
// phases, both shards' handlers and the loopback HTTP between them.
// projections/op is the fleet's summed projection-cache misses per
// selection — 8 when the fleet projects once, 16 when every shard
// projects the text it is sent.
func BenchmarkRouterSelections(b *testing.B) {
	d, models, r := benchFleet(b) // built once: only the sub-benchmark is re-run as b.N grows
	misses := func() (sum uint64) {
		for _, cm := range models {
			sum += cm.CacheStats().Misses
		}
		return sum
	}
	rng := rand.New(rand.NewSource(2))
	b.Run("shards=2/texts=8", func(b *testing.B) {
		ops := make([][]crowddb.SubmitRequest, b.N)
		for i := range ops {
			ops[i] = make([]crowddb.SubmitRequest, 8)
			for j := range ops[i] {
				// A task's tokens with 30 % resampled from the vocabulary, as
				// the repository benchmark draws its unseen texts.
				toks := append([]string(nil), d.Tasks[rng.Intn(len(d.Tasks))].Tokens...)
				for p := range toks {
					if rng.Float64() < 0.3 {
						toks[p] = d.VocabTerms[rng.Intn(len(d.VocabTerms))]
					}
				}
				ops[i][j] = crowddb.SubmitRequest{Text: strings.Join(toks, " "), K: 10}
			}
		}
		ctx := context.Background()
		before := misses()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.Selections(ctx, ops[i]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(misses()-before)/float64(b.N), "projections/op")
	})
}
