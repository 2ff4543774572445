package crowddb

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"crowdselect/internal/core"
	"crowdselect/internal/race"
)

// naiveOnline is what OnlineWorkers computed before the set was
// cached: read every worker row, keep the online ids, sorted.
func naiveOnline(s *Store) []int {
	var ids []int
	for _, w := range s.Workers() {
		if w.Online {
			ids = append(ids, w.ID)
		}
	}
	return ids
}

func checkOnlineSet(t *testing.T, step int, s *Store, model map[int]bool) []int {
	t.Helper()
	var want []int
	for id, on := range model {
		if on {
			want = append(want, id)
		}
	}
	sort.Ints(want)
	got := s.OnlineWorkers()
	if !slices.Equal(got, want) {
		t.Fatalf("step %d: OnlineWorkers = %v, model says %v", step, got, want)
	}
	if naive := naiveOnline(s); !slices.Equal(got, naive) {
		t.Fatalf("step %d: OnlineWorkers = %v, worker rows say %v", step, got, naive)
	}
	if !sort.IntsAreSorted(got) {
		t.Fatalf("step %d: OnlineWorkers not sorted: %v", step, got)
	}
	if len(got) != cap(got) {
		t.Fatalf("step %d: len %d != cap %d: an append would write into the shared snapshot", step, len(got), cap(got))
	}
	if n := s.NumOnline(); n != len(want) {
		t.Fatalf("step %d: NumOnline = %d, want %d", step, n, len(want))
	}
	return got
}

// TestOnlineSetModelBased drives the store through random sequences of
// every operation that can change presence — AddWorker, SetOnline,
// RestoreSnapshot, and a restart that rebuilds the store from its base
// snapshot plus journal replay — and holds the cached online set to a
// plain map kept beside it. Checks are skipped at random so that
// several drops pile up between rebuilds, and a set handed out earlier
// must never change afterwards.
func TestOnlineSetModelBased(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		s.SetClock(fixedClock())
		var base []byte // snapshot the journal continues from
		var journal bytes.Buffer
		journalInto(s, &journal)
		model := map[int]bool{}
		type saved struct {
			snap  []byte
			model map[int]bool
		}
		var saves []saved
		type held struct{ live, copy []int }
		var handed []held

		for step := 0; step < 300; step++ {
			id := rng.Intn(60)
			switch op := rng.Intn(10); {
			case op < 3:
				_, err := s.AddWorker(id, fmt.Sprint("w", id))
				if _, exists := model[id]; exists != (err != nil) {
					t.Fatalf("seed %d step %d: AddWorker(%d) err = %v, exists = %v", seed, step, id, err, exists)
				}
				if err == nil {
					model[id] = true
				}
			case op < 7:
				on := rng.Intn(2) == 0
				err := s.SetOnline(id, on)
				if _, exists := model[id]; exists != (err == nil) {
					t.Fatalf("seed %d step %d: SetOnline(%d) err = %v, exists = %v", seed, step, id, err, exists)
				}
				if err == nil {
					model[id] = on
				}
			case op < 8:
				var snap bytes.Buffer
				if err := s.Snapshot(&snap); err != nil {
					t.Fatal(err)
				}
				saves = append(saves, saved{snap.Bytes(), maps.Clone(model)})
			case op < 9:
				if len(saves) == 0 {
					continue
				}
				sv := saves[rng.Intn(len(saves))]
				if err := s.RestoreSnapshot(bytes.NewReader(sv.snap)); err != nil {
					t.Fatal(err)
				}
				model = maps.Clone(sv.model)
				base = sv.snap
				journal.Reset()
			default:
				// Restart: a new store from the base snapshot and the
				// journal written since, which then carries on.
				s = NewStore()
				s.SetClock(fixedClock())
				if base != nil {
					if err := s.RestoreSnapshot(bytes.NewReader(base)); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := s.replayJournal(bytes.NewReader(journal.Bytes()), nil); err != nil {
					t.Fatalf("seed %d step %d: replay: %v", seed, step, err)
				}
				journalInto(s, &journal)
			}
			if rng.Intn(3) == 0 {
				continue
			}
			got := checkOnlineSet(t, step, s, model)
			handed = append(handed, held{got, slices.Clone(got)})
		}
		checkOnlineSet(t, -1, s, model)
		for i, h := range handed {
			if !slices.Equal(h.live, h.copy) {
				t.Fatalf("seed %d: set %d changed after it was returned: %v, was %v", seed, i, h.live, h.copy)
			}
		}
	}
}

// TestSelectionsRacePresence flips presence while RankOnly and
// SubmitBatch select, unsharded and as one shard of two. Workers are
// always online, flapping, or offline for the whole run: every crowd
// must be distinct owned ids drawn from the first two groups (each was
// online in some snapshot of the run; a worker of the third group in a
// crowd means a stale or torn set), of full size where the always-on
// group alone can fill it, and the quiesced set must equal the rows.
// Run under -race.
func TestSelectionsRacePresence(t *testing.T) {
	for _, shard := range []ShardSpec{{}, {Index: 1, Count: 2}} {
		t.Run(shard.String(), func(t *testing.T) {
			mgr, d := managerFixture(t)
			mgr.SetShard(shard)
			store := mgr.Store()
			n := len(d.Workers)
			const k = 3
			group := func(id int) int { return id % 3 } // 0 always on, 1 flapping, 2 offline
			ownedOn := 0
			for id := 0; id < n; id++ {
				if group(id) == 2 {
					if err := store.SetOnline(id, false); err != nil {
						t.Fatal(err)
					}
				}
				if group(id) == 0 && shard.OwnsWorker(id) {
					ownedOn++
				}
			}
			if ownedOn < k {
				t.Fatalf("fixture: %d always-on owned workers, need %d", ownedOn, k)
			}
			checkCrowd := func(crowd []int) {
				seen := map[int]bool{}
				for _, id := range crowd {
					if seen[id] || group(id) == 2 || !shard.OwnsWorker(id) {
						t.Errorf("crowd %v: worker %d is repeated, never online, or not owned", crowd, id)
					}
					seen[id] = true
				}
				if len(crowd) != k {
					t.Errorf("crowd %v has %d workers, want %d", crowd, len(crowd), k)
				}
			}

			ctx := context.Background()
			var wg sync.WaitGroup
			stop := make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(99))
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					id := rng.Intn(n)
					if group(id) != 1 {
						continue
					}
					if err := store.SetOnline(id, rng.Intn(2) == 0); err != nil {
						t.Errorf("SetOnline: %v", err)
						return
					}
					if i%8 == 0 {
						runtime.Gosched()
					}
				}
			}()
			var sel sync.WaitGroup
			for g := 0; g < 4; g++ {
				sel.Add(1)
				go func(g int) {
					defer sel.Done()
					for i := 0; i < 60; i++ {
						reqs := []TaskSubmission{
							{Text: fmt.Sprintf("hammer %d %d database index", g, i), K: k},
							{Text: fmt.Sprintf("hammer %d %d trees queries", g, i), K: k},
						}
						if g%2 == 0 {
							ranked, err := mgr.RankOnly(ctx, reqs)
							if err != nil {
								t.Errorf("RankOnly: %v", err)
								return
							}
							for _, crowd := range ranked {
								checkCrowd(crowd)
							}
						} else {
							subs, err := mgr.SubmitBatch(ctx, reqs)
							if err != nil {
								t.Errorf("SubmitBatch: %v", err)
								return
							}
							for _, sub := range subs {
								checkCrowd(sub.Workers)
							}
						}
					}
				}(g)
			}
			sel.Wait()
			close(stop)
			wg.Wait()

			if got, want := store.OnlineWorkers(), naiveOnline(store); !slices.Equal(got, want) {
				t.Errorf("quiesced OnlineWorkers = %v, rows say %v", got, want)
			}
			var owned []int
			for _, id := range naiveOnline(store) {
				if shard.OwnsWorker(id) {
					owned = append(owned, id)
				}
			}
			if got := mgr.candidateWorkers().IDs(); !slices.Equal(got, owned) {
				t.Errorf("quiesced candidates = %v, want %v", got, owned)
			}
		})
	}
}

// bigCrowdFixture is a manager over `workers` online workers: the
// small trained model widened with perturbed copies of its skill rows
// (projection does not read them, ranking reads nothing else).
func bigCrowdFixture(tb testing.TB, workers int) *Manager {
	tb.Helper()
	d, m := trainedFixture(tb)
	rng := rand.New(rand.NewSource(5))
	for i := m.M; i < workers; i++ {
		w := m.LambdaW[i%m.M].Clone()
		for j := range w {
			w[j] += 0.1 * rng.NormFloat64()
		}
		m.LambdaW = append(m.LambdaW, w)
		m.NuW2 = append(m.NuW2, m.NuW2[i%m.M].Clone())
	}
	m.M = workers
	store := NewStore()
	for i := 0; i < workers; i++ {
		if _, err := store.AddWorker(i, ""); err != nil {
			tb.Fatal(err)
		}
	}
	mgr, err := NewManager(store, d.Vocab, core.NewConcurrentModel(m), 10)
	if err != nil {
		tb.Fatal(err)
	}
	return mgr
}

// hotRequest is one in-vocabulary text, already projected once so the
// next selection is a cache hit.
func hotRequest(tb testing.TB, mgr *Manager) []TaskSubmission {
	tb.Helper()
	reqs := []TaskSubmission{{Text: "common0000 common0001 common0002", K: 10}}
	if _, err := mgr.RankOnly(context.Background(), reqs); err != nil {
		tb.Fatal(err)
	}
	return reqs
}

// TestRankOnlyHotAllocationFence keeps a cache-hit selection over
// 10 000 online workers from allocating anything for its candidates:
// it ranks the shared online set into a k-Item heap, so nothing grows
// with the crowd. Before, the ranking sorted one 16-B Item per
// candidate (160 KB), and before that the call also built and sorted
// the id set, 336 KB of append growth per request. Nor does the hit
// allocate a category: it is copied into pooled batch scratch, and the
// ranking lands in a pooled arena, so the request takes 2 allocations
// and ≈ 114 B — the ids copied out and the slice holding them. A fresh
// ranking per request took 2 more, and cloning the category out of the
// cache, as it once did, 3 more (its two vectors and the slice of
// categories).
func TestRankOnlyHotAllocationFence(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under -race; run `make allocs`")
	}
	const workers = 10000
	mgr := bigCrowdFixture(t, workers)
	reqs := hotRequest(t, mgr)
	ctx := context.Background()
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := mgr.RankOnly(ctx, reqs); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	bytesPerRun := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
	t.Logf("RankOnly, %d online, k=10: %.0f allocations, %.0f bytes", workers, allocs, bytesPerRun)
	if allocs > 5 {
		t.Errorf("%.0f allocations per hot selection, want <= 5 (no category)", allocs)
	}
	const fence = 2048
	if bytesPerRun >= fence {
		t.Errorf("%.0f bytes per hot selection, want < %d (nothing per candidate)", bytesPerRun, fence)
	}
}

var sinkIDs []int

// BenchmarkOnlineWorkers is the candidate read of a selection: the
// shared snapshot when presence is unchanged, and the rebuild (map
// walk + sort, what every request used to pay) after each change.
func BenchmarkOnlineWorkers(b *testing.B) {
	s := NewStore()
	for i := 0; i < 10000; i++ {
		if _, err := s.AddWorker(i, ""); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("M=10000/unchanged", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkIDs = s.OnlineWorkers()
		}
	})
	offline := make([]bool, 10000) // outlives one b.N round, like the store
	b.Run("M=10000/after-presence-change", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			id := i % 10000
			if err := s.SetOnline(id, offline[id]); err != nil {
				b.Fatal(err)
			}
			offline[id] = !offline[id]
			sinkIDs = s.OnlineWorkers()
		}
	})
}

// BenchmarkRankOnlyHot is one cache-hit selection through the manager
// (tokenise, bag, cached projection, candidates, top-10) by crowd
// size; the slope over M is the ranking's ns/candidate.
func BenchmarkRankOnlyHot(b *testing.B) {
	for _, workers := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("M=%d/k=10", workers), func(b *testing.B) {
			mgr := bigCrowdFixture(b, workers)
			reqs := hotRequest(b, mgr)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mgr.RankOnly(ctx, reqs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
