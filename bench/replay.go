package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"crowdselect/internal/core"
	"crowdselect/internal/crowddb"
	"crowdselect/internal/text"
)

// replaySamples is how many calls each layer is timed over in the
// in-process replay.
const replaySamples = 200

// replayEnv is the serving stack of one crowdd node, assembled in the
// benchmark's own process the way cmd/crowdd assembles it: a durable DB
// with the same sync policy, the model that node checkpointed at boot,
// the same roster and online subset, the same server options. The
// benchmark may not put spans inside the program, so it times the calls
// into each layer's public functions here, on the live run's inputs.
type replayEnv struct {
	plat  *platform
	db    *crowddb.DB
	cm    *core.ConcurrentModel
	store *crowddb.Store
	mgr   *crowddb.Manager
	srv   *crowddb.Server
	ts    *httptest.Server
	hc    *http.Client
	logf  *os.File
}

func newReplayEnv(plat *platform, modelPath, dir string, shard crowddb.ShardSpec) (e *replayEnv, err error) {
	model, err := core.LoadModelFile(modelPath)
	if err != nil {
		return nil, err
	}
	db, err := crowddb.Open(filepath.Join(dir, "data"), crowddb.Options{
		Sync:                crowddb.SyncAlways(),
		CompactEveryRecords: 4000,
		ScrubInterval:       time.Minute,
	})
	if err != nil {
		return nil, err
	}
	e = &replayEnv{plat: plat, db: db, store: db.Store(), cm: core.NewConcurrentModel(model)}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	for _, w := range plat.d.Workers {
		if _, err := e.store.AddWorker(w.ID, fmt.Sprintf("worker-%04d", w.ID)); err != nil {
			return nil, err
		}
	}
	if e.mgr, err = crowddb.NewManager(e.store, plat.d.Vocab, e.cm, submitK); err != nil {
		return nil, err
	}
	e.mgr.SetShard(shard)
	db.SetModelSnapshotter(e.cm.Save)
	db.SetQuiescer(e.mgr.Quiesce)
	if err := db.Begin(); err != nil {
		return nil, err
	}
	for _, id := range plat.offline {
		if err := e.store.SetOnline(id, false); err != nil {
			return nil, err
		}
	}
	if e.logf, err = os.Create(filepath.Join(dir, "replay.log")); err != nil {
		return nil, err
	}
	e.srv = crowddb.NewServer(e.mgr)
	e.srv.SetCacheStats(e.cm.CacheStats)
	e.srv.SetFence(crowddb.NewFence(db))
	e.srv.SetDurabilityStats(db.Stats)
	e.srv.SetDegradedCheck(db.Degraded)
	e.srv.SetLogger(log.New(e.logf, "", log.LstdFlags).Printf) // crowdd logs every request
	e.ts = httptest.NewServer(e.srv)
	e.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}, Timeout: 30 * time.Second}
	return e, nil
}

// close releases whatever of the environment was built.
func (e *replayEnv) close() {
	if e.ts != nil {
		e.hc.CloseIdleConnections()
		e.ts.Close()
	}
	_ = e.db.Close() // the run dir is removed next
	if e.logf != nil {
		e.logf.Close()
	}
}

// layerTimer times calls and keeps a span for each.
type layerTimer struct {
	tr  *tracer
	err error // first error a timed call returned
}

// timedCall is one named thing to time; call reports the time that
// counts, which need not be its whole wall time.
type timedCall struct {
	name string
	call func(i int) (time.Duration, error)
}

// wall times the whole of fn.
func wall(fn func(i int) error) func(int) (time.Duration, error) {
	return func(i int) (time.Duration, error) {
		start := time.Now()
		err := fn(i)
		return time.Since(start), err
	}
}

// interleave makes n rounds, each calling every call once, inside a
// span of its name, and returns each call's median in microseconds.
// Composites whose difference is wanted are timed this way, so that a
// slow stretch of the host lands on all of them alike; medians of
// stretches timed one after the other differed by more than the self
// times they were meant to isolate.
func (lt *layerTimer) interleave(n int, calls ...timedCall) []float64 {
	us := make([][]float64, len(calls))
	for i := 0; i < n; i++ {
		for c, tc := range calls {
			id := lt.tr.begin(tc.name, int64(i), 0)
			d, err := tc.call(i)
			lt.tr.end(id)
			if err != nil && lt.err == nil {
				lt.err = fmt.Errorf("%s, call %d: %w", tc.name, i, err)
			}
			us[c] = append(us[c], float64(d)/float64(time.Microsecond))
		}
	}
	out := make([]float64, len(calls))
	for c := range calls {
		out[c] = median(us[c])
	}
	return out
}

// p50 calls fn n times and returns the median duration in microseconds.
func (lt *layerTimer) p50(name string, n int, fn func(i int) error) float64 {
	return lt.interleave(n, timedCall{name, wall(fn)})[0]
}

// allocsPerCall is the exact number of heap objects fn allocates per
// call, from runtime.MemStats.Mallocs around n calls.
func allocsPerCall(n int, fn func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// sender is either of the two ways to put a request through the
// in-process server; it returns the response body and the time that
// counts.
type sender func(method, path string, body []byte, want int) ([]byte, time.Duration, error)

// serve runs one request through Server.ServeHTTP on a recorder and
// returns the time inside ServeHTTP alone.
func (e *replayEnv) serve(method, path string, body []byte, want int) ([]byte, time.Duration, error) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	start := time.Now()
	e.srv.ServeHTTP(rec, req)
	d := time.Since(start)
	if rec.Code != want {
		return nil, 0, fmt.Errorf("%s %s in process: %d, want %d: %s", method, path, rec.Code, want, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return rec.Body.Bytes(), d, nil
}

// loop sends one request over loopback TCP to the in-process server and
// returns send to last byte, as the live client measures it.
func (e *replayEnv) loop(method, path string, body []byte, want int) ([]byte, time.Duration, error) {
	return timedRequest(context.Background(), e.hc, method, e.ts.URL+path, body, want)
}

// replayInputs are the live run's inputs the replay times each layer
// on.
type replayInputs struct {
	wl   *workload
	seed int64
	// ops yields the text batch of the i-th op of a region; regions are
	// disjoint stretches of the pool, so on a cold workload no composite
	// meets a projection an earlier one cached.
	ops func(region, i int) []string
	// missTexts are texts no cache has seen, for the projection miss
	// path of a hot workload.
	missTexts []string
	// liveHealthzUS is the median GET /healthz against the live node.
	liveHealthzUS float64
}

// traced is every metric only a traced run can report.
type traced map[string]float64

// replay times each layer of the serving stack in process and returns
// the per-layer metrics; budget rows are appended to rows for the
// budget table.
func (e *replayEnv) replay(ctx context.Context, in replayInputs, tr *tracer) (traced, error) {
	lt := &layerTimer{tr: tr}
	m := traced{}
	n := replaySamples
	vocab := e.plat.d.Vocab
	wl := in.wl

	// Leaves, on single texts.
	leafTexts := make([]string, n)
	for i := range leafTexts {
		if wl.hot() {
			leafTexts[i] = in.missTexts[i]
		} else {
			leafTexts[i] = in.ops(0, i)[0]
		}
	}
	bags := make([]text.Bag, n)
	m["text.bag_us"] = lt.p50("text.bag", n, func(i int) error {
		bags[i] = text.NewBagKnown(vocab, text.Tokenize(leafTexts[i]))
		return nil
	})
	m["text.bag_allocs"] = allocsPerCall(n, func(i int) { text.NewBagKnown(vocab, text.Tokenize(leafTexts[i])) })

	// Allocation counts of a miss need misses of their own: the texts
	// after the timed ones.
	m["core.project_miss_allocs"] = allocsPerCall(64, func(i int) {
		var t string
		if wl.hot() {
			t = in.missTexts[n+i]
		} else {
			t = in.ops(0, n+i)[0]
		}
		e.cm.Project(text.NewBagKnown(vocab, text.Tokenize(t)))
	}) - m["text.bag_allocs"]
	cats := make([]core.TaskCategory, n)
	m["core.project_miss_us"] = lt.p50("core.project_miss", n, func(i int) error {
		cats[i] = e.cm.Project(bags[i])
		return nil
	})
	m["core.project_hit_us"] = lt.p50("core.project_hit", n, func(i int) error {
		e.cm.Project(bags[i])
		return nil
	})

	var candidates []int
	m["store.candidates_us"] = lt.p50("store.candidates", n, func(int) error {
		candidates = e.store.OnlineWorkers()
		return nil
	})
	if wl.shards > 1 {
		// A shard ranks only the workers it owns.
		owned := candidates[:0:0]
		for _, id := range candidates {
			if e.mgr.Shard().OwnsWorker(id) {
				owned = append(owned, id)
			}
		}
		candidates = owned
	}
	m["rank.topk_us"] = lt.p50("rank.topk", n, func(i int) error {
		e.cm.SelectTopK(cats[i].Mean(), candidates, selectK)
		return nil
	})
	m["rank.topk_allocs"] = allocsPerCall(n, func(i int) { e.cm.SelectTopK(cats[i].Mean(), candidates, selectK) })

	// On a hot workload every composite below must hit the cache, as the
	// live server does after its warm-up.
	warmHot := func() {
		if wl.hot() {
			for i := 0; i < hotPool; i++ {
				e.cm.Project(text.NewBagKnown(vocab, text.Tokenize(in.ops(0, i)[0])))
			}
		}
	}
	warmHot()

	subs := func(texts []string) []crowddb.TaskSubmission {
		out := make([]crowddb.TaskSubmission, len(texts))
		for i, t := range texts {
			out[i] = crowddb.TaskSubmission{Text: t, K: selectK}
		}
		return out
	}
	rankOnly := func(i int) error {
		if wl.lifecycle {
			// After a feedback the live cache is a generation behind.
			e.cm.InvalidateProjections()
		}
		var err error
		if wl.shards > 1 {
			_, err = e.mgr.RankOnlyScored(ctx, subs(in.ops(1, i)))
		} else {
			_, err = e.mgr.RankOnly(ctx, subs(in.ops(1, i)))
		}
		return err
	}

	var inner float64 // what the handler's time is made of, per op
	if wl.lifecycle {
		m["manager.rankonly_us"] = lt.p50("manager.rankonly", n, rankOnly)
		if err := e.replayMutations(ctx, in, lt, m, candidates); err != nil {
			return nil, err
		}
		inner = m["manager.submit_us"] + submitK*m["store.record_answer_us"] + m["manager.resolve_us"] + 5*m["manager.rankonly_us"]
		// A script is ten handler calls, so handler_allocs stays with
		// the select workloads' per-request figure.
		p := lt.interleave(n,
			timedCall{"server.handler", func(i int) (time.Duration, error) { return e.oneScript(in, e.serve, 2, i) }},
			timedCall{"http.loopback", func(i int) (time.Duration, error) { return e.oneScript(in, e.loop, 3, i) }},
		)
		m["server.handler_us"], m["http.loopback_us"] = p[0], p[1]
	} else {
		body := func(region, i int) []byte {
			b := selectionsBody(in.ops(region, i), selectK)
			if wl.shards > 1 {
				// The scored leg a Router sends each shard.
				b = append(b[:len(b)-1], []byte(`,"include_scores":true}`)...)
			}
			return b
		}
		p := lt.interleave(n,
			timedCall{"manager.rankonly", wall(rankOnly)},
			timedCall{"server.handler", func(i int) (time.Duration, error) {
				_, d, err := e.serve(http.MethodPost, "/api/v1/selections", body(2, i), http.StatusOK)
				return d, err
			}},
			timedCall{"http.loopback", func(i int) (time.Duration, error) {
				_, d, err := e.loop(http.MethodPost, "/api/v1/selections", body(3, i), http.StatusOK)
				return d, err
			}},
		)
		m["manager.rankonly_us"], m["server.handler_us"], m["http.loopback_us"] = p[0], p[1], p[2]
		inner = p[0]
		warmHot()
		m["server.handler_allocs"] = allocsPerCall(64, func(i int) {
			_, _, _ = e.serve(http.MethodPost, "/api/v1/selections", body(4, i), http.StatusOK) // the timed calls above report errors
		})
	}
	m["manager.rankonly_self_us"] = selfTime(m["manager.rankonly_us"], leafSum(wl, m))
	m["server.handler_self_us"] = selfTime(m["server.handler_us"], inner)
	m["http.loopback_self_us"] = selfTime(m["http.loopback_us"], m["server.handler_us"])

	// The floor a request pays for crossing into another process: the
	// cheapest request, live, against the same request in process.
	inproc := lt.p50("http.healthz_inproc", n, func(int) error {
		_, _, err := e.loop(http.MethodGet, "/healthz", nil, http.StatusOK)
		return err
	})
	m["http.process_gap_us"] = in.liveHealthzUS - inproc
	return m, lt.err
}

// replayMutations times the write path's layers: the four store
// mutations of a task's life on the journaled store, the manager calls
// that wrap them, and one posterior update.
func (e *replayEnv) replayMutations(ctx context.Context, in replayInputs, lt *layerTimer, m traced, candidates []int) error {
	n := replaySamples
	vocab := e.plat.d.Vocab
	crowd := candidates[:submitK]
	ids := make([]int, n)
	m["store.add_task_us"] = lt.p50("store.add_task", n, func(i int) error {
		t := in.ops(0, i)[0]
		rec, err := e.store.AddTask(t, text.Tokenize(t))
		ids[i] = rec.ID
		return err
	})
	m["store.assign_us"] = lt.p50("store.assign", n, func(i int) error { return e.store.Assign(ids[i], crowd) })
	m["store.record_answer_us"] = lt.p50("store.record_answer", n*submitK, func(i int) error {
		return e.store.RecordAnswer(ids[i/submitK], crowd[i%submitK], "answer")
	})
	scores := func(i int) map[int]float64 {
		out := make(map[int]float64, submitK)
		for j, w := range crowd {
			out[w] = float64(mix(in.seed, int64(i), j) % 6)
		}
		return out
	}
	m["store.resolve_us"] = lt.p50("store.resolve", n, func(i int) error {
		_, err := e.store.Resolve(ids[i], scores(i))
		return err
	})

	subs := make([]crowddb.Submission, n)
	m["manager.submit_us"] = lt.p50("manager.submit", n, func(i int) error {
		var err error
		subs[i], err = e.mgr.SubmitTask(ctx, in.ops(0, i)[0], submitK)
		return err
	})
	for i, sub := range subs {
		for _, w := range sub.Workers {
			if err := e.mgr.CollectAnswer(sub.Task.ID, w, "answer"); err != nil {
				return fmt.Errorf("replay answers of task %d: %w", i, err)
			}
		}
	}
	m["manager.resolve_us"] = lt.p50("manager.resolve", n, func(i int) error {
		sc := make(map[int]float64, submitK)
		for j, w := range subs[i].Workers {
			sc[w] = float64(mix(in.seed, int64(i), j) % 6)
		}
		_, err := e.mgr.ResolveTask(ctx, subs[i].Task.ID, sc)
		return err
	})

	cat := e.cm.Project(text.NewBagKnown(vocab, text.Tokenize(in.ops(0, 0)[0])))
	m["core.update_skill_us"] = lt.p50("core.update_skill", n, func(i int) error {
		return e.cm.UpdateWorkerSkill(crowd[i%submitK], []core.TaskCategory{cat}, []float64{float64(i % 6)})
	})
	return nil
}

// oneScript puts the lifecycle script of sample i through send and
// returns the sum of its ten requests' times.
func (e *replayEnv) oneScript(in replayInputs, send sender, region, i int) (time.Duration, error) {
	var total time.Duration
	data, d, err := send(http.MethodPost, "/api/v1/tasks", submitBody(in.ops(region, i)[0]), http.StatusCreated)
	if err != nil {
		return 0, err
	}
	total += d
	var sub crowddb.SubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		return 0, err
	}
	task := "/api/v1/tasks/" + strconv.Itoa(sub.TaskID)
	for _, w := range sub.Workers {
		if _, d, err = send(http.MethodPost, task+"/answers", answerBody(w), http.StatusNoContent); err != nil {
			return 0, err
		}
		total += d
	}
	if _, d, err = send(http.MethodPost, task+"/feedback", feedbackBody(sub.Workers, in.seed, int64(i)), http.StatusOK); err != nil {
		return 0, err
	}
	total += d
	for j := 0; j < 5; j++ {
		if _, d, err = send(http.MethodPost, "/api/v1/selections", selectionsBody(in.ops(region, i*5+j), selectK), http.StatusOK); err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}
