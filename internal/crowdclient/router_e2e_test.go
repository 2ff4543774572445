package crowdclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"crowdselect/internal/core"
	"crowdselect/internal/corpus"
	"crowdselect/internal/crowddb"
	"crowdselect/internal/selcodec"
)

// fleetFixture is a single-node reference service plus an N-shard
// fleet built from the same dataset and trained model, each node with
// its own copy of the model so posterior updates stay independent.
type fleetFixture struct {
	dataset *corpus.Dataset
	model   *core.Model
	single  *httptest.Server
	shards  []*httptest.Server
	nodes   []*testNode // parallel to shards
}

// testNode is one in-process crowdd: its HTTP front, the server behind
// it (for metrics) and the model it serves (for cache statistics and
// for perturbing its category parameters).
type testNode struct {
	srv *crowddb.Server
	hs  *httptest.Server
	cm  *core.ConcurrentModel
}

func trainedModel(t *testing.T) (*corpus.Dataset, *core.Model) {
	t.Helper()
	p := corpus.Quora().Scaled(0.03)
	p.Seed = 17
	d := corpus.MustGenerate(p)
	var tasks []core.ResolvedTask
	for _, task := range d.Tasks {
		rt := core.ResolvedTask{Bag: task.Bag(d.Vocab)}
		for _, r := range task.Responses {
			rt.Responses = append(rt.Responses, core.Scored{Worker: r.Worker, Score: r.Score})
		}
		tasks = append(tasks, rt)
	}
	cfg := core.NewConfig(5)
	cfg.MaxIter = 5
	m, _, err := core.Train(tasks, len(d.Workers), d.Vocab.Size(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, m
}

// cloneModel round-trips the model through its serialization so every
// node mutates its own posteriors.
func cloneModel(t *testing.T, m *core.Model) *core.Model {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	clone, err := core.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return clone
}

func newNode(t *testing.T, d *corpus.Dataset, m *core.Model, sp crowddb.ShardSpec) *testNode {
	return newNodeWith(t, d, m, sp, nil)
}

// newNodeWith is newNode with an optional handler middleware, so a
// test can inject faults between the Router and a shard.
func newNodeWith(t *testing.T, d *corpus.Dataset, m *core.Model, sp crowddb.ShardSpec, wrap func(http.Handler) http.Handler) *testNode {
	t.Helper()
	store := crowddb.NewStore()
	for i := range d.Workers {
		if _, err := store.AddWorker(i, fmt.Sprintf("worker-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	cm := core.NewConcurrentModel(cloneModel(t, m))
	mgr, err := crowddb.NewManager(store, d.Vocab, cm, 3)
	if err != nil {
		t.Fatal(err)
	}
	mgr.SetShard(sp)
	srv := crowddb.NewServer(mgr)
	var h http.Handler = srv
	if wrap != nil {
		h = wrap(h)
	}
	hs := httptest.NewServer(h)
	t.Cleanup(hs.Close)
	return &testNode{srv: srv, hs: hs, cm: cm}
}

func newFleet(t *testing.T, count int) *fleetFixture {
	return newFleetWrapped(t, count, nil)
}

func newFleetWrapped(t *testing.T, count int, wrap func(http.Handler) http.Handler) *fleetFixture {
	t.Helper()
	d, m := trainedModel(t)
	f := &fleetFixture{dataset: d, model: m}
	f.single = newNode(t, d, m, crowddb.ShardSpec{}).hs

	doc := crowddb.Topology{Epoch: 1, Count: count}
	for i := 0; i < count; i++ {
		n := newNodeWith(t, d, m, crowddb.ShardSpec{Index: i, Count: count}, wrap)
		f.nodes = append(f.nodes, n)
		f.shards = append(f.shards, n.hs)
		doc.Shards = append(doc.Shards, crowddb.ShardAddr{Index: i, URL: n.hs.URL})
	}
	f.setTopology(t, doc)
	return f
}

func (f *fleetFixture) setTopology(t *testing.T, doc crowddb.Topology) {
	t.Helper()
	for _, n := range f.nodes {
		pushTopology(t, n.srv, doc)
	}
}

// pushTopology installs doc on srv through its admin route, POST
// /api/v1/topology, in process: a node learns its fleet's addresses
// only once their servers listen.
func pushTopology(t testing.TB, srv *crowddb.Server, doc crowddb.Topology) {
	t.Helper()
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/topology", bytes.NewReader(b)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /api/v1/topology = %d: %s", rec.Code, rec.Body)
	}
}

func (f *fleetFixture) router(t *testing.T) *Router {
	t.Helper()
	r, err := NewRouter(context.Background(), []string{f.shards[0].URL}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func (f *fleetFixture) texts(n int) []string {
	out := make([]string, 0, n)
	for _, task := range f.dataset.Tasks {
		if len(out) == n {
			break
		}
		out = append(out, strings.Join(task.Tokens, " "))
	}
	return out
}

// requests asks for the k best workers of each of the fixture's first n
// task texts.
func (f *fleetFixture) requests(n, k int) []crowddb.SubmitRequest {
	var reqs []crowddb.SubmitRequest
	for _, text := range f.texts(n) {
		reqs = append(reqs, crowddb.SubmitRequest{Text: text, K: k})
	}
	return reqs
}

// misses sums the projection-cache misses — the projections performed —
// over the fleet's shards.
func (f *fleetFixture) misses() uint64 {
	var sum uint64
	for _, n := range f.nodes {
		sum += n.cm.CacheStats().Misses
	}
	return sum
}

// legs is one shard's count of fleet-selection legs by kind.
func (n *testNode) legs() crowddb.SelectionLegsSnapshot {
	if l := n.srv.Metrics().Snapshot().SelectionLegs; l != nil {
		return *l
	}
	return crowddb.SelectionLegsSnapshot{}
}

// sameSelections fails the test unless got and want hold the same
// worker ids and the same score bits, task by task.
func sameSelections(t *testing.T, label string, got, want []crowddb.SelectionResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i].Workers, want[i].Workers) {
			t.Errorf("%s task %d: selected %v, want %v", label, i, got[i].Workers, want[i].Workers)
			continue
		}
		for j := range want[i].Scores {
			if math.Float64bits(got[i].Scores[j]) != math.Float64bits(want[i].Scores[j]) {
				t.Errorf("%s task %d worker %d: score %v, want %v (bits differ)", label, i, got[i].Workers[j], got[i].Scores[j], want[i].Scores[j])
			}
		}
	}
}

// TestRouterSelectionsMatchSingleNode is the tentpole acceptance
// property end to end: a scatter-gathered selection over an N-shard
// fleet is bitwise-identical — ids and score bits — to the same
// selection on one unsharded node holding the full roster, and the
// fleet projects each of the eight unseen texts once, not once per
// shard.
func TestRouterSelectionsMatchSingleNode(t *testing.T) {
	for _, count := range []int{2, 3} {
		t.Run(fmt.Sprintf("shards=%d", count), func(t *testing.T) {
			f := newFleet(t, count)
			r := f.router(t)
			ctx := context.Background()
			single := New(f.single.URL, Options{})

			reqs := f.requests(8, 5)
			want, err := single.SelectionsScored(ctx, reqs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.Selections(ctx, reqs)
			if err != nil {
				t.Fatal(err)
			}
			sameSelections(t, "fleet vs single node", got.Results, want.Results)
			if m := f.misses(); m != 8 {
				t.Errorf("the fleet projected %d times for 8 unseen texts on %d shards, want 8", m, count)
			}
			if r.Partials() != 0 || r.Fallbacks() != 0 {
				t.Errorf("healthy fleet: partials %d, fallbacks %d, want 0, 0", r.Partials(), r.Fallbacks())
			}
		})
	}
}

// TestRouterRotatesTheProjectingShard: over N selections each of the N
// shards is the projecting one exactly once and a score-only one the
// other N−1 times, so projection CPU and cache occupancy spread evenly.
func TestRouterRotatesTheProjectingShard(t *testing.T) {
	const count = 3
	f := newFleet(t, count)
	r := f.router(t)
	reqs := f.requests(count*2, 4)
	for call := 0; call < count; call++ {
		if _, err := r.Selections(context.Background(), reqs[call*2:call*2+2]); err != nil {
			t.Fatal(err)
		}
	}
	for i, n := range f.nodes {
		want := crowddb.SelectionLegsSnapshot{Projected: 1, ScoredOnly: count - 1}
		if got := n.legs(); got != want {
			t.Errorf("shard %d served legs %+v, want %+v", i, got, want)
		}
		if m := n.cm.CacheStats().Misses; m != 2 {
			t.Errorf("shard %d projected %d texts, want the 2 of its own turn", i, m)
		}
	}
}

// TestRouterFallsBackToTextOnCategoryMismatch: a shard whose category
// parameters differ from the projecting shard's — or whose parameters are
// equal but whose binary runs another core.KernelVersion, a fleet halfway
// through an upgrade — refuses the categories with the typed 409 and gets
// that one leg again as text; the result is what scattering the text to
// every shard gives, never a ranking against a λ_c the shard would not
// have produced.
func TestRouterFallsBackToTextOnCategoryMismatch(t *testing.T) {
	t.Run("parameters", func(t *testing.T) {
		routerFallsBackToText(t, func(odd *core.ConcurrentModel) {
			odd.Unwrap().MuC[0] += 0.25
			odd.Replace(odd.Unwrap())
		})
	})
	t.Run("kernel", func(t *testing.T) {
		routerFallsBackToText(t, func(odd *core.ConcurrentModel) { odd.LabelKernelForTest(core.KernelVersion - 1) })
	})
}

func routerFallsBackToText(t *testing.T, makeOdd func(*core.ConcurrentModel)) {
	f := newFleet(t, 3)
	r := f.router(t)
	ctx := context.Background()
	reqs := f.requests(4, 5)

	makeOdd(f.nodes[2].cm)

	// The refusal, seen directly.
	sc := newScatter(reqs, len(f.shards))
	projected := new(leg)
	if err := New(f.shards[0].URL, Options{}).leg(ctx, selcodec.AppendTextLeg(nil, sc.texts, sc.ks, true), projected); err != nil {
		t.Fatal(err)
	}
	p := &projected.resp
	scoreOnly, err := selcodec.AppendCategoryLeg(nil, sc.ks, p.Cats, p.Dim, p.Version)
	if err != nil {
		t.Fatal(err)
	}
	err = New(f.shards[2].URL, Options{}).leg(ctx, scoreOnly, new(leg))
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusConflict || ae.Code != "category_mismatch" {
		t.Fatalf("perturbed shard answered %v, want 409 category_mismatch", err)
	}

	// What a text scatter gives: every shard ranks the texts itself.
	for i, hs := range f.shards {
		if err := New(hs.URL, Options{}).leg(ctx, selcodec.AppendTextLeg(nil, sc.texts, sc.ks, false), &sc.legs[i]); err != nil {
			t.Fatal(err)
		}
		sc.legs[i].ok = true
	}
	want := sc.merge()
	sc.release()

	before := [3]uint64{}
	for i, n := range f.nodes {
		before[i] = n.cm.CacheStats().Misses + n.cm.CacheStats().Hits
	}
	r.rrProject.Store(0) // shard 0 projects
	got, err := r.Selections(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	sameSelections(t, "fallback vs text scatter", got.Results, want)
	if r.Fallbacks() != 1 || r.Partials() != 0 {
		t.Errorf("fallbacks %d, partials %d, want 1, 0", r.Fallbacks(), r.Partials())
	}
	lookups := func(i int) uint64 {
		st := f.nodes[i].cm.CacheStats()
		return st.Misses + st.Hits - before[i]
	}
	if lookups(0) != 4 || lookups(1) != 0 || lookups(2) != 4 {
		t.Errorf("cache lookups per shard = %d, %d, %d; want 4 (projects), 0 (scores), 4 (text fallback)", lookups(0), lookups(1), lookups(2))
	}
	if l := f.nodes[1].legs(); l.ScoredOnly != 1 || l.CategoryMismatch != 0 {
		t.Errorf("agreeing shard served legs %+v, want one scored-only", l)
	}
	if l := f.nodes[2].legs(); l.ScoredOnly != 0 || l.CategoryMismatch != 2 {
		t.Errorf("perturbed shard served legs %+v, want two refusals (the direct probe and the Router's)", l)
	}
}

// TestRouterScoreOnlyLegServedByReplica: a score-only leg is a read, so
// when a shard's primary is gone its Multi serves the leg from a
// replica — no partial, same result.
func TestRouterScoreOnlyLegServedByReplica(t *testing.T) {
	f := newFleet(t, 2)
	replica := newNode(t, f.dataset, f.model, crowddb.ShardSpec{Index: 1, Count: 2})
	doc := crowddb.Topology{Epoch: 2, Count: 2, Shards: []crowddb.ShardAddr{
		{Index: 0, URL: f.shards[0].URL},
		{Index: 1, URL: f.shards[1].URL, Replicas: []string{replica.hs.URL}},
	}}
	f.setTopology(t, doc)
	r := f.router(t)
	ctx := context.Background()
	reqs := f.requests(8, 5)
	want, err := New(f.single.URL, Options{}).SelectionsScored(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}

	f.shards[1].Close()
	r.rrProject.Store(0) // shard 0 projects, shard 1 scores
	got, err := r.Selections(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	sameSelections(t, "replica-served leg vs single node", got.Results, want.Results)
	if r.Partials() != 0 {
		t.Errorf("partials = %d with a live replica, want 0", r.Partials())
	}
	if l := replica.legs(); l.ScoredOnly != 1 {
		t.Errorf("replica served legs %+v, want one scored-only", l)
	}
	if m := replica.cm.CacheStats().Misses; m != 0 {
		t.Errorf("replica projected %d texts on a score-only leg", m)
	}
}

// TestSelectionsByCategoryRefusesMalformedRequests: what the Router
// never sends is a 400 at the server, not a ranking.
func TestSelectionsByCategoryRefusesMalformedRequests(t *testing.T) {
	f := newFleet(t, 2)
	ctx := context.Background()
	c := New(f.shards[0].URL, Options{})
	reqs := f.requests(2, 3)
	projected := new(leg)
	if err := c.leg(ctx, selcodec.AppendTextLeg(nil, []string{reqs[0].Text, reqs[1].Text}, []int{3, 3}, true), projected); err != nil {
		t.Fatal(err)
	}
	ks := []int{3, 3}
	p := &projected.resp
	cats, dim, version := p.Cats, p.Dim, p.Version
	marshal := func(req crowddb.BatchSubmitRequest) []byte {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	scoreOnly := func(cats []float64, version string) []byte {
		b, err := selcodec.AppendCategoryLeg(nil, ks, cats, dim, version)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	blank := []crowddb.SubmitRequest{{K: 3}, {K: 3}}
	for name, body := range map[string][]byte{
		"wrong length":               marshal(crowddb.BatchSubmitRequest{Tasks: blank, Categories: [][]float64{cats[:2], cats[dim : 2*dim]}, CategoryVersion: version}),
		"one category for two tasks": scoreOnly(cats[:dim], version),
		"missing version":            scoreOnly(cats, ""),
		"categories beside texts":    marshal(crowddb.BatchSubmitRequest{Tasks: reqs, Categories: [][]float64{cats[:dim], cats[dim:]}, CategoryVersion: version}),
	} {
		var ae *APIError
		if err := c.leg(ctx, body, new(leg)); !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %v, want 400", name, err)
		}
	}
	// A non-finite value cannot leave this process as JSON at all; the
	// server's decoder refusing one is crowddb's TestSelectionsByCategory.
	if _, err := selcodec.AppendCategoryLeg(nil, ks, append([]float64{math.NaN()}, cats[1:]...), dim, version); err == nil {
		t.Error("a NaN category was sent")
	}
}

// malformedShard stands in for shard 1 of a two-shard fleet and answers
// every selections request with a well-formed envelope around one
// malformed part.
type malformedShard struct{ shape atomic.Value }

func (s *malformedShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var req crowddb.BatchSubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	n := len(req.Tasks)
	// The well-formed base: no candidates for any task, and, when asked,
	// a category per task.
	resp := crowddb.SelectionsResponse{Results: make([]crowddb.SelectionResult, n), Model: "TDPM"}
	for i := range resp.Results {
		resp.Results[i] = crowddb.SelectionResult{Workers: []int{}, Scores: []float64{}}
	}
	if req.IncludeCategories {
		resp.CategoryVersion = "v"
		for range req.Tasks {
			resp.Categories = append(resp.Categories, []float64{0.5, 0.25})
		}
	}
	switch s.shape.Load().(string) {
	case "unscored": // an older build that ignores include_scores
		resp.Results[0] = crowddb.SelectionResult{Workers: []int{1, 2, 3}}
	case "fewer scores than workers":
		resp.Results[n-1] = crowddb.SelectionResult{Workers: []int{1, 2, 3}, Scores: []float64{0.5}}
	case "short":
		resp.Results = resp.Results[:n-1]
	case "no categories": // an older build that ignores include_categories
		resp.Categories, resp.CategoryVersion = nil, ""
	case "versionless":
		resp.CategoryVersion = ""
	case "ragged categories":
		if req.IncludeCategories {
			resp.Categories[n-1] = []float64{0.5}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// TestRouterTreatsMalformedLegAsShardError: a shard that answers 200
// with the wrong shape — no scores, too few results, no or ragged
// categories on the projecting leg — is that shard's error: counted in
// Partials, joined into the all-failed error, never a panic in the
// caller's process and never a candidate set silently dropped.
func TestRouterTreatsMalformedLegAsShardError(t *testing.T) {
	d, m := trainedModel(t)
	real := newNode(t, d, m, crowddb.ShardSpec{Index: 0, Count: 2})
	fake := &malformedShard{}
	fakeHS := httptest.NewServer(fake)
	t.Cleanup(fakeHS.Close)
	pushTopology(t, real.srv, crowddb.Topology{Epoch: 1, Count: 2, Shards: []crowddb.ShardAddr{
		{Index: 0, URL: real.hs.URL}, {Index: 1, URL: fakeHS.URL},
	}})
	ctx := context.Background()
	f := &fleetFixture{dataset: d}
	reqs := f.requests(3, 4)
	want, err := New(real.hs.URL, Options{}).SelectionsScored(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}

	// Each shape is served twice: once with the fake as the projecting
	// shard and once as a score-only one. The category shapes are only
	// malformed on the projecting leg.
	for shape, partials := range map[string]int64{
		"unscored":                  2,
		"fewer scores than workers": 2,
		"short":                     2,
		"no categories":             1,
		"versionless":               1,
		"ragged categories":         1,
	} {
		fake.shape.Store(shape)
		r, err := NewRouter(ctx, []string{real.hs.URL}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for call := 0; call < 2; call++ {
			got, err := r.Selections(ctx, reqs)
			if err != nil {
				t.Fatalf("%s, call %d: %v", shape, call, err)
			}
			sameSelections(t, shape, got.Results, want.Results)
		}
		if r.Partials() != partials {
			t.Errorf("%s: partials = %d, want %d", shape, r.Partials(), partials)
		}
	}

	fake.shape.Store("short")
	r, err := NewRouter(ctx, []string{real.hs.URL}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	real.hs.Close()
	if _, err := r.Selections(ctx, reqs); err == nil || !strings.Contains(err.Error(), "shard 1: malformed response") {
		t.Errorf("all-failed error = %v, want it to name shard 1's malformed response", err)
	}
}

// TestRouterFeedbackKeepsFleetEquivalent drives the full write path —
// submit, answers, feedback with cross-shard posterior forwarding —
// identically against the fleet and the single node, then checks that
// selections still agree. If any shard folded a posterior twice,
// missed one, or used the wrong score, the rankings would diverge.
func TestRouterFeedbackKeepsFleetEquivalent(t *testing.T) {
	f := newFleet(t, 2)
	r := f.router(t)
	ctx := context.Background()
	single := New(f.single.URL, Options{})

	for round, text := range f.texts(4) {
		sub, err := r.SubmitTask(ctx, text, 4)
		if err != nil {
			t.Fatal(err)
		}
		ssub, err := single.SubmitTask(ctx, text, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sub.Workers, ssub.Workers) {
			t.Fatalf("round %d: fleet assigned %v, single node %v", round, sub.Workers, ssub.Workers)
		}
		scores := make(map[int]float64)
		for j, w := range sub.Workers {
			if err := r.Answer(ctx, sub.TaskID, w, "fleet answer"); err != nil {
				t.Fatal(err)
			}
			if err := single.Answer(ctx, ssub.TaskID, w, "fleet answer"); err != nil {
				t.Fatal(err)
			}
			if j < 3 { // leave one answer unscored: it must fold as 0 on both sides
				scores[w] = float64(((round+j)%5)+1) / 5
			}
		}
		rec, err := r.Feedback(ctx, sub.TaskID, scores)
		if err != nil {
			t.Fatalf("round %d: fleet feedback: %v", round, err)
		}
		if rec.Status != crowddb.TaskResolved {
			t.Fatalf("round %d: fleet task not resolved: %v", round, rec.Status)
		}
		if _, err := single.Feedback(ctx, ssub.TaskID, scores); err != nil {
			t.Fatalf("round %d: single feedback: %v", round, err)
		}
	}

	var reqs []crowddb.SubmitRequest
	for _, text := range f.texts(6) {
		reqs = append(reqs, crowddb.SubmitRequest{Text: text, K: 6})
	}
	want, err := single.Selections(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Selections(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Results {
		if !reflect.DeepEqual(got.Results[i].Workers, want.Results[i].Workers) {
			t.Errorf("post-feedback task %d: fleet %v, single %v",
				i, got.Results[i].Workers, want.Results[i].Workers)
		}
	}
}

// feedbackOutage fails the next N skills:feedback posts fleet-wide —
// the injected fault for the forward-leg retry drill.
type feedbackOutage struct{ remaining atomic.Int32 }

func (o *feedbackOutage) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/api/v1/skills:feedback") && o.remaining.Add(-1) >= 0 {
			http.Error(w, `{"error":{"code":"internal","message":"injected forward outage"}}`, http.StatusInternalServerError)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// TestRouterFeedbackRetriesForwardLegs is the partial-failure drill
// for cross-shard posterior forwarding: the home-shard resolve
// commits, the forward leg to the foreign owner dies, and the caller
// simply retries Feedback. The retry must find the task already
// resolved, re-forward from the stored resolution, and the owner-side
// dedupe must keep every posterior folded exactly once — verified by
// bitwise selection equivalence against a single node that saw the
// same traffic with no faults.
func TestRouterFeedbackRetriesForwardLegs(t *testing.T) {
	outage := &feedbackOutage{}
	f := newFleetWrapped(t, 2, outage.wrap)
	r := f.router(t)
	single := New(f.single.URL, Options{})
	ctx := context.Background()

	// Walk the deterministic task stream until a submission has at
	// least one foreign answerer (owned by the non-home shard); tasks
	// without one resolve normally on both sides to keep parity.
	var (
		drillTask, singleTask int
		drillScores           map[int]float64
	)
	for round, text := range f.texts(8) {
		sub, err := r.SubmitTask(ctx, text, 4)
		if err != nil {
			t.Fatal(err)
		}
		ssub, err := single.SubmitTask(ctx, text, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sub.Workers, ssub.Workers) {
			t.Fatalf("round %d: fleet assigned %v, single %v", round, sub.Workers, ssub.Workers)
		}
		scores := make(map[int]float64, len(sub.Workers))
		for j, w := range sub.Workers {
			if err := r.Answer(ctx, sub.TaskID, w, "drill answer"); err != nil {
				t.Fatal(err)
			}
			if err := single.Answer(ctx, ssub.TaskID, w, "drill answer"); err != nil {
				t.Fatal(err)
			}
			scores[w] = float64(((round+j)%5)+1) / 5
		}
		home := crowddb.ShardOfTask(sub.TaskID, 2)
		foreign := 0
		for _, w := range sub.Workers {
			if crowddb.ShardOfWorker(w, 2) != home {
				foreign++
			}
		}
		if foreign > 0 && drillScores == nil {
			drillTask, singleTask, drillScores = sub.TaskID, ssub.TaskID, scores
			continue // resolved below, under the outage
		}
		if _, err := r.Feedback(ctx, sub.TaskID, scores); err != nil {
			t.Fatal(err)
		}
		if _, err := single.Feedback(ctx, ssub.TaskID, scores); err != nil {
			t.Fatal(err)
		}
	}
	if drillScores == nil {
		t.Fatal("no submission selected a foreign answerer; fixture too small for the drill")
	}

	// One forward leg dies (two shards: exactly one foreign owner).
	// The resolve itself is durable, so Feedback must report the leg.
	outage.remaining.Store(1)
	if _, err := r.Feedback(ctx, drillTask, drillScores); err == nil {
		t.Fatal("forward-leg failure not reported")
	}

	// A bare retry of the same call drains the missing leg: the home
	// shard answers from the stored resolution, the owner folds once.
	rec, err := r.Feedback(ctx, drillTask, drillScores)
	if err != nil {
		t.Fatalf("Feedback retry after forward failure: %v", err)
	}
	if rec.Status != crowddb.TaskResolved {
		t.Fatalf("retried task not resolved: %v", rec.Status)
	}
	// Further retries are acknowledged no-ops (owner-side dedupe).
	if _, err := r.Feedback(ctx, drillTask, drillScores); err != nil {
		t.Fatalf("idempotent re-retry: %v", err)
	}
	if _, err := single.Feedback(ctx, singleTask, drillScores); err != nil {
		t.Fatal(err)
	}

	// Exactly-once proof: had any owner folded the forwarded scores
	// zero or two times, the fleet's rankings would diverge from the
	// single node's.
	var reqs []crowddb.SubmitRequest
	for _, text := range f.texts(6) {
		reqs = append(reqs, crowddb.SubmitRequest{Text: text, K: 6})
	}
	want, err := single.Selections(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Selections(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Results {
		if !reflect.DeepEqual(got.Results[i].Workers, want.Results[i].Workers) {
			t.Errorf("post-drill selection %d: fleet %v, single %v",
				i, got.Results[i].Workers, want.Results[i].Workers)
		}
	}
}

// TestWrongShardRefusalCarriesOwnerHint checks the 421 contract: a
// shard refuses presence flips for workers it does not own, names the
// owner in the typed error, and the Router lands the same call on the
// right shard.
func TestWrongShardRefusalCarriesOwnerHint(t *testing.T) {
	f := newFleet(t, 2)
	r := f.router(t)
	ctx := context.Background()

	// Find a worker owned by shard 1 and aim the call at shard 0.
	victim := -1
	for id := 0; id < len(f.dataset.Workers); id++ {
		if crowddb.ShardOfWorker(id, 2) == 1 {
			victim = id
			break
		}
	}
	if victim < 0 {
		t.Fatal("no worker owned by shard 1")
	}
	wrong := New(f.shards[0].URL, Options{})
	err := wrong.SetPresence(ctx, victim, false)
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("want APIError, got %v", err)
	}
	if ae.StatusCode != 421 || ae.Code != "wrong_shard" {
		t.Fatalf("want 421 wrong_shard, got %d %s", ae.StatusCode, ae.Code)
	}
	if ae.ShardOwner != 1 {
		t.Errorf("owner hint = %d, want 1", ae.ShardOwner)
	}
	if ae.ShardOwnerURL != f.shards[1].URL {
		t.Errorf("owner URL = %q, want %q", ae.ShardOwnerURL, f.shards[1].URL)
	}

	// The Router routes by ownership and succeeds.
	if err := r.SetPresence(ctx, victim, false); err != nil {
		t.Fatalf("router presence: %v", err)
	}
	w, err := r.GetWorker(ctx, victim)
	if err != nil {
		t.Fatal(err)
	}
	if w.Online {
		t.Error("presence flip did not land on the owner shard")
	}
}

// TestRouterSelectionsDegradeToSurvivors kills one shard outright and
// checks that selections keep answering from the surviving shard's
// candidates instead of failing — whether the dead shard was the one
// due to project (the next in rotation projects) or a score-only one.
func TestRouterSelectionsDegradeToSurvivors(t *testing.T) {
	for dead, role := range []string{"projecting", "score-only"} {
		t.Run(role, func(t *testing.T) {
			f := newFleet(t, 2)
			r := f.router(t)
			ctx := context.Background()

			f.shards[dead].Close()
			r.rrProject.Store(0) // shard 0 is due to project
			reqs := []crowddb.SubmitRequest{{Text: f.texts(1)[0], K: 5}}
			got, err := r.Selections(ctx, reqs)
			if err != nil {
				t.Fatalf("degraded selection failed: %v", err)
			}
			if len(got.Results[0].Workers) == 0 {
				t.Fatal("no workers selected from surviving shard")
			}
			for _, w := range got.Results[0].Workers {
				if crowddb.ShardOfWorker(w, 2) == dead {
					t.Errorf("worker %d is owned by the dead shard", w)
				}
			}
			if r.Partials() != 1 {
				t.Errorf("Partials() = %d, want 1 for the dead shard's leg", r.Partials())
			}
			if l := f.nodes[1-dead].legs(); l.Projected != 1 {
				t.Errorf("surviving shard served legs %+v, want it to project", l)
			}
		})
	}
}
