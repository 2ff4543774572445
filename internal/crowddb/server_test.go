package crowddb

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"crowdselect/internal/core"
	"crowdselect/internal/rank"
	"crowdselect/internal/text"
)

func serverFixture(t *testing.T) (*httptest.Server, *Manager) {
	t.Helper()
	mgr, _ := managerFixture(t)
	ts := httptest.NewServer(NewServer(mgr))
	t.Cleanup(ts.Close)
	return ts, mgr
}

// newNode is New for tests: def is the default tenant (its name filled
// in), cfg the rest of the node. A refused description fails the test.
func newNode(t testing.TB, def TenantConfig, cfg NodeConfig) *Server {
	t.Helper()
	def.Name = DefaultTenant
	cfg.Tenants = append([]TenantConfig{def}, cfg.Tenants...)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestServerEndToEnd(t *testing.T) {
	ts, _ := serverFixture(t)

	// Submit a task.
	resp := postJSON(t, ts.URL+"/api/v1/tasks", map[string]any{"text": "how do b+ trees differ from b trees", "k": 2})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	sub := decode[SubmitResponse](t, resp)
	if len(sub.Workers) != 2 || sub.Model != "TDPM" {
		t.Fatalf("submit = %+v", sub)
	}

	// Fetch it back.
	resp, err := http.Get(fmt.Sprintf("%s/api/v1/tasks/%d", ts.URL, sub.TaskID))
	if err != nil {
		t.Fatal(err)
	}
	task := decode[TaskRecord](t, resp)
	if task.Status != TaskAssigned {
		t.Errorf("status = %v", task.Status)
	}

	// Both workers answer.
	for _, w := range sub.Workers {
		resp = postJSON(t, fmt.Sprintf("%s/api/v1/tasks/%d/answers", ts.URL, sub.TaskID),
			map[string]any{"worker": w, "answer": "an answer"})
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("answer status = %d", resp.StatusCode)
		}
		resp.Body.Close()
	}

	// Feedback resolves the task.
	scores := map[string]float64{}
	for i, w := range sub.Workers {
		scores[fmt.Sprint(w)] = float64(5 - i)
	}
	resp = postJSON(t, fmt.Sprintf("%s/api/v1/tasks/%d/feedback", ts.URL, sub.TaskID),
		map[string]any{"scores": scores})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback status = %d", resp.StatusCode)
	}
	rec := decode[TaskRecord](t, resp)
	if rec.Status != TaskResolved {
		t.Errorf("resolved status = %v", rec.Status)
	}

	// Stats reflect the pipeline.
	resp, err = http.Get(ts.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decode[StatsResponse](t, resp)
	if stats.Resolved != 1 || stats.Tasks != 1 || stats.Model != "TDPM" {
		t.Errorf("stats = %+v", stats)
	}
}

func TestServerWorkerEndpoints(t *testing.T) {
	ts, _ := serverFixture(t)
	resp, err := http.Get(ts.URL + "/api/v1/workers/0")
	if err != nil {
		t.Fatal(err)
	}
	w := decode[Worker](t, resp)
	if w.ID != 0 || !w.Online {
		t.Errorf("worker = %+v", w)
	}
	resp = postJSON(t, ts.URL+"/api/v1/workers/0/presence", map[string]any{"online": false})
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("presence status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/api/v1/workers/0")
	if err != nil {
		t.Fatal(err)
	}
	if w := decode[Worker](t, resp); w.Online {
		t.Error("presence update not applied")
	}
}

func TestServerMetricsEndpoint(t *testing.T) {
	ts, _ := serverFixture(t)
	// Generate traffic: one created task, one 404.
	resp := postJSON(t, ts.URL+"/api/v1/tasks", map[string]any{"text": "metrics probe question", "k": 1})
	resp.Body.Close()
	resp, err := http.Get(ts.URL + "/api/v1/tasks/9999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	snap := decode[MetricsSnapshot](t, resp)
	if ep := snap.Endpoints["POST /api/v1/tasks"]; ep.Count != 1 || ep.Errors != 0 {
		t.Errorf("submit series = %+v", ep)
	}
	if ep := snap.Endpoints["GET /api/v1/tasks/{id}"]; ep.Count != 1 || ep.Errors != 1 {
		t.Errorf("404 series = %+v", ep)
	}
	// Latency quantiles are populated and ordered.
	ep := snap.Endpoints["POST /api/v1/tasks"]
	if ep.P50Ms <= 0 || ep.P99Ms < ep.P50Ms || ep.MaxMs <= 0 {
		t.Errorf("quantiles = %+v", ep)
	}
	// Wrong method is rejected.
	resp = postJSON(t, ts.URL+"/api/v1/metrics", map[string]any{})
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST metrics status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// panicSelector explodes while ranking to exercise the recovery
// middleware.
type panicSelector struct{ staticSelector }

func (panicSelector) RankBatchScored(context.Context, *rank.Arena, []text.Bag, core.Candidates, int) ([][]rank.Item, error) {
	panic("selector exploded")
}

func TestServerRecoversFromHandlerPanic(t *testing.T) {
	d, _ := trainedFixture(t)
	store := NewStore()
	if _, err := store.AddWorker(0, "w"); err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(store, d.Vocab, panicSelector{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var logged bool
	srv := newNode(t, TenantConfig{Manager: mgr}, NodeConfig{Logf: func(string, ...any) { logged = true }})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/api/v1/tasks", map[string]any{"text": "boom", "k": 1})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("panic status = %d, want 500", resp.StatusCode)
	}
	if !logged {
		t.Error("panic was not logged")
	}
	if ep := srv.Metrics().Snapshot().Endpoints["POST /api/v1/tasks"]; ep.Errors != 1 {
		t.Errorf("panic not counted as error: %+v", ep)
	}
	// The server keeps serving after the panic.
	resp2, err := http.Get(ts.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("post-panic stats status = %d", resp2.StatusCode)
	}
}

func TestServerErrorPaths(t *testing.T) {
	ts, _ := serverFixture(t)
	cases := []struct {
		name   string
		do     func() *http.Response
		status int
	}{
		{"empty text", func() *http.Response {
			return postJSON(t, ts.URL+"/api/v1/tasks", map[string]any{"text": "  "})
		}, http.StatusBadRequest},
		{"bad json", func() *http.Response {
			resp, err := http.Post(ts.URL+"/api/v1/tasks", "application/json", strings.NewReader("{"))
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusBadRequest},
		{"get missing task", func() *http.Response {
			resp, err := http.Get(ts.URL + "/api/v1/tasks/999")
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusNotFound},
		{"bad task id", func() *http.Response {
			resp, err := http.Get(ts.URL + "/api/v1/tasks/abc")
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusBadRequest},
		{"answer missing task", func() *http.Response {
			return postJSON(t, ts.URL+"/api/v1/tasks/999/answers", map[string]any{"worker": 0, "answer": "x"})
		}, http.StatusNotFound},
		{"feedback bad worker id", func() *http.Response {
			return postJSON(t, ts.URL+"/api/v1/tasks/0/feedback", map[string]any{"scores": map[string]float64{"nope": 1}})
		}, http.StatusBadRequest},
		{"get missing worker", func() *http.Response {
			resp, err := http.Get(ts.URL + "/api/v1/workers/98765")
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusNotFound},
		{"tasks wrong method", func() *http.Response {
			resp, err := http.Get(ts.URL + "/api/v1/tasks")
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusMethodNotAllowed},
		{"stats wrong method", func() *http.Response {
			return postJSON(t, ts.URL+"/api/v1/stats", map[string]any{})
		}, http.StatusMethodNotAllowed},
		{"unknown subroute", func() *http.Response {
			return postJSON(t, ts.URL+"/api/v1/tasks/0/bogus", map[string]any{})
		}, http.StatusNotFound},
	}
	for _, c := range cases {
		resp := c.do()
		if resp.StatusCode != c.status {
			t.Errorf("%s: status = %d, want %d", c.name, resp.StatusCode, c.status)
		}
		resp.Body.Close()
	}
}

// TestFeedbackRefusesNonCanonicalWorkerIDs: a score key is a worker id
// as the journal spells it. "07" and "+7" parse as 7, so accepting them
// let one body name a worker three times and store whichever score map
// order visited last; both feedback routes answer 400 and fold nothing.
func TestFeedbackRefusesNonCanonicalWorkerIDs(t *testing.T) {
	ts, mgr := serverFixture(t)
	resp := postJSON(t, ts.URL+"/api/v1/tasks", map[string]any{"text": "how do b+ trees differ from b trees", "k": 2})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	sub := decode[SubmitResponse](t, resp)
	w := sub.Workers[0]
	resp = postJSON(t, fmt.Sprintf("%s/api/v1/tasks/%d/answers", ts.URL, sub.TaskID), map[string]any{"worker": w, "answer": "x"})
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("answer = %d", resp.StatusCode)
	}
	resp.Body.Close()
	digests := func() [2]string {
		store, err := mgr.Store().Digest()
		if err != nil {
			t.Fatal(err)
		}
		model, err := mgr.sel.Digest()
		if err != nil {
			t.Fatal(err)
		}
		return [2]string{store, model}
	}
	before := digests()

	scores := func(spellings ...string) map[string]float64 {
		m := make(map[string]float64)
		for i, k := range spellings {
			m[k] = 0.1 + 0.4*float64(i)
		}
		return m
	}
	id := strconv.Itoa(w)
	twice := func(body string) json.RawMessage { return json.RawMessage(fmt.Sprintf(body, id, id)) }
	cases := []struct {
		name, path string
		body       any
		want       string // in the message; "bad worker id" when empty
	}{
		{"leading zero", fmt.Sprintf("/api/v1/tasks/%d/feedback", sub.TaskID), map[string]any{"scores": scores(id, "0"+id)}, ""},
		{"plus sign", fmt.Sprintf("/api/v1/tasks/%d/feedback", sub.TaskID), map[string]any{"scores": scores(id, "+"+id)}, ""},
		{"three spellings", fmt.Sprintf("/api/v1/tasks/%d/feedback", sub.TaskID), map[string]any{"scores": scores(id, "0"+id, "+"+id)}, ""},
		{"skills leading zero", "/api/v1/skills:feedback", map[string]any{"text": "index trees", "scores": scores("0" + id)}, ""},
		{"skills plus sign", "/api/v1/skills:feedback", map[string]any{"text": "index trees", "scores": scores(id, "+"+id)}, ""},
		{"skills negative zero", "/api/v1/skills:feedback", map[string]any{"text": "index trees", "scores": scores("-0")}, ""},
		{"repeated worker", fmt.Sprintf("/api/v1/tasks/%d/feedback", sub.TaskID), twice(`{"scores":{%q:4,%q:1}}`), "worker " + id + " scored twice"},
		{"skills repeated worker", "/api/v1/skills:feedback", twice(`{"text":"index trees","scores":{%q:4,%q:1}}`), "worker " + id + " scored twice"},
	}
	for _, c := range cases {
		resp := postJSON(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", c.name, resp.StatusCode)
		}
		if env := decode[ErrorEnvelope](t, resp); env.Error.Code != "bad_request" || !strings.Contains(env.Error.Message, cmp.Or(c.want, "bad worker id")) {
			t.Errorf("%s: envelope = %+v, want bad_request naming the worker id", c.name, env.Error)
		}
	}
	if after := digests(); after != before {
		t.Errorf("refused feedback moved the store or the model: digests %v -> %v", before, after)
	}
}

// TestServerHealthAndReadiness: /healthz always answers 200; /readyz
// and /api/* track the readiness gate.
func TestServerHealthAndReadiness(t *testing.T) {
	mgr, _ := managerFixture(t)
	srv := NewServer(mgr)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("healthz = %d", got)
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Errorf("readyz while ready = %d", got)
	}

	srv.SetReady(false)
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("healthz while not ready = %d, probes must stay green", got)
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("readyz while not ready = %d", got)
	}
	resp, err := http.Get(ts.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("api while not ready = %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}

	srv.SetReady(true)
	if got := get("/api/v1/stats"); got != http.StatusOK {
		t.Errorf("api after ready = %d", got)
	}
}

// TestServerLoadShedding: with a max-in-flight of 1 and one request
// parked in a handler, the next /api request is shed with 429 +
// Retry-After, health probes still answer, and the shed counter shows
// up in metrics.
func TestServerLoadShedding(t *testing.T) {
	mgr, _ := managerFixture(t)
	be := blockingEngine{entered: make(chan struct{}), release: make(chan struct{})}
	srv := newNode(t, TenantConfig{Manager: mgr, Query: be}, NodeConfig{Admission: AdmissionConfig{Min: 1, Max: 1}})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Post(ts.URL+"/api/v1/query", "application/json",
			strings.NewReader(`{"q":"SELECT CROWD FOR TASK 'x' LIMIT 1"}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-be.entered // the slot is now held

	resp, err := http.Get(ts.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("second request = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if got := func() int {
		r, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		return r.StatusCode
	}(); got != http.StatusOK {
		t.Errorf("healthz under full load = %d, probes must bypass shedding", got)
	}

	close(be.release)
	<-done
	resp2, err := http.Get(ts.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	snap := decode[MetricsSnapshot](t, resp2)
	if snap.Shed != 1 {
		t.Errorf("shed counter = %d, want 1", snap.Shed)
	}
}

// blockingEngine parks /api/v1/query until released, to hold the
// in-flight slot deterministically.
type blockingEngine struct {
	entered chan struct{}
	release chan struct{}
}

func (e blockingEngine) Execute(context.Context, string) (any, error) {
	e.entered <- struct{}{}
	<-e.release
	return map[string]string{"ok": "true"}, nil
}

// TestServerDurabilityMetrics: the durability section appears in
// /api/v1/metrics when a stats source is installed.
func TestServerDurabilityMetrics(t *testing.T) {
	mgr, _ := managerFixture(t)
	srv := newNode(t, TenantConfig{Manager: mgr}, NodeConfig{Durability: func() DurabilitySnapshot {
		return DurabilitySnapshot{Generation: 3, RecordsWritten: 42}
	}})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	snap := decode[MetricsSnapshot](t, resp)
	if snap.Durability == nil || snap.Durability.Generation != 3 || snap.Durability.RecordsWritten != 42 {
		t.Errorf("durability section = %+v", snap.Durability)
	}
}
