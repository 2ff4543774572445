package crowddb

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestServerSelectionsEndpoint: POST /api/v1/selections ranks crowds
// without storing anything — the pure read path that stays alive in
// degraded mode.
func TestServerSelectionsEndpoint(t *testing.T) {
	ts, mgr := serverFixture(t)
	before := mgr.Store().NumTasks()

	resp := postJSON(t, ts.URL+"/api/v1/selections", map[string]any{
		"tasks": []map[string]any{
			{"text": "how do b+ trees differ from b trees", "k": 2},
			{"text": "which database index fits range queries", "k": 1},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("selections status = %d", resp.StatusCode)
	}
	sel := decode[SelectionsResponse](t, resp)
	if len(sel.Results) != 2 || sel.Model != "TDPM" {
		t.Fatalf("selections = %+v", sel)
	}
	if len(sel.Results[0].Workers) != 2 || len(sel.Results[1].Workers) != 1 {
		t.Fatalf("crowd sizes = %d, %d; want 2, 1", len(sel.Results[0].Workers), len(sel.Results[1].Workers))
	}
	if after := mgr.Store().NumTasks(); after != before {
		t.Fatalf("selections stored %d tasks; it must store none", after-before)
	}

	// Validation matches the batch endpoint.
	resp = postJSON(t, ts.URL+"/api/v1/selections", map[string]any{"tasks": []map[string]any{}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty selections batch = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestServerDegradedReadOnly: with the degraded check wired, mutations
// fail fast with the degraded_read_only code while selections and
// reads keep answering, and /readyz carries the mode detail.
func TestServerDegradedReadOnly(t *testing.T) {
	mgr, _ := managerFixture(t)
	srv := NewServer(mgr)
	var degraded atomic.Bool
	srv.SetDegradedCheck(degraded.Load)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	degraded.Store(true)
	// Mutations are refused before reaching any handler.
	resp := postJSON(t, ts.URL+"/api/v1/tasks", map[string]any{"text": "sealed", "k": 1})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mutation while degraded = %d, want 503", resp.StatusCode)
	}
	if env := decode[ErrorEnvelope](t, resp); env.Error.Code != "degraded_read_only" {
		t.Fatalf("error code = %q, want degraded_read_only", env.Error.Code)
	}
	// Selections still answer.
	resp = postJSON(t, ts.URL+"/api/v1/selections", map[string]any{
		"tasks": []map[string]any{{"text": "still ranking in degraded mode", "k": 2}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("selections while degraded = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
	// Plain reads still answer.
	r, err := http.Get(ts.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("stats while degraded = %d, want 200", r.StatusCode)
	}
	// /readyz stays ready (selections serve) but reports the mode.
	r, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("readyz while degraded = %d, want 200", r.StatusCode)
	}
	if body := decode[ReadyzResponse](t, r); body.Mode != "degraded_read_only" {
		t.Fatalf("readyz body = %+v, want mode detail", body)
	}

	degraded.Store(false)
	resp = postJSON(t, ts.URL+"/api/v1/tasks", map[string]any{"text": "unsealed again", "k": 1})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("mutation after heal = %d, want 201", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestServerBodyCap: POST bodies over the cap get 413 with the
// request_too_large code instead of a connection reset or a 400.
func TestServerBodyCap(t *testing.T) {
	mgr, _ := managerFixture(t)
	srv := NewServer(mgr)
	srv.SetMaxBodyBytes(256)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	big := `{"text": "` + strings.Repeat("x", 1024) + `", "k": 1}`
	resp, err := http.Post(ts.URL+"/api/v1/tasks", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", resp.StatusCode)
	}
	if env := decode[ErrorEnvelope](t, resp); env.Error.Code != "request_too_large" {
		t.Fatalf("error code = %q, want request_too_large", env.Error.Code)
	}
	// A body under the cap still works.
	resp = postJSON(t, ts.URL+"/api/v1/tasks", map[string]any{"text": "small enough", "k": 1})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("small body = %d, want 201", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestFleetControlBodiesAreCapped: the fleet class skips admission and
// budgets, not the body cap — a fence or lease body one byte over it is
// a 413 like any other POST, and an order that does not fit is not
// obeyed. Only the GET streams are uncapped.
func TestFleetControlBodiesAreCapped(t *testing.T) {
	mgr, _ := managerFixture(t)
	srv := NewServer(mgr)
	const maxBody = 256
	srv.SetMaxBodyBytes(maxBody)
	f := NewFence(nil)
	srv.SetFence(f)

	// pad closes the object head with a string field that brings the body
	// to one byte over the cap: a valid order the parser would obey.
	pad := func(head string) string {
		fill := maxBody + 1 - len(head+`,"pad":""}`)
		return head + `,"pad":"` + strings.Repeat("x", fill) + `"}`
	}
	bodies := map[string]string{
		"/api/v1/replication/fence": pad(`{"history":"` + f.History() + `","epoch":2`),
		"/api/v1/replication/lease": pad(`{"holder":"sup","ttl_ms":60000,"seal":true`),
	}
	for path, body := range bodies {
		if len(body) != maxBody+1 {
			t.Fatalf("%s: body of %d bytes, want %d", path, len(body), maxBody+1)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		var env ErrorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusRequestEntityTooLarge || env.Error.Code != "request_too_large" {
			t.Errorf("POST %s of %d bytes = %d %s, want 413 request_too_large", path, len(body), rec.Code, rec.Body)
		}
	}
	if st := f.Status(); st.Sealed || f.ObservedEpoch() != 1 {
		t.Errorf("an over-cap fence or lease order was obeyed: %+v", st)
	}
}

// stallEngine parks until the request context expires — the handler
// honoring its server-side deadline budget.
type stallEngine struct{}

func (stallEngine) Execute(ctx context.Context, q string) (any, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestServerDeadlineBudget: a handler that overruns the server-side
// budget gets 503 deadline_exceeded (the client is still there, so a
// retry is correct), and the overrun registers with the admission
// controller as an overload signal.
func TestServerDeadlineBudget(t *testing.T) {
	mgr, _ := managerFixture(t)
	srv := NewServer(mgr)
	srv.SetQueryEngine(stallEngine{})
	srv.SetAdmission(AdmissionConfig{Min: 1, Max: 8})
	srv.SetDeadlineBudgets(20*time.Millisecond, 20*time.Millisecond)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/api/v1/query", "application/json",
		strings.NewReader(`{"q":"SELECT CROWD FOR TASK 'x' LIMIT 1"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overrun status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("deadline_exceeded without Retry-After")
	}
	if env := decode[ErrorEnvelope](t, resp); env.Error.Code != "deadline_exceeded" {
		t.Fatalf("error code = %q, want deadline_exceeded", env.Error.Code)
	}

	r, err := http.Get(ts.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	snap := decode[MetricsSnapshot](t, r)
	if snap.DeadlineOverruns != 1 {
		t.Errorf("deadline overrun counter = %d, want 1", snap.DeadlineOverruns)
	}
	if snap.Admission == nil {
		t.Fatal("metrics missing the admission section")
	}
	if snap.Admission.DeadlineOverruns != 1 {
		t.Errorf("admission overruns = %d, want 1", snap.Admission.DeadlineOverruns)
	}
	// The AIMD controller shrank the limit below its ceiling.
	if snap.Admission.Limit >= 8 {
		t.Errorf("limit after overrun = %v, want < 8", snap.Admission.Limit)
	}
}

// TestServerMetricsAdmissionSection: the admission section appears
// once a limiter is installed, and shed requests split by class.
func TestServerMetricsAdmissionSection(t *testing.T) {
	mgr, _ := managerFixture(t)
	srv := NewServer(mgr)
	be := blockingEngine{entered: make(chan struct{}), release: make(chan struct{})}
	srv.SetQueryEngine(be)
	srv.SetAdmission(AdmissionConfig{Min: 1, Max: 1})
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
	<-be.entered

	// One shed read. (A mutation would still fit the reserve slot, so
	// only reads shed at this occupancy — the priority contract.)
	r, err := http.Get(ts.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("read at capacity = %d, want 429", r.StatusCode)
	}
	resp := postJSON(t, ts.URL+"/api/v1/tasks", map[string]any{"text": "reserve slot mutation", "k": 1})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("mutation at read capacity = %d, want 201 via the reserve", resp.StatusCode)
	}
	resp.Body.Close()

	close(be.release)
	<-done
	m, err := http.Get(ts.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	snap := decode[MetricsSnapshot](t, m)
	if snap.ShedReads != 1 || snap.ShedMutations != 0 {
		t.Errorf("shed split = reads %d, mutations %d; want 1, 0", snap.ShedReads, snap.ShedMutations)
	}
	if snap.Admission == nil || snap.Admission.MaxLimit != 1 || snap.Admission.ShedReads != 1 {
		t.Errorf("admission section = %+v", snap.Admission)
	}
}
