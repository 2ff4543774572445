package crowddb

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// TestUnversionedPathIsNotFound: the unversioned /api/* aliases of
// earlier releases are gone. GET /api/stats falls through to the
// catch-all's enveloped 404, and — like any path no route claims — it
// is counted under one collapsed label, not a series of its own.
func TestUnversionedPathIsNotFound(t *testing.T) {
	hts, _ := serverFixture(t)

	resp, err := http.Get(hts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /api/stats = %d, want 404", resp.StatusCode)
	}
	if env := decode[ErrorEnvelope](t, resp); env.Error.Code != "not_found" {
		t.Errorf("GET /api/stats code = %q, want not_found", env.Error.Code)
	}
	resp, err = http.Get(hts.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	snap := decode[MetricsSnapshot](t, resp)
	if got := snap.Endpoints["GET {unrouted}"].Count; got != 1 {
		t.Errorf("unrouted series count = %d, want 1", got)
	}
	for label := range snap.Endpoints {
		if strings.Contains(label, "/api/stats") {
			t.Errorf("unrouted path minted its own series: %q", label)
		}
	}
}

// TestErrorEnvelope: every non-2xx response carries the one error
// envelope with a stable code matching its status.
func TestErrorEnvelope(t *testing.T) {
	mgr, _ := managerFixture(t)
	srv := NewServer(mgr)
	hts := httptest.NewServer(srv)
	t.Cleanup(hts.Close)
	ts := hts.URL

	cases := []struct {
		name     string
		do       func() *http.Response
		status   int
		wantCode string
		allow    string // the Allow header a 405 must carry
	}{
		{"empty text", func() *http.Response {
			return postJSON(t, ts+"/api/v1/tasks", map[string]any{"text": " "})
		}, http.StatusBadRequest, "bad_request", ""},
		{"missing task", func() *http.Response {
			resp, err := http.Get(ts + "/api/v1/tasks/999")
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusNotFound, "not_found", ""},
		{"wrong method", func() *http.Response {
			resp, err := http.Get(ts + "/api/v1/tasks")
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusMethodNotAllowed, "method_not_allowed", "POST"},
		{"wrong method on an {id} route", func() *http.Response {
			return postJSON(t, ts+"/api/v1/tasks/5", map[string]any{})
		}, http.StatusMethodNotAllowed, "method_not_allowed", "GET"},
		{"wrong method below an {id}", func() *http.Response {
			resp, err := http.Get(ts + "/api/v1/t/default/tasks/5/answers")
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusMethodNotAllowed, "method_not_allowed", "POST"},
		{"wrong method on a two-method route", func() *http.Response {
			req, err := http.NewRequest(http.MethodDelete, ts+"/api/v1/topology", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusMethodNotAllowed, "method_not_allowed", "GET, POST"},
		{"query unconfigured", func() *http.Response {
			return postJSON(t, ts+"/api/v1/query", map[string]any{"q": "SELECT X"})
		}, http.StatusNotImplemented, "not_implemented", ""},
		{"empty batch", func() *http.Response {
			return postJSON(t, ts+"/api/v1/tasks:batch", map[string]any{"tasks": []any{}})
		}, http.StatusBadRequest, "bad_request", ""},
		{"unrouted path", func() *http.Response {
			resp, err := http.Get(ts + "/api/v1/nonexistent")
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusNotFound, "not_found", ""},
		{"root path", func() *http.Response {
			resp, err := http.Get(ts + "/completely/elsewhere")
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusNotFound, "not_found", ""},
		{"unknown tenant", func() *http.Response {
			resp, err := http.Get(ts + "/api/v1/t/nosuch/stats")
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusNotFound, "unknown_tenant", ""},
	}
	for _, c := range cases {
		resp := c.do()
		if resp.StatusCode != c.status {
			t.Errorf("%s: status = %d, want %d", c.name, resp.StatusCode, c.status)
			resp.Body.Close()
			continue
		}
		// Every non-2xx is the JSON envelope, declared as such —
		// clients dispatch on the code without sniffing bodies.
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type = %q, want application/json", c.name, ct)
		}
		// RFC 9110 §15.5.6: a 405 names the methods the resource allows.
		if got := resp.Header.Get("Allow"); got != c.allow {
			t.Errorf("%s: Allow = %q, want %q", c.name, got, c.allow)
		}
		env := decode[ErrorEnvelope](t, resp)
		if env.Error.Code != c.wantCode {
			t.Errorf("%s: code = %q, want %q", c.name, env.Error.Code, c.wantCode)
		}
		if env.Error.Message == "" {
			t.Errorf("%s: empty error message", c.name)
		}
	}

	// Not-ready responses use the envelope too.
	srv.SetReady(false)
	resp, err := http.Get(ts + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("not-ready status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("not-ready Content-Type = %q, want application/json", ct)
	}
	if env := decode[ErrorEnvelope](t, resp); env.Error.Code != "unavailable" {
		t.Errorf("not-ready code = %q", env.Error.Code)
	}
}

// TestBatchEndpoint: POST /api/v1/tasks:batch serves N selections in
// one round trip, element-wise identical to N sequential submissions
// against an identical server.
func TestBatchEndpoint(t *testing.T) {
	mgrBatch, d := managerFixture(t)
	mgrSeq, _ := managerFixture(t)
	htsBatch := httptest.NewServer(NewServer(mgrBatch))
	htsSeq := httptest.NewServer(NewServer(mgrSeq))
	t.Cleanup(htsBatch.Close)
	t.Cleanup(htsSeq.Close)
	tsBatch := htsBatch.URL
	tsSeq := htsSeq.URL

	texts := []string{
		strings.Join(d.Tasks[0].Tokens, " "),
		strings.Join(d.Tasks[1].Tokens, " "),
		strings.Join(d.Tasks[2].Tokens, " "),
	}
	var tasks []map[string]any
	for _, text := range texts {
		tasks = append(tasks, map[string]any{"text": text, "k": 2})
	}
	resp := postJSON(t, tsBatch+"/api/v1/tasks:batch", map[string]any{"tasks": tasks})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	batch := decode[BatchSubmitResponse](t, resp)
	if len(batch.Results) != len(texts) {
		t.Fatalf("batch returned %d results", len(batch.Results))
	}
	for i, text := range texts {
		resp := postJSON(t, tsSeq+"/api/v1/tasks", map[string]any{"text": text, "k": 2})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("sequential status = %d", resp.StatusCode)
		}
		seq := decode[SubmitResponse](t, resp)
		got := batch.Results[i]
		if got.TaskID != seq.TaskID || got.Model != seq.Model {
			t.Errorf("element %d: %+v vs sequential %+v", i, got, seq)
		}
		if len(got.Workers) != len(seq.Workers) {
			t.Fatalf("element %d: worker counts differ: %v vs %v", i, got.Workers, seq.Workers)
		}
		for j := range got.Workers {
			if got.Workers[j] != seq.Workers[j] {
				t.Errorf("element %d: workers %v vs sequential %v", i, got.Workers, seq.Workers)
				break
			}
		}
	}

	// Per-element validation failures identify the offending index.
	resp = postJSON(t, tsBatch+"/api/v1/tasks:batch", map[string]any{
		"tasks": []map[string]any{{"text": "fine", "k": 1}, {"text": "  "}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("blank element status = %d", resp.StatusCode)
	}
	if env := decode[ErrorEnvelope](t, resp); !strings.Contains(env.Error.Message, "index 1") {
		t.Errorf("blank element message = %q", env.Error.Message)
	}

	// The batch cap is enforced.
	over := make([]map[string]any, maxBatchTasks+1)
	for i := range over {
		over[i] = map[string]any{"text": "x", "k": 1}
	}
	resp = postJSON(t, tsBatch+"/api/v1/tasks:batch", map[string]any{"tasks": over})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("over-cap status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestSelectionsRefuseWorkers: a pure selection ranks its crowd, so a
// text task that names preassigned workers is a 400 naming its index on
// every text form of POST /api/v1/selections, not a ranked crowd the
// client did not ask for; tasks:batch still assigns them.
func TestSelectionsRefuseWorkers(t *testing.T) {
	ts, _ := serverFixture(t)
	tasks := []map[string]any{
		{"text": "how do b+ trees differ from b trees", "k": 2},
		{"text": "which database index fits range queries", "k": 2, "workers": []int{1, 0}},
	}
	for _, extra := range []map[string]any{{}, {"include_scores": true}, {"include_scores": true, "include_categories": true}} {
		body := map[string]any{"tasks": tasks}
		for k, v := range extra {
			body[k] = v
		}
		resp := postJSON(t, ts.URL+"/api/v1/selections", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%v: status = %d, want 400", extra, resp.StatusCode)
		}
		if env := decode[ErrorEnvelope](t, resp); env.Error.Code != "bad_request" || !strings.Contains(env.Error.Message, "index 1") {
			t.Errorf("%v: envelope = %+v, want bad_request naming index 1", extra, env.Error)
		}
	}
	resp := postJSON(t, ts.URL+"/api/v1/tasks:batch", map[string]any{"tasks": tasks})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("tasks:batch with preassigned workers = %d, want 201", resp.StatusCode)
	}
	if got := decode[BatchSubmitResponse](t, resp).Results[1].Workers; !reflect.DeepEqual(got, []int{1, 0}) {
		t.Errorf("tasks:batch assigned %v, want the preassigned [1 0]", got)
	}
}
