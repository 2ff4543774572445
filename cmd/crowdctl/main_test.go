package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crowdselect/internal/clock"
	"crowdselect/internal/core"
	"crowdselect/internal/corpus"
	"crowdselect/internal/crowdclient"
	"crowdselect/internal/crowddb"
	"crowdselect/internal/crowdql"
	"crowdselect/internal/eval"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	p := corpus.Quora().Scaled(0.02).WithSeed(5)
	d := corpus.MustGenerate(p)
	cfg := core.NewConfig(4)
	cfg.MaxIter = 4
	model, _, err := core.Train(eval.ResolvedTasks(d), len(d.Workers), d.Vocab.Size(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	store := crowddb.NewStore()
	for i := range d.Workers {
		if _, err := store.AddWorker(i, fmt.Sprintf("w%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	mgr, err := crowddb.NewManager(store, d.Vocab, core.NewConcurrentModel(model), 2)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := crowdql.NewEngine(mgr)
	if err != nil {
		t.Fatal(err)
	}
	server, err := crowddb.New(crowddb.NodeConfig{Tenants: []crowddb.TenantConfig{{
		Name: crowddb.DefaultTenant, Manager: mgr, Query: crowdql.HTTPAdapter{Engine: engine},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)
	return srv
}

// testClient retries without real sleeping so tests stay fast.
func testClient(baseURL string) *crowdclient.Client {
	return crowdclient.New(baseURL, crowdclient.Options{
		Timeout: 5 * time.Second,
		Retries: 3,
		Backoff: time.Millisecond,
		Clock:   new(clock.Manual),
	})
}

func TestParseScores(t *testing.T) {
	got, err := parseScores("2=4, 7=1.5")
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]float64{2: 4, 7: 1.5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseScores = %v", got)
	}
	if got, err := parseScores(""); err != nil || len(got) != 0 {
		t.Errorf("empty = %v, %v", got, err)
	}
	for _, bad := range []string{"x=1", "2=y", "nope", "2=4,2=1"} {
		if _, err := parseScores(bad); err == nil {
			t.Errorf("parseScores(%q) accepted", bad)
		}
	}
}

func TestEndToEndCLI(t *testing.T) {
	srv := testServer(t)
	var out bytes.Buffer

	// Submit.
	if err := run(testClient(srv.URL), []string{"submit", "-text", "database index question", "-k", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "task_id") || !strings.Contains(out.String(), "TDPM") {
		t.Fatalf("submit output: %s", out.String())
	}
	// Pull the selected workers out of the response.
	var workers []int
	for _, line := range strings.Split(out.String(), "\n") {
		line = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(line), ","))
		var w int
		if _, err := fmt.Sscanf(line, "%d", &w); err == nil {
			workers = append(workers, w)
		}
	}
	if len(workers) < 2 {
		t.Fatalf("could not parse workers from: %s", out.String())
	}
	w0, w1 := workers[len(workers)-2], workers[len(workers)-1]

	// Answer (both assigned workers) and feedback.
	for _, w := range []int{w0, w1} {
		out.Reset()
		if err := run(testClient(srv.URL), []string{"answer", "-task", "0", "-worker", fmt.Sprint(w), "-text", "hi"}, &out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "ok") {
			t.Errorf("answer output: %s", out.String())
		}
	}
	out.Reset()
	if err := run(testClient(srv.URL), []string{"feedback", "-task", "0", "-scores", fmt.Sprintf("%d=4,%d=1", w0, w1)}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"status": 2`) {
		t.Errorf("feedback output: %s", out.String())
	}

	// Batched submit.
	out.Reset()
	if err := run(testClient(srv.URL), []string{"batch", "-k", "2", "sql join question", "b tree question"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "task_id"); got != 2 {
		t.Errorf("batch output has %d results, want 2: %s", got, out.String())
	}

	// Reads.
	out.Reset()
	if err := run(testClient(srv.URL), []string{"task", "-id", "0"}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(testClient(srv.URL), []string{"worker", "-id", "0"}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(testClient(srv.URL), []string{"presence", "-id", "0", "-online=false"}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(testClient(srv.URL), []string{"stats"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"resolved": 1`) {
		t.Errorf("stats output: %s", out.String())
	}

	// crowdql through the CLI.
	out.Reset()
	if err := run(testClient(srv.URL), []string{"query", "-q", "SELECT WORKERS WHERE resolved >= 1 LIMIT 5"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "columns") {
		t.Errorf("query output: %s", out.String())
	}
	out.Reset()
	if err := run(testClient(srv.URL), []string{"query"}, &out); err == nil {
		t.Error("query without -q accepted")
	}
	if err := run(testClient(srv.URL), []string{"query", "-q", "EXPLODE"}, &out); err == nil {
		t.Error("bad query accepted")
	}
}

func TestCLIErrors(t *testing.T) {
	srv := testServer(t)
	var out bytes.Buffer
	cases := [][]string{
		{},
		{"unknown"},
		{"submit"},               // missing -text
		{"batch"},                // no task texts
		{"answer", "-task", "0"}, // missing -worker
		{"feedback"},             // missing -task
		{"feedback", "-task", "0", "-scores", "bad"},
		{"task", "-id", "999"}, // 404 from server
	}
	for _, args := range cases {
		out.Reset()
		if err := run(testClient(srv.URL), args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}

	// A missing -id is a usage error caught before any request: without
	// the check the flag's default sends one for id -1 (presence a
	// mutation).
	var hits atomic.Int64
	counting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.NotFound(w, r)
	}))
	defer counting.Close()
	for _, args := range [][]string{{"task"}, {"worker"}, {"presence"}} {
		out.Reset()
		if err := run(testClient(counting.URL), args, &out); err == nil || !strings.Contains(err.Error(), "-id") {
			t.Errorf("args %v: err = %v, want a usage error naming -id", args, err)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Errorf("the server saw %d requests from commands missing -id", n)
	}
}

// cannedIntegrityNode fakes just enough of a crowdd node — /readyz
// and /api/v1/digest — for the verify sweep to probe.
func cannedIntegrityNode(t *testing.T, role string, seq int64, digest string, diverged, scrubFailed bool) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(crowddb.ReadyzResponse{
			Status: "ready", Role: role,
			Replication: &crowddb.ReplicationStatus{Role: role, AppliedSeq: seq, Diverged: diverged},
			Integrity:   &crowddb.IntegritySnapshot{ScrubFailed: scrubFailed},
		})
	})
	mux.HandleFunc("/api/v1/digest", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(crowddb.DigestCut{Tenant: "default", Seq: seq, Digest: digest})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestVerifySweep(t *testing.T) {
	primary := cannedIntegrityNode(t, "primary", 7, "aaa", false, false)
	follower := cannedIntegrityNode(t, "replica", 7, "aaa", false, false)
	lagging := cannedIntegrityNode(t, "replica", 3, "bbb", false, false)

	// Healthy fleet: same digest at the same position, a lagging node
	// at a different position is fine.
	var out bytes.Buffer
	nodes := primary.URL + "," + follower.URL + "," + lagging.URL
	if err := run(testClient(primary.URL), []string{"verify", "-nodes", nodes}, &out); err != nil {
		t.Fatalf("healthy sweep failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), `"ok": true`) {
		t.Fatalf("healthy sweep report: %s", out.String())
	}

	// Digest disagreement at the same applied position fails the sweep.
	rotten := cannedIntegrityNode(t, "replica", 7, "zzz", false, false)
	out.Reset()
	err := run(testClient(primary.URL), []string{"verify", "-nodes", primary.URL + "," + rotten.URL}, &out)
	if err == nil || !strings.Contains(err.Error(), "disagrees") {
		t.Fatalf("disagreeing sweep err = %v", err)
	}
	if !strings.Contains(out.String(), `"ok": false`) {
		t.Fatalf("disagreeing sweep report: %s", out.String())
	}

	// A self-reported diverged or scrub-failed node fails the sweep
	// even with a matching digest.
	diverged := cannedIntegrityNode(t, "replica", 7, "aaa", true, false)
	if err := run(testClient(primary.URL), []string{"verify", "-nodes", primary.URL + "," + diverged.URL}, new(bytes.Buffer)); err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("diverged sweep err = %v", err)
	}
	scarred := cannedIntegrityNode(t, "replica", 7, "aaa", false, true)
	if err := run(testClient(primary.URL), []string{"verify", "-nodes", primary.URL + "," + scarred.URL}, new(bytes.Buffer)); err == nil || !strings.Contains(err.Error(), "corruption") {
		t.Fatalf("scrub-failed sweep err = %v", err)
	}

	// An unreachable node fails the sweep; a missing -nodes is usage.
	dead := cannedIntegrityNode(t, "replica", 7, "aaa", false, false)
	deadURL := dead.URL
	dead.Close()
	if err := run(testClient(primary.URL), []string{"verify", "-nodes", primary.URL + "," + deadURL}, new(bytes.Buffer)); err == nil {
		t.Fatal("sweep with an unreachable node succeeded")
	}
	if err := run(testClient(primary.URL), []string{"verify"}, new(bytes.Buffer)); err == nil {
		t.Fatal("verify without -nodes succeeded")
	}
}
