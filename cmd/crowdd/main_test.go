package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"crowdselect/internal/corpus"
	"crowdselect/internal/crowddb"
)

// testConfig is a small in-memory service; tests override fields.
func testConfig() daemonConfig {
	return daemonConfig{
		profile: "quora", scale: 0.02,
		k: 4, crowdK: 2, sweeps: 4,
		sync: crowddb.SyncAlways(),
	}
}

// durableDBs lists a built node's data directories, default tenant
// first.
func durableDBs(slices []*crowddb.Tenant) (dbs []*crowddb.DB) {
	for _, sl := range slices {
		if sl.DB != nil {
			dbs = append(dbs, sl.DB)
		}
	}
	return dbs
}

func TestBuildServiceServes(t *testing.T) {
	handler, slices, err := buildNode(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(durableDBs(slices)) != 0 {
		t.Fatal("in-memory config produced a durable DB")
	}
	if slices[0].Manager.Store().NumOnline() == 0 {
		t.Fatal("no workers online")
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/api/v1/tasks", "application/json",
		strings.NewReader(`{"text":"database index question","k":2}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	var sub struct {
		Workers []int  `json:"workers"`
		Model   string `json:"model"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	if len(sub.Workers) != 2 || sub.Model != "TDPM" {
		t.Errorf("submit = %+v", sub)
	}

	// The crowdql endpoint is wired up.
	resp, err = http.Post(srv.URL+"/api/v1/query", "application/json",
		strings.NewReader(`{"q":"SELECT CROWD FOR TASK 'another question' LIMIT 2"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d", resp.StatusCode)
	}
	var qres struct {
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&qres); err != nil {
		t.Fatal(err)
	}
	if len(qres.Rows) != 2 || len(qres.Columns) != 3 {
		t.Errorf("query result = %+v", qres)
	}
	// Parse errors map to 400.
	resp2, err := http.Post(srv.URL+"/api/v1/query", "application/json",
		strings.NewReader(`{"q":"EXPLODE"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad query status = %d", resp2.StatusCode)
	}

	// Probe endpoints.
	for path, want := range map[string]int{"/healthz": 200, "/readyz": 200} {
		r, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, r.StatusCode, want)
		}
	}
}

func TestBuildServiceFromDataFile(t *testing.T) {
	p := corpus.Quora().Scaled(0.02).WithSeed(3)
	d := corpus.MustGenerate(p)
	path := filepath.Join(t.TempDir(), "d.json")
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.profile, cfg.scale, cfg.data, cfg.sweeps = "", 0, path, 3
	if _, _, err := buildNode(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestBuildServicePersistsAcrossRestart: the durable path must restore
// tasks and model from -data-dir on a second boot instead of
// retraining, and keep serving mutations made before the restart.
func TestBuildServicePersistsAcrossRestart(t *testing.T) {
	cfg := testConfig()
	cfg.dataDir = t.TempDir()

	handler, slices, err := buildNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dbs := durableDBs(slices)
	if len(dbs) == 0 {
		t.Fatal("durable config produced no DB")
	}
	db := dbs[0]
	srv := httptest.NewServer(handler)
	resp, err := http.Post(srv.URL+"/api/v1/tasks", "application/json",
		strings.NewReader(`{"text":"durable question","k":2}`))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		TaskID int `json:"task_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	srv.Close()
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	handler2, slices2, err := buildNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer durableDBs(slices2)[0].Close()
	if slices2[0].Manager.Store().NumOnline() == 0 {
		t.Fatal("no workers online after restart")
	}
	srv2 := httptest.NewServer(handler2)
	defer srv2.Close()
	r, err := http.Get(srv2.URL + "/api/v1/tasks/" + jsonInt(sub.TaskID))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("task lost across restart: status %d", r.StatusCode)
	}
	// Durability counters surface in /api/v1/metrics after restore.
	mr, err := http.Get(srv2.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	var metrics struct {
		Durability *crowddb.DurabilitySnapshot `json:"durability"`
	}
	if err := json.NewDecoder(mr.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if metrics.Durability == nil || metrics.Durability.Generation == 0 {
		t.Errorf("durability metrics missing: %+v", metrics.Durability)
	}
}

func jsonInt(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

// TestServeGracefulShutdown: cancelling the serve context (the SIGINT/
// SIGTERM path) must let an in-flight request finish, then close the
// listener and return nil.
func TestServeGracefulShutdown(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-release
		io.WriteString(w, "drained")
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	drained := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- serve(ctx, ln, h, 5*time.Second, httpTimeouts{}, func() { close(drained) }) }()

	type result struct {
		body string
		err  error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/")
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		resc <- result{body: string(b), err: err}
	}()

	<-started
	cancel() // deliver the "signal" while the request is in flight
	release <- struct{}{}

	if res := <-resc; res.err != nil || res.body != "drained" {
		t.Fatalf("in-flight request = %+v, want drained", res)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v after clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after shutdown")
	}
	select {
	case <-drained:
	default:
		t.Error("onDrain hook never ran")
	}
	// The listener is closed: new connections are refused.
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}

// TestServeShutdownDeadline: a request that outlives the drain window
// must not wedge shutdown — serve force-closes and reports the
// deadline error.
func TestServeShutdownDeadline(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{}, 1)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-block
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- serve(ctx, ln, h, 50*time.Millisecond, httpTimeouts{}, nil) }()

	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("serve returned nil though the drain deadline was exceeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve hung past the drain deadline")
	}
}

// TestParseShardFlagsDefaults is the unsharded-boot regression: both
// shard flags default to "", and that must parse to the zero spec (a
// single-node deployment), not an error — a daemon started with no
// flags at all has to come up.
func TestParseShardFlagsDefaults(t *testing.T) {
	shard, peers, err := parseShardFlags("", "")
	if err != nil {
		t.Fatalf("default flags refused: %v", err)
	}
	if shard.Enabled() || len(peers) != 0 {
		t.Fatalf("default flags = %v peers %v, want unsharded", shard, peers)
	}
	if _, _, err := buildNode(testConfig()); err != nil {
		t.Fatalf("unsharded default config failed to build: %v", err)
	}

	shard, peers, err = parseShardFlags("1/2", " http://a, http://b ")
	if err != nil {
		t.Fatal(err)
	}
	if shard != (crowddb.ShardSpec{Index: 1, Count: 2}) || len(peers) != 2 {
		t.Fatalf("sharded flags = %v peers %v", shard, peers)
	}
	if _, _, err := parseShardFlags("1/2", "http://a"); err == nil {
		t.Error("peer/shard count mismatch accepted")
	}
	if _, _, err := parseShardFlags("bogus", ""); err == nil {
		t.Error("malformed shard spec accepted")
	}
}

// TestReplicaOfRequiresDataDir: a follower streams its primary's
// journal into a data directory, so -replica-of without -data-dir is
// refused before any tenant is built.
func TestReplicaOfRequiresDataDir(t *testing.T) {
	cfg := testConfig()
	cfg.replicaOf = "http://127.0.0.1:1"
	srv, slices, err := buildNode(cfg)
	if err == nil || err.Error() != "-replica-of requires -data-dir" {
		t.Fatalf("buildNode(-replica-of without -data-dir) = %v, want the refusal", err)
	}
	if srv != nil || len(slices) != 0 {
		t.Fatalf("refused build returned a server %v and %d slices", srv, len(slices))
	}
}

func TestBuildServiceErrors(t *testing.T) {
	cfg := testConfig()
	cfg.profile = "reddit"
	if _, _, err := buildNode(cfg); err == nil {
		t.Error("unknown profile accepted")
	}
	cfg = testConfig()
	cfg.profile, cfg.scale, cfg.data = "", 0, "/no/such/file.json"
	if _, _, err := buildNode(cfg); err == nil {
		t.Error("missing data file accepted")
	}
}
