package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crowdselect/internal/crowddb"
)

func TestParseTenantsFlag(t *testing.T) {
	got, err := parseTenantsFlag(" acme, globex ")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "acme" || got[1] != "globex" {
		t.Fatalf("parseTenantsFlag = %v", got)
	}
	if got, err := parseTenantsFlag(""); err != nil || got != nil {
		t.Fatalf("empty flag = (%v, %v), want (nil, nil)", got, err)
	}
	// Trailing commas are tolerated, not an error.
	if got, err := parseTenantsFlag("acme,"); err != nil || len(got) != 1 || got[0] != "acme" {
		t.Fatalf(`parseTenantsFlag("acme,") = (%v, %v)`, got, err)
	}
	for _, bad := range []string{"UPPER", "has space", "default", "acme,acme", "-dash"} {
		if _, err := parseTenantsFlag(bad); err == nil {
			t.Errorf("parseTenantsFlag(%q) accepted", bad)
		}
	}
}

// TestBuildServiceTenants: -tenants boots named crowds next to the
// default one, each with its own task id space and quota, all behind
// one handler.
func TestBuildServiceTenants(t *testing.T) {
	cfg := testConfig()
	cfg.tenants = []string{"acme"}
	handler, dbs, _, err := buildService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(dbs) != 0 {
		t.Fatal("in-memory config produced durable DBs")
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()

	submit := func(path, text string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json",
			strings.NewReader(`{"text":"`+text+`","k":2}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %s status = %d", path, resp.StatusCode)
		}
		var sub struct {
			TaskID int `json:"task_id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatal(err)
		}
		return sub.TaskID
	}

	defID := submit("/api/v1/tasks", "default crowd question")
	acmeID := submit("/api/v1/t/acme/tasks", "acme crowd question")
	if defID != acmeID {
		t.Fatalf("fresh tenants should start the same id space: default %d, acme %d", defID, acmeID)
	}

	// The default task does not exist in acme's namespace with the
	// default's text, and vice versa: distinct stores.
	var gotText = func(path string) string {
		t.Helper()
		r, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, r.StatusCode)
		}
		var rec struct {
			Text string `json:"text"`
		}
		if err := json.NewDecoder(r.Body).Decode(&rec); err != nil {
			t.Fatal(err)
		}
		return rec.Text
	}
	if got := gotText("/api/v1/tasks/" + jsonInt(defID)); got != "default crowd question" {
		t.Fatalf("default task text = %q", got)
	}
	if got := gotText("/api/v1/t/acme/tasks/" + jsonInt(acmeID)); got != "acme crowd question" {
		t.Fatalf("acme task text = %q", got)
	}

	// Unknown tenants refuse with the typed envelope.
	r, err := http.Get(srv.URL + "/api/v1/t/nosuch/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant status = %d", r.StatusCode)
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(r.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "unknown_tenant" {
		t.Fatalf("unknown tenant code = %q", env.Error.Code)
	}
}

// TestBuildServiceTenantsDurable: named tenants journal under
// <data-dir>/tenants/<name> and restore across a restart exactly like
// the default tenant does at the directory root.
func TestBuildServiceTenantsDurable(t *testing.T) {
	cfg := testConfig()
	cfg.dataDir = t.TempDir()
	cfg.tenants = []string{"acme"}

	handler, dbs, _, err := buildService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(dbs) != 2 {
		t.Fatalf("durable two-tenant config produced %d DBs, want 2", len(dbs))
	}
	srv := httptest.NewServer(handler)
	resp, err := http.Post(srv.URL+"/api/v1/t/acme/tasks", "application/json",
		strings.NewReader(`{"text":"durable acme question","k":2}`))
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
	for _, db := range dbs {
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(cfg.dataDir, "tenants", "acme")); err != nil {
		t.Fatalf("acme tenant directory missing: %v", err)
	}

	handler2, dbs2, _, err := buildService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, db := range dbs2 {
			db.Close()
		}
	}()
	srv2 := httptest.NewServer(handler2)
	defer srv2.Close()
	r, err := http.Get(srv2.URL + "/api/v1/t/acme/tasks/" + jsonInt(sub.TaskID))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("acme task lost across restart: status %d", r.StatusCode)
	}
	var rec struct {
		Text string `json:"text"`
	}
	if err := json.NewDecoder(r.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.Text != "durable acme question" {
		t.Fatalf("restored acme task text = %q", rec.Text)
	}
}

// TestBuildServiceTenantsDigestAcrossRestart: a restart must rebuild
// every tenant's slice to the state it journaled — same seq, same
// model, store and combined digest (DESIGN §14, live == replayed). The
// DBs are closed without a compaction, so the second boot replays each
// journal; a slice builder that replayed before stamping the shard
// identity (task-id stride, ownership filter) or the tenant name would
// come back with a different digest or refuse its own records.
func TestBuildServiceTenantsDigestAcrossRestart(t *testing.T) {
	for name, shard := range map[string]crowddb.ShardSpec{"unsharded": {}, "shard-1-of-2": {Index: 1, Count: 2}} {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			cfg.dataDir = t.TempDir()
			cfg.tenants = []string{"acme"}
			cfg.shard = shard
			prefixes := []string{"/api/v1", "/api/v1/t/acme"}

			boot := func() (*httptest.Server, func()) {
				t.Helper()
				handler, dbs, _, err := buildService(cfg)
				if err != nil {
					t.Fatal(err)
				}
				srv := httptest.NewServer(handler)
				return srv, func() {
					srv.Close()
					for _, db := range dbs {
						if err := db.Close(); err != nil {
							t.Error(err)
						}
					}
				}
			}
			post := func(url, body string, want int, into any) {
				t.Helper()
				resp, err := http.Post(url, "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode != want {
					t.Fatalf("POST %s = %d, want %d", url, resp.StatusCode, want)
				}
				if into != nil {
					if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
						t.Fatal(err)
					}
				}
			}
			digest := func(base, prefix string) string {
				t.Helper()
				resp, err := http.Get(base + prefix + "/digest")
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				b, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("GET %s/digest = %d: %s", prefix, resp.StatusCode, b)
				}
				return string(b)
			}

			srv, shutdown := boot()
			before := make(map[string]string)
			for i, prefix := range prefixes {
				var sub struct {
					TaskID  int   `json:"task_id"`
					Workers []int `json:"workers"`
				}
				post(srv.URL+prefix+"/tasks", `{"text":"durable index question","k":2}`, http.StatusCreated, &sub)
				scores := make(map[string]float64)
				for _, w := range sub.Workers {
					post(srv.URL+prefix+"/tasks/"+jsonInt(sub.TaskID)+"/answers",
						`{"worker":`+jsonInt(w)+`,"answer":"x"}`, http.StatusNoContent, nil)
					scores[jsonInt(w)] = float64(3 + i)
				}
				fb, _ := json.Marshal(map[string]any{"scores": scores})
				post(srv.URL+prefix+"/tasks/"+jsonInt(sub.TaskID)+"/feedback", string(fb), http.StatusOK, nil)
				before[prefix] = digest(srv.URL, prefix)
			}
			if before[prefixes[0]] == before[prefixes[1]] {
				t.Fatalf("default and acme digests are equal (%s): the cut must bind the tenant", before[prefixes[0]])
			}
			shutdown()

			srv2, shutdown2 := boot()
			defer shutdown2()
			for _, prefix := range prefixes {
				if after := digest(srv2.URL, prefix); after != before[prefix] {
					t.Errorf("%s digest moved across restart:\nbefore: %safter:  %s", prefix, before[prefix], after)
				}
			}
		})
	}
}

// TestBootGateEnvelope: before the real server is installed, the boot
// gate's 503 is the standard JSON error envelope with Retry-After —
// load balancers and crowdclient dispatch on it like any other
// refusal — while /healthz answers 200.
func TestBootGateEnvelope(t *testing.T) {
	g := &bootGate{}
	srv := httptest.NewServer(g)
	defer srv.Close()

	r, err := http.Get(srv.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("boot gate status = %d, want 503", r.StatusCode)
	}
	if ct := r.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("boot gate Content-Type = %q, want application/json", ct)
	}
	if ra := r.Header.Get("Retry-After"); ra == "" {
		t.Error("boot gate 503 missing Retry-After")
	}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(r.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "unavailable" || env.Error.Message == "" {
		t.Errorf("boot gate envelope = %+v", env)
	}

	h, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h.Body.Close()
	if h.StatusCode != http.StatusOK {
		t.Errorf("boot gate /healthz = %d, want 200", h.StatusCode)
	}
}
