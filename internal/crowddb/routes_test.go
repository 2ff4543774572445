package crowddb

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// TestGateMatrixByClass is the contract a route's class makes: one
// route of each class against every state ServeHTTP gates on. A
// reviewer who reads a row's class in the route table reads its column
// here. A cell is the status and envelope code the gate answers; a
// class's "served" status means the request reached its handler.
func TestGateMatrixByClass(t *testing.T) {
	mgr, _ := managerFixture(t)

	type probe struct {
		class        routeClass
		method, path string
		body         string
		served       int
	}
	probes := []probe{
		{classProbe, "GET", "/healthz", "", 200},
		{classFleet, "GET", "/api/v1/backup", "", 200},
		{classAdmin, "POST", "/api/v1/topology", `{"epoch":1,"count":1,"shards":[{"index":0,"url":"http://shard0"}]}`, 200},
		{classQuery, "POST", "/api/v1/query", `{"q":"SELECT 1"}`, 200},
		{classRead, "POST", "/api/v1/selections", `{"tasks":[{"text":"index trees","k":2}]}`, 200},
		{classMutation, "POST", "/api/v1/tasks", `{"text":"index trees","k":2}`, 201},
	}
	classes := make(map[routeClass]bool)
	for _, p := range probes {
		if rt, _ := matchRoute(p.path); rt == nil || rt.class != p.class {
			t.Fatalf("%s is not a route of class %d: %+v", p.path, p.class, rt)
		}
		classes[p.class] = true
	}
	for _, rt := range routes {
		if !classes[rt.class] {
			t.Fatalf("class %d of %s has no column in this matrix", rt.class, rt.path)
		}
	}

	type cell struct {
		status int
		code   string
	}
	served := cell{}
	fenced := cell{http.StatusConflict, "fenced"}
	notPrimary := cell{http.StatusMisdirectedRequest, "not_primary"}
	unready := cell{http.StatusServiceUnavailable, "unavailable"}
	full := cell{http.StatusTooManyRequests, "over_capacity"}
	overQuota := cell{http.StatusTooManyRequests, "tenant_quota_exceeded"}
	seal := func(t *testing.T, c *NodeConfig) {
		f := NewFence(nil)
		if !f.Observe(f.History(), 2, "http://new-primary") || !f.SealedByEpoch() {
			t.Fatal("fence did not seal")
		}
		c.Fence = f
	}
	replica := func(c *NodeConfig) {
		c.Role = RoleReplica
		c.Replication = func() ReplicationStatus { return ReplicationStatus{Primary: "http://primary"} }
		c.Promoter = func(context.Context) error { return nil }
	}
	nothing := func(*testing.T, *NodeConfig) {}

	states := []struct {
		name string
		// node describes the node, whose Tenants[0] is the default
		// tenant; live then moves the built server into the state.
		node func(*testing.T, *NodeConfig)
		live func(*testing.T, *Server)
		// want is indexed like probes: probe, fleet, admin, query, read,
		// mutation.
		want [6]cell
	}{
		{"baseline", nothing, nil,
			[6]cell{served, served, served, served, served, served}},
		{"not ready", nothing, func(_ *testing.T, s *Server) { s.SetReady(false) },
			[6]cell{served, unready, unready, unready, unready, unready}},
		{"epoch-sealed", seal, nil,
			[6]cell{served, served, served, fenced, served, fenced}},
		{"replica", func(_ *testing.T, c *NodeConfig) { replica(c) }, nil,
			[6]cell{served, served, served, notPrimary, served, notPrimary}},
		{"epoch-sealed replica", func(t *testing.T, c *NodeConfig) { seal(t, c); replica(c) }, nil,
			[6]cell{served, served, served, fenced, served, fenced}},
		{"degraded tenant", func(_ *testing.T, c *NodeConfig) { c.Tenants[0].Degraded = func() bool { return true } }, nil,
			[6]cell{served, served, served, served, served, {http.StatusServiceUnavailable, "degraded_read_only"}}},
		{"admission full", func(_ *testing.T, c *NodeConfig) { c.Admission = AdmissionConfig{Min: 1, Max: 1} },
			func(_ *testing.T, s *Server) {
				for ok := true; ok; ok, _ = s.adm.acquire(true) {
				}
			}, [6]cell{served, served, full, full, full, full}},
		{"tenant over quota", func(_ *testing.T, c *NodeConfig) { c.Tenants[0].MaxInflight = 1 },
			func(t *testing.T, s *Server) {
				if !s.tenants[DefaultTenant].admit() {
					t.Fatal("could not fill the default tenant's quota")
				}
			}, [6]cell{served, served, overQuota, overQuota, overQuota, overQuota}},
		{"no fleet token", func(_ *testing.T, c *NodeConfig) { c.FleetToken = "s3cret" }, nil,
			[6]cell{served, {http.StatusForbidden, "forbidden"}, served, served, served, served}},
	}
	for _, st := range states {
		t.Run(st.name, func(t *testing.T) {
			cfg := NodeConfig{Tenants: []TenantConfig{{
				Name: DefaultTenant, Manager: mgr, Query: fixedEngine{},
				Backup: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
					writeJSON(w, http.StatusOK, "archive")
				}),
			}}}
			st.node(t, &cfg)
			srv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if st.live != nil {
				st.live(t, srv)
			}
			for i, p := range probes {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(p.method, p.path, strings.NewReader(p.body)))
				want := st.want[i]
				if want == served {
					if rec.Code != p.served {
						t.Errorf("%s %s = %d (%s), want it served with %d", p.method, p.path, rec.Code, rec.Body, p.served)
					}
					continue
				}
				var env ErrorEnvelope
				if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
					t.Errorf("%s %s: body %q is not the envelope: %v", p.method, p.path, rec.Body, err)
				}
				if rec.Code != want.status || env.Error.Code != want.code {
					t.Errorf("%s %s = %d %q, want %d %q", p.method, p.path, rec.Code, env.Error.Code, want.status, want.code)
				}
				// Both refusals that a client can act on by going elsewhere
				// say where.
				if want == notPrimary || want == fenced {
					if got := rec.Header().Get("X-Crowdd-Primary"); got == "" {
						t.Errorf("%s %s: %d without X-Crowdd-Primary", p.method, p.path, rec.Code)
					}
				}
			}
		})
	}
}

// TestWrongShardGetWorker: on a sharded fleet the row's worker key
// gates GET /api/v1/workers/{id} like presence. A non-owner never sees
// the worker's presence flips, so it refuses with the 421 and the owner
// hint instead of answering a bit frozen at its boot value; the owner
// answers the bit it was set to.
func TestWrongShardGetWorker(t *testing.T) {
	var nodes [2]*httptest.Server
	for i := range nodes {
		mgr, _ := managerFixture(t)
		mgr.SetShard(ShardSpec{Index: i, Count: 2})
		nodes[i] = httptest.NewServer(NewServer(mgr))
		t.Cleanup(nodes[i].Close)
	}
	id := 0
	for ShardOfWorker(id, 2) != 1 {
		id++
	}
	worker := "/api/v1/workers/" + strconv.Itoa(id)
	if resp := postJSON(t, nodes[1].URL+worker+"/presence", map[string]any{"online": false}); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("owner presence flip: %d", resp.StatusCode)
	}

	resp, err := http.Get(nodes[0].URL + worker)
	if err != nil {
		t.Fatal(err)
	}
	if owner := resp.Header.Get("X-Crowdd-Shard-Owner"); resp.StatusCode != http.StatusMisdirectedRequest || owner != "1" {
		t.Errorf("non-owner GET %s: %d with owner hint %q, want 421 naming shard 1", worker, resp.StatusCode, owner)
	}
	if env := decode[ErrorEnvelope](t, resp); env.Error.Code != "wrong_shard" {
		t.Errorf("non-owner envelope code %q, want %q", env.Error.Code, "wrong_shard")
	}

	resp, err = http.Get(nodes[1].URL + worker)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner GET %s: %d", worker, resp.StatusCode)
	}
	if w := decode[Worker](t, resp); w.ID != id || w.Online {
		t.Errorf("owner answered %+v, want worker %d offline", w, id)
	}
}
