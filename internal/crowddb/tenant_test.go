package crowddb

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"crowdselect/internal/clock"
	"crowdselect/internal/core"
	"crowdselect/internal/corpus"
)

func TestValidTenantName(t *testing.T) {
	valid := []string{"a", "acme", "acme-2", "a_b", "0day", strings.Repeat("x", 32)}
	for _, n := range valid {
		if !ValidTenantName(n) {
			t.Errorf("ValidTenantName(%q) = false", n)
		}
	}
	invalid := []string{"", "-a", "_a", "Acme", "a.b", "a/b", "a b", strings.Repeat("x", 33)}
	for _, n := range invalid {
		if ValidTenantName(n) {
			t.Errorf("ValidTenantName(%q) = true", n)
		}
	}
}

func TestSplitTenantPath(t *testing.T) {
	cases := []struct {
		path, name, v1 string
		ok             bool
	}{
		{"/api/v1/t/acme/tasks", "acme", "/api/v1/tasks", true},
		{"/api/v1/t/acme/tasks/7/answers", "acme", "/api/v1/tasks/7/answers", true},
		{"/api/v1/t/acme/", "acme", "/api/v1/", true},
		{"/api/v1/t/acme", "acme", "/api/v1/", true},
		{"/api/v1/tasks", "", "", false},
		{"/healthz", "", "", false},
	}
	for _, c := range cases {
		name, v1, ok := splitTenantPath(c.path)
		if name != c.name || v1 != c.v1 || ok != c.ok {
			t.Errorf("splitTenantPath(%q) = (%q, %q, %v), want (%q, %q, %v)",
				c.path, name, v1, ok, c.name, c.v1, c.ok)
		}
	}
}

// tenantRig is one tenant's slice of a multi-tenant test server: its
// manager and the ConcurrentModel behind it, kept so tests can compare
// posteriors across tenants.
type tenantRig struct {
	mgr *Manager
	cm  *core.ConcurrentModel
}

// newTenantRig builds one tenant's full stack from a clone of the
// shared trained model — the same seeding crowdd uses for a fresh
// tenant.
func newTenantRig(t *testing.T, d *corpus.Dataset, m *core.Model, tenant string) *tenantRig {
	t.Helper()
	store := NewStore()
	store.clock = new(clock.Manual)
	for i := range d.Workers {
		if _, err := store.AddWorker(i, fmt.Sprintf("worker-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	cm := core.NewConcurrentModel(cloneModel(t, m))
	mgr, err := NewManager(store, d.Vocab, cm, 3)
	if err != nil {
		t.Fatal(err)
	}
	store.setTenant(tenant)
	return &tenantRig{mgr: mgr, cm: cm}
}

// multiTenantFixture serves a default tenant plus "acme" and "globex",
// each seeded from one shared trained model.
func multiTenantFixture(t *testing.T) (*httptest.Server, *Server, map[string]*tenantRig) {
	t.Helper()
	d, m := trainedFixture(t)
	rigs := map[string]*tenantRig{
		DefaultTenant: newTenantRig(t, d, m, ""),
		"acme":        newTenantRig(t, d, m, "acme"),
		"globex":      newTenantRig(t, d, m, "globex"),
	}
	srv := newNode(t, TenantConfig{Manager: rigs[DefaultTenant].mgr}, NodeConfig{Tenants: []TenantConfig{
		{Name: "acme", Manager: rigs["acme"].mgr},
		{Name: "globex", Manager: rigs["globex"].mgr},
	}})
	hts := httptest.NewServer(srv)
	t.Cleanup(hts.Close)
	return hts, srv, rigs
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestTenantAliasMatchesDefault: the un-prefixed /api/v1/* routes are
// pure aliases of /api/v1/t/default/* — same handler, byte-identical
// payloads, one shared metrics series under the un-prefixed label.
func TestTenantAliasMatchesDefault(t *testing.T) {
	hts, _ := serverFixture(t)
	ts := hts.URL

	for _, path := range []string{"/stats"} {
		plainStatus, plain := getBody(t, ts+"/api/v1"+path)
		scopedStatus, scoped := getBody(t, ts+"/api/v1/t/default"+path)
		if plainStatus != http.StatusOK || scopedStatus != http.StatusOK {
			t.Fatalf("%s status: plain %d, scoped %d", path, plainStatus, scopedStatus)
		}
		if plain != scoped {
			t.Errorf("%s alias payload differs:\nplain:  %s\nscoped: %s", path, plain, scoped)
		}
	}

	// The pure selection path answers byte-identically through both
	// spellings (it mutates nothing, so the comparison is exact).
	body := map[string]any{"tasks": []map[string]any{{"text": "index trees question", "k": 2}}}
	var bodies []string
	for _, prefix := range []string{"/api/v1", "/api/v1/t/default"} {
		resp := postJSON(t, ts+prefix+"/selections", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s/selections status = %d", prefix, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, string(b))
	}
	if bodies[0] != bodies[1] {
		t.Errorf("selections alias payload differs:\nplain:  %s\nscoped: %s", bodies[0], bodies[1])
	}

	// Mutations through both spellings land on one un-prefixed metrics
	// series — the scoped path is rewritten before the metrics label is
	// taken.
	for i, prefix := range []string{"/api/v1", "/api/v1/t/default"} {
		resp := postJSON(t, ts+prefix+"/tasks", map[string]any{"text": fmt.Sprintf("tenant alias probe %d", i), "k": 1})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("%s/tasks status = %d", prefix, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	snap := decode[MetricsSnapshot](t, resp)
	if got := snap.Endpoints["POST /api/v1/tasks"].Count; got != 2 {
		t.Errorf("v1 series count = %d, want 2 (plain + scoped)", got)
	}
	for label := range snap.Endpoints {
		if strings.Contains(label, "/api/v1/t/") {
			t.Errorf("tenant-labeled series leaked: %q", label)
		}
	}

	// Every tenant-scoped route, every facility state: the default
	// tenant reached un-prefixed and as /t/default, and a named tenant
	// registered from the same TenantConfig, answer with the same status
	// and error code — the default tenant is an entry of the registry,
	// so there is no second resolver for the spellings to drift on.
	d, m := trainedFixture(t)
	okHandler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	wired := func(mgr *Manager) TenantConfig {
		return TenantConfig{
			Manager: mgr,
			Query:   fixedEngine{},
			Digest: func() (DigestCut, error) {
				return DigestCut{Tenant: cmp.Or(mgr.store.tenant, DefaultTenant), Seq: 7}, nil
			},
			ReplicationSource: okHandler,
			Backup:            okHandler,
		}
	}
	type answer struct {
		status int
		code   string
	}
	sealed := answer{http.StatusServiceUnavailable, "degraded_read_only"}
	modes := []struct {
		name string
		cfg  func(*Manager) TenantConfig
		want map[string]answer // route → required answer; others only need to agree
	}{
		{"nil", func(mgr *Manager) TenantConfig { return TenantConfig{Manager: mgr} }, map[string]answer{
			"POST /api/v1/query":             {http.StatusNotImplemented, "not_implemented"},
			"GET /api/v1/digest":             {http.StatusNotFound, "not_found"},
			"GET /api/v1/replication/stream": {http.StatusNotImplemented, "not_implemented"},
			"GET /api/v1/backup":             {http.StatusNotImplemented, "not_implemented"},
			"POST /api/v1/tasks":             {http.StatusCreated, ""},
		}},
		{"wired", wired, map[string]answer{
			"POST /api/v1/query":             {http.StatusOK, ""},
			"GET /api/v1/digest":             {http.StatusOK, ""},
			"GET /api/v1/replication/stream": {http.StatusOK, ""},
			"GET /api/v1/backup":             {http.StatusOK, ""},
			"POST /api/v1/tasks":             {http.StatusCreated, ""},
		}},
		{"degraded", func(mgr *Manager) TenantConfig {
			c := wired(mgr)
			c.Degraded = func() bool { return true }
			return c
		}, map[string]answer{
			"POST /api/v1/tasks":                 sealed,
			"POST /api/v1/tasks:batch":           sealed,
			"POST /api/v1/tasks/{id}/answers":    sealed,
			"POST /api/v1/tasks/{id}/feedback":   sealed,
			"POST /api/v1/workers/{id}/presence": sealed,
			"POST /api/v1/skills:feedback":       sealed,
			"POST /api/v1/selections":            {http.StatusOK, ""},
			"POST /api/v1/query":                 {http.StatusOK, ""},
			"GET /api/v1/digest":                 {http.StatusOK, ""},
		}},
	}
	oneTask := map[string]any{"tasks": []map[string]any{{"text": "index trees question", "k": 1}}}
	probes := map[string]struct {
		path string
		body any // nil: GET
	}{
		"POST /api/v1/tasks":                 {"/tasks", map[string]any{"text": "index trees question", "k": 1}},
		"POST /api/v1/tasks:batch":           {"/tasks:batch", oneTask},
		"POST /api/v1/selections":            {"/selections", oneTask},
		"GET /api/v1/tasks/{id}":             {"/tasks/0", nil},
		"POST /api/v1/tasks/{id}/answers":    {"/tasks/0/answers", map[string]any{"worker": -1, "answer": "x"}},
		"POST /api/v1/tasks/{id}/feedback":   {"/tasks/0/feedback", map[string]any{"scores": map[string]float64{"-1": 1}}},
		"GET /api/v1/workers/{id}":           {"/workers/0", nil},
		"POST /api/v1/workers/{id}/presence": {"/workers/0/presence", map[string]any{"online": true}},
		"GET /api/v1/stats":                  {"/stats", nil},
		"GET /api/v1/digest":                 {"/digest", nil},
		"GET /api/v1/backup":                 {"/backup", nil},
		"POST /api/v1/query":                 {"/query", map[string]any{"q": "SELECT 1"}},
		"POST /api/v1/skills:feedback":       {"/skills:feedback", map[string]any{"text": "index trees", "scores": map[string]float64{"0": 1}}},
		"GET /api/v1/replication/stream":     {"/replication/stream", nil},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			// Both tenants come in through the same TenantConfig.
			acme := mode.cfg(newTenantRig(t, d, m, "acme").mgr)
			acme.Name = "acme"
			hts := httptest.NewServer(newNode(t, mode.cfg(newTenantRig(t, d, m, "").mgr), NodeConfig{Tenants: []TenantConfig{acme}}))
			defer hts.Close()

			for _, rt := range APIRoutes() {
				if !rt.Tenant {
					continue
				}
				route := rt.Method + " " + rt.Path
				probe, ok := probes[route]
				if !ok {
					t.Errorf("tenant-scoped route %s has no probe in this test", route)
					continue
				}
				var got []answer
				for _, prefix := range []string{"/api/v1", "/api/v1/t/default", "/api/v1/t/acme"} {
					var resp *http.Response
					if probe.body == nil {
						var err error
						if resp, err = http.Get(hts.URL + prefix + probe.path); err != nil {
							t.Fatal(err)
						}
					} else {
						resp = postJSON(t, hts.URL+prefix+probe.path, probe.body)
					}
					a := answer{status: resp.StatusCode}
					if resp.StatusCode >= 300 {
						a.code = decode[ErrorEnvelope](t, resp).Error.Code
					} else {
						resp.Body.Close()
					}
					got = append(got, a)
				}
				if got[0] != got[1] || got[0] != got[2] {
					t.Errorf("%s: plain %v, /t/default %v, /t/acme %v — spellings disagree", route, got[0], got[1], got[2])
				}
				if want, ok := mode.want[route]; ok && got[0] != want {
					t.Errorf("%s = %v, want %v", route, got[0], want)
				}
			}
		})
	}
}

// fixedEngine is a query engine that answers every statement.
type fixedEngine struct{}

func (fixedEngine) Execute(context.Context, string) (any, error) { return "ok", nil }

// TestTenantIsolation: tenants have distinct task id spaces, mutations
// in one tenant are invisible to the others, and feedback moves only
// its own tenant's posteriors.
func TestTenantIsolation(t *testing.T) {
	hts, _, rigs := multiTenantFixture(t)
	ts := hts.URL

	// Every tenant mints its own task ids from the same origin.
	var firstID int
	for i, prefix := range []string{"/api/v1", "/api/v1/t/acme", "/api/v1/t/globex"} {
		resp := postJSON(t, ts+prefix+"/tasks", map[string]any{"text": "what is a b+ tree", "k": 2})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("%s submit status = %d", prefix, resp.StatusCode)
		}
		sub := decode[SubmitResponse](t, resp)
		if i == 0 {
			firstID = sub.TaskID
		} else if sub.TaskID != firstID {
			t.Errorf("%s first task id = %d, want %d (own id space)", prefix, sub.TaskID, firstID)
		}
	}

	// A second acme task exists only in acme.
	resp := postJSON(t, ts+"/api/v1/t/acme/tasks", map[string]any{"text": "second acme question", "k": 2})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("acme second submit status = %d", resp.StatusCode)
	}
	secondID := decode[SubmitResponse](t, resp).TaskID
	if status, _ := getBody(t, ts+fmt.Sprintf("/api/v1/t/acme/tasks/%d", secondID)); status != http.StatusOK {
		t.Errorf("acme task %d status = %d", secondID, status)
	}
	for _, prefix := range []string{"/api/v1", "/api/v1/t/globex"} {
		if status, _ := getBody(t, ts+fmt.Sprintf("%s/tasks/%d", prefix, secondID)); status != http.StatusNotFound {
			t.Errorf("%s task %d status = %d, want 404", prefix, secondID, status)
		}
	}

	// Resolve acme's first task: only acme's posteriors move.
	before := map[string]*core.Model{}
	for name, rig := range rigs {
		before[name] = cloneModel(t, rig.cm.Unwrap()) // Unwrap is the live pointer
	}
	rec, err := http.Get(ts + fmt.Sprintf("/api/v1/t/acme/tasks/%d", firstID))
	if err != nil {
		t.Fatal(err)
	}
	task := decode[TaskRecord](t, rec)
	scores := map[string]float64{}
	for i, w := range task.Assigned {
		resp := postJSON(t, ts+fmt.Sprintf("/api/v1/t/acme/tasks/%d/answers", firstID), map[string]any{"worker": w, "answer": fmt.Sprintf("answer %d", i)})
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("acme answer status = %d", resp.StatusCode)
		}
		resp.Body.Close()
		scores[fmt.Sprint(w)] = 4
	}
	resp = postJSON(t, ts+fmt.Sprintf("/api/v1/t/acme/tasks/%d/feedback", firstID), map[string]any{"scores": scores})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("acme feedback status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	if !modelsDiffer(before["acme"], rigs["acme"].cm.Unwrap()) {
		t.Error("acme feedback did not move acme's posteriors")
	}
	for _, name := range []string{DefaultTenant, "globex"} {
		if modelsDiffer(before[name], rigs[name].cm.Unwrap()) {
			t.Errorf("acme feedback moved %s's posteriors", name)
		}
	}

	// Tenant stats count only their own tenant's traffic.
	st := decode[StatsResponse](t, mustGet(t, ts+"/api/v1/t/globex/stats"))
	if st.Tasks != 1 || st.Resolved != 0 {
		t.Errorf("globex stats = %+v, want 1 task, 0 resolved", st)
	}
	st = decode[StatsResponse](t, mustGet(t, ts+"/api/v1/t/acme/stats"))
	if st.Tasks != 2 || st.Resolved != 1 {
		t.Errorf("acme stats = %+v, want 2 tasks, 1 resolved", st)
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// modelsDiffer reports whether any worker posterior differs.
func modelsDiffer(a, b *core.Model) bool {
	for i := range a.LambdaW {
		for k := range a.LambdaW[i] {
			if a.LambdaW[i][k] != b.LambdaW[i][k] || a.NuW2[i][k] != b.NuW2[i][k] {
				return true
			}
		}
	}
	return false
}

// TestUnknownTenant: an unregistered tenant name 404s with the stable
// unknown_tenant code, the JSON envelope, and a collapsed metrics
// label (no per-probe cardinality).
func TestUnknownTenant(t *testing.T) {
	hts, _ := serverFixture(t)
	for _, path := range []string{"/api/v1/t/nosuch/stats", "/api/v1/t/nosuch/tasks", "/api/v1/t/UPPER/stats", "/api/v1/t/x1/tasks/1"} {
		resp, err := http.Get(hts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s status = %d, want 404", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s Content-Type = %q", path, ct)
		}
		if env := decode[ErrorEnvelope](t, resp); env.Error.Code != "unknown_tenant" {
			t.Errorf("%s code = %q, want unknown_tenant", path, env.Error.Code)
		}
	}
	resp, err := http.Get(hts.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	snap := decode[MetricsSnapshot](t, resp)
	for label := range snap.Endpoints {
		if strings.Contains(label, "nosuch") || strings.Contains(label, "UPPER") {
			t.Errorf("unknown-tenant probe leaked a metrics label: %q", label)
		}
	}
	if _, ok := snap.Endpoints["GET /api/v1/t/{tenant}"]; !ok {
		t.Error("unknown-tenant 404s not collapsed onto the {tenant} label")
	}
}

// blockingQuery parks the first Execute call until release closes, so
// tests can hold a tenant request in flight.
type blockingQuery struct {
	entered chan struct{}
	release chan struct{}
}

func (b blockingQuery) Execute(ctx context.Context, q string) (any, error) {
	b.entered <- struct{}{}
	select {
	case <-b.release:
	case <-ctx.Done():
	}
	return map[string]string{"status": "done"}, nil
}

// TestTenantQuota: a tenant over its in-flight budget sheds with 429
// tenant_quota_exceeded and Retry-After while other tenants keep
// serving; the shed shows up in the per-tenant metrics section.
func TestTenantQuota(t *testing.T) {
	d, m := trainedFixture(t)
	def := newTenantRig(t, d, m, "")
	acme := newTenantRig(t, d, m, "acme")
	bq := blockingQuery{entered: make(chan struct{}, 1), release: make(chan struct{})}
	hts := httptest.NewServer(newNode(t, TenantConfig{Manager: def.mgr}, NodeConfig{Tenants: []TenantConfig{
		{Name: "acme", Manager: acme.mgr, Query: bq, MaxInflight: 1},
	}}))
	t.Cleanup(hts.Close)

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp := postJSON(t, hts.URL+"/api/v1/t/acme/query", map[string]any{"q": "SELECT X"})
		resp.Body.Close()
	}()
	<-bq.entered // acme's only quota slot is now held

	resp, err := http.Get(hts.URL + "/api/v1/t/acme/stats")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("over-quota response missing Retry-After")
	}
	if env := decode[ErrorEnvelope](t, resp); env.Error.Code != "tenant_quota_exceeded" {
		t.Errorf("over-quota code = %q, want tenant_quota_exceeded", env.Error.Code)
	}

	// The default tenant is untouched by acme's quota.
	if status, _ := getBody(t, hts.URL+"/api/v1/stats"); status != http.StatusOK {
		t.Errorf("default tenant status while acme sheds = %d", status)
	}

	close(bq.release)
	<-done
	if status, _ := getBody(t, hts.URL+"/api/v1/t/acme/stats"); status != http.StatusOK {
		t.Errorf("acme status after release = %d, want 200", status)
	}

	snap := decode[MetricsSnapshot](t, mustGet(t, hts.URL+"/api/v1/metrics"))
	ts, ok := snap.Tenants["acme"]
	if !ok {
		t.Fatalf("metrics missing tenants section: %+v", snap.Tenants)
	}
	if ts.Shed != 1 || ts.MaxInflight != 1 {
		t.Errorf("acme tenant snapshot = %+v, want shed 1, max_inflight 1", ts)
	}
	if snap.Tenants[DefaultTenant].Shed != 0 {
		t.Errorf("default tenant shed = %d, want 0", snap.Tenants[DefaultTenant].Shed)
	}
}

// TestNewValidatesTheDescription: New refuses a node without the
// default tenant, a tenant with an invalid or repeated name or without
// a manager, a replica without a promoter, an unknown role and an
// invalid seed topology; a valid node lists its tenants default first.
func TestNewValidatesTheDescription(t *testing.T) {
	_, srv, _ := multiTenantFixture(t)
	d, m := trainedFixture(t)
	mgr := newTenantRig(t, d, m, "fresh").mgr
	def := TenantConfig{Name: DefaultTenant, Manager: mgr}
	for name, cfg := range map[string]NodeConfig{
		"no tenant":                {},
		"no default tenant":        {Tenants: []TenantConfig{{Name: "fresh", Manager: mgr}}},
		"invalid name":             {Tenants: []TenantConfig{def, {Name: "Bad Name", Manager: mgr}}},
		"default twice":            {Tenants: []TenantConfig{def, def}},
		"named tenant twice":       {Tenants: []TenantConfig{def, {Name: "acme", Manager: mgr}, {Name: "acme", Manager: mgr}}},
		"no manager":               {Tenants: []TenantConfig{def, {Name: "fresh"}}},
		"replica without promoter": {Tenants: []TenantConfig{def}, Role: RoleReplica},
		"unknown role":             {Tenants: []TenantConfig{def}, Role: RoleFenced},
		"invalid seed topology":    {Tenants: []TenantConfig{def}, Topology: &Topology{Epoch: 1, Count: 2}},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if got := srv.Tenants(); len(got) != 3 || got[0] != DefaultTenant || got[1] != "acme" || got[2] != "globex" {
		t.Errorf("Tenants() = %v", got)
	}
}

// TestAPIReferenceMatchesMux: every documented (method, path) is served
// through ServeHTTP by its own row of the route table — under the
// tenant prefix too, where the row says so — every row is documented,
// and the README embeds the generated table verbatim: the views cannot
// drift apart.
func TestAPIReferenceMatchesMux(t *testing.T) {
	mgr, _ := managerFixture(t)
	srv := NewServer(mgr)

	// A request is counted under METHOD + the path of the row that
	// served it, so the metrics series names the row.
	served := func(method, path string) (label string, status int) {
		before := srv.Metrics().Snapshot().Endpoints
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		for l, ep := range srv.Metrics().Snapshot().Endpoints {
			if ep.Count == before[l].Count+1 {
				label = l
			}
		}
		return label, rec.Code
	}
	documented := APIRoutes()
	if len(documented) != len(routes) {
		t.Fatalf("APIRoutes() documents %d routes, the table holds %d", len(documented), len(routes))
	}
	for i, rt := range documented {
		if rt.Path != routes[i].path || rt.Method != routes[i].methods {
			t.Errorf("APIRoutes()[%d] = %s %s, table row is %s %s", i, rt.Method, rt.Path, routes[i].methods, routes[i].path)
		}
		sample := strings.ReplaceAll(rt.Path, "{id}", "1")
		spellings := []string{sample}
		if rt.Tenant {
			spellings = append(spellings, "/api/v1/t/default"+strings.TrimPrefix(sample, "/api/v1"))
		}
		for _, method := range strings.Split(rt.Method, ", ") {
			for _, path := range spellings {
				label, status := served(method, path)
				if want := method + " " + rt.Path; label != want || status == http.StatusMethodNotAllowed {
					t.Errorf("%s %s served as %q with status %d, documented as %q", method, path, label, status, want)
				}
			}
		}
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(readme), APIReferenceMarkdown()) {
		t.Error("README.md API reference is stale: regenerate the table between the api-reference markers (make readme-api)")
	}
}
