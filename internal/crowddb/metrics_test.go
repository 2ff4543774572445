package crowddb

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"crowdselect/internal/core"
)

func TestMetricsObserveAndSnapshot(t *testing.T) {
	m := NewMetrics()
	// 90 fast requests, 10 slow, 5 of them errors.
	for i := 0; i < 90; i++ {
		m.Observe("POST /api/v1/tasks", 201, 2*time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		status := 200
		if i < 5 {
			status = 500
		}
		m.Observe("POST /api/v1/tasks", status, 80*time.Millisecond)
	}
	m.Observe("GET /api/v1/stats", 200, 1*time.Millisecond)

	snap := m.Snapshot()
	if snap.Requests != 101 || snap.Errors != 5 {
		t.Errorf("totals = %d/%d, want 101/5", snap.Requests, snap.Errors)
	}
	ep := snap.Endpoints["POST /api/v1/tasks"]
	if ep.Count != 100 || ep.Errors != 5 {
		t.Fatalf("endpoint = %+v", ep)
	}
	// p50 sits in the fast bucket, p99 in the slow one.
	if ep.P50Ms > 5 {
		t.Errorf("p50 = %gms, want <= 5ms", ep.P50Ms)
	}
	if ep.P99Ms < 25 || ep.P99Ms > 250 {
		t.Errorf("p99 = %gms, want within the slow bucket", ep.P99Ms)
	}
	if ep.MaxMs < 75 {
		t.Errorf("max = %gms", ep.MaxMs)
	}
	if ep.MeanMs <= 0 || ep.MeanMs > 80 {
		t.Errorf("mean = %gms", ep.MeanMs)
	}
	if snap.UptimeSeconds < 0 {
		t.Errorf("uptime = %g", snap.UptimeSeconds)
	}
}

func TestMetricsOverflowBucketReportsMax(t *testing.T) {
	m := NewMetrics()
	m.Observe("GET /x", 200, 42*time.Second) // beyond the last bound
	ep := m.Snapshot().Endpoints["GET /x"]
	if ep.P50Ms != 42000 || ep.P99Ms != 42000 {
		t.Errorf("overflow quantiles = %g/%g, want 42000", ep.P50Ms, ep.P99Ms)
	}
}

func TestMetricsConcurrentObserve(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				m.Observe(fmt.Sprintf("GET /e%d", g%2), 200, time.Millisecond)
				if i%10 == 0 {
					m.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := m.Snapshot().Requests; got != 800 {
		t.Errorf("requests = %d, want 800", got)
	}
}

// TestMetricsLabelIsTheRouteTemplate: a request is counted under METHOD
// + the path template of the row that matched it, so
// /api/v1/tasks/17/feedback and /api/v1/tasks/99/feedback share one
// series — whatever the handler (or the 405) then answers.
func TestMetricsLabelIsTheRouteTemplate(t *testing.T) {
	mgr, _ := managerFixture(t)
	srv := NewServer(mgr)
	cases := map[string]string{
		"/api/v1/tasks/17/feedback": "POST /api/v1/tasks/{id}/feedback",
		"/api/v1/tasks/9":           "POST /api/v1/tasks/{id}",
		"/api/v1/workers/0":         "POST /api/v1/workers/{id}",
		"/api/v1/stats":             "POST /api/v1/stats",
	}
	for path := range cases {
		srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", path, strings.NewReader("{}")))
	}
	snap := srv.Metrics().Snapshot()
	for path, want := range cases {
		if snap.Endpoints[want].Count != 1 {
			t.Errorf("POST %s: series %q count = %d, want 1 (have %v)", path, want, snap.Endpoints[want].Count, labelsOf(snap))
		}
	}
	if len(snap.Endpoints) != len(cases) {
		t.Errorf("series = %v, want exactly the %d templates", labelsOf(snap), len(cases))
	}
}

func labelsOf(snap MetricsSnapshot) []string {
	var labels []string
	for l := range snap.Endpoints {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	return labels
}

// TestMetricsLabelsAreAFiniteSet: whatever bytes a client puts in the
// path or the method token, the registry holds only labels spelled from
// the route table — rows x the methods the table serves (plus OTHER),
// the {unrouted} and unknown-tenant spellings — and never a byte of the
// junk. Each series is a histogram kept for the life of the process, so
// a client-chosen label is an unauthenticated memory leak.
func TestMetricsLabelsAreAFiniteSet(t *testing.T) {
	mgr, _ := managerFixture(t)
	srv := NewServer(mgr)
	serve := func(method, path string) {
		srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(method, path, nil))
	}
	for i := 0; i < 50; i++ {
		junk := fmt.Sprintf("zq%dzq", i)
		serve("GET", "/api/v1/tasks/"+junk)
		serve("GET", "/api/v1/workers/0/"+junk)
		serve("GET", "/api/v1/t/default/tasks/"+junk+"/answers")
		serve("GET", "/api/v1/t/nosuch/"+junk)
		serve("ZQ"+fmt.Sprint(i), "/api/v1/stats")
	}
	snap := srv.Metrics().Snapshot()
	if snap.Requests != 250 {
		t.Fatalf("requests = %d, want 250", snap.Requests)
	}
	methods := 3 // GET, POST, OTHER
	if limit := (len(routes) + 2) * methods; len(snap.Endpoints) > limit {
		t.Errorf("%d series after 250 junk requests, want <= %d", len(snap.Endpoints), limit)
	}
	for label := range snap.Endpoints {
		if strings.Contains(strings.ToLower(label), "zq") {
			t.Errorf("client-chosen bytes minted a series: %q", label)
		}
	}
	want := map[string]int64{
		"GET /api/v1/tasks/{id}":         50,
		"GET {unrouted}":                 50,
		"GET /api/v1/tasks/{id}/answers": 50,
		"GET /api/v1/t/{tenant}":         50,
		"OTHER /api/v1/stats":            50,
	}
	for label, n := range want {
		if got := snap.Endpoints[label].Count; got != n {
			t.Errorf("series %q count = %d, want %d (have %v)", label, got, n, labelsOf(snap))
		}
	}
}

// TestMetricsEndpointReportsCacheAndShard pins the /api/v1/metrics
// additions: the projection-cache section (including the disabled
// marker — a disabled cache must not report phantom misses) and the
// shard identity section.
func TestMetricsEndpointReportsCacheAndShard(t *testing.T) {
	d, model := trainedFixture(t)
	store := NewStore()
	for i := range d.Workers {
		if _, err := store.AddWorker(i, fmt.Sprintf("worker-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	cm := core.NewConcurrentModel(model)
	mgr, err := NewManager(store, d.Vocab, cm, 3)
	if err != nil {
		t.Fatal(err)
	}
	mgr.SetShard(ShardSpec{Index: 1, Count: 2})
	hs := httptest.NewServer(newNode(t, TenantConfig{Manager: mgr}, NodeConfig{
		CacheStats: cm.CacheStats,
		Topology: &Topology{Epoch: 7, Count: 2, Shards: []ShardAddr{
			{Index: 0, URL: "http://a"}, {Index: 1, URL: "http://b"},
		}},
	}))
	defer hs.Close()

	fetch := func() MetricsSnapshot {
		t.Helper()
		resp, err := http.Get(hs.URL + "/api/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var snap MetricsSnapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		return snap
	}

	cm.SetProjectionCacheCapacity(0)
	project := func() {
		t.Helper()
		text := strings.Join(d.Tasks[0].Tokens, " ")
		if _, err := mgr.RankOnly(context.Background(), []TaskSubmission{{Text: text, K: 2}}); err != nil {
			t.Fatal(err)
		}
	}
	project()
	snap := fetch()
	if snap.Cache == nil {
		t.Fatal("metrics missing cache section")
	}
	if !snap.Cache.Disabled {
		t.Error("disabled cache not marked disabled")
	}
	if snap.Cache.Misses != 0 || snap.Cache.Hits != 0 {
		t.Errorf("disabled cache counted lookups: %+v", snap.Cache)
	}
	if snap.Shard == nil {
		t.Fatal("metrics missing shard section")
	}
	if snap.Shard.Index != 1 || snap.Shard.Count != 2 || snap.Shard.Epoch != 7 {
		t.Errorf("shard section = %+v", snap.Shard)
	}

	cm.SetProjectionCacheCapacity(8)
	project()
	project()
	snap = fetch()
	if snap.Cache.Disabled {
		t.Error("enabled cache still marked disabled")
	}
	if snap.Cache.Misses == 0 || snap.Cache.Hits == 0 {
		t.Errorf("enabled cache not counting: %+v", snap.Cache)
	}
}

// TestMetricsIntegritySchema pins the wire names of the scrub and
// divergence counters: dashboards and the fleet supervisor key on
// them, so a rename is a breaking change this test must catch.
func TestMetricsIntegritySchema(t *testing.T) {
	snap := MetricsSnapshot{Integrity: &IntegritySnapshot{
		ScrubPasses: 1, ScrubFiles: 2, ScrubRecords: 3, ScrubFailures: 4,
		ScrubFailed: true, LastError: "crc mismatch",
		Diverged: true, Divergences: 5, Repairs: 6,
	}}
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	raw, ok := m["integrity"]
	if !ok {
		t.Fatal("metrics snapshot has no integrity section")
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"scrub_passes", "scrub_files", "scrub_records", "scrub_failures",
		"scrub_failed", "last_error", "diverged", "divergences", "repairs",
	} {
		if _, ok := fields[key]; !ok {
			t.Errorf("integrity section missing %q: %s", key, raw)
		}
	}
}
