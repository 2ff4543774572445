package crowdclient

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"crowdselect/internal/clock"
)

// pathRecorder answers every request with an empty JSON object and
// remembers the paths it served, so tests can assert exactly which
// namespace a client addressed.
type pathRecorder struct {
	mu    sync.Mutex
	paths []string
}

func (pr *pathRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	pr.mu.Lock()
	pr.paths = append(pr.paths, r.URL.Path)
	pr.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, "{}")
}

func (pr *pathRecorder) last(t *testing.T) string {
	t.Helper()
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if len(pr.paths) == 0 {
		t.Fatal("server saw no requests")
	}
	return pr.paths[len(pr.paths)-1]
}

// TestClientTenantScoping: Options.Tenant rewrites every API path into
// the tenant namespace, "default" and "" stay un-prefixed, and
// ForTenant derives scoped views without touching the parent.
func TestClientTenantScoping(t *testing.T) {
	rec := &pathRecorder{}
	ts := httptest.NewServer(rec)
	defer ts.Close()
	ctx := context.Background()
	opts := Options{Timeout: 2 * time.Second, Clock: new(clock.Manual)}

	plain := New(ts.URL, opts)
	if got := plain.Tenant(); got != "default" {
		t.Fatalf("unscoped client Tenant() = %q, want default", got)
	}
	if _, err := plain.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if got := rec.last(t); got != "/api/v1/stats" {
		t.Fatalf("unscoped client hit %q, want /api/v1/stats", got)
	}

	// The default tenant's explicit name normalizes to un-prefixed —
	// the two spellings are one namespace, so clients must not split
	// them across cache keys or metrics labels.
	def := New(ts.URL, Options{Timeout: 2 * time.Second, Tenant: "default", Clock: new(clock.Manual)})
	if _, err := def.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if got := rec.last(t); got != "/api/v1/stats" {
		t.Fatalf("tenant=default client hit %q, want /api/v1/stats", got)
	}

	acme := plain.ForTenant("acme")
	if got := acme.Tenant(); got != "acme" {
		t.Fatalf("ForTenant view Tenant() = %q, want acme", got)
	}
	if _, err := acme.GetTask(ctx, 7); err != nil {
		t.Fatal(err)
	}
	if got := rec.last(t); got != "/api/v1/t/acme/tasks/7" {
		t.Fatalf("acme client hit %q, want /api/v1/t/acme/tasks/7", got)
	}

	// Deriving a view leaves the parent un-scoped.
	if _, err := plain.GetTask(ctx, 7); err != nil {
		t.Fatal(err)
	}
	if got := rec.last(t); got != "/api/v1/tasks/7" {
		t.Fatalf("parent client hit %q after ForTenant, want /api/v1/tasks/7", got)
	}

	// ForTenant("default") un-scopes a scoped view.
	back := acme.ForTenant("default")
	if _, err := back.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if got := rec.last(t); got != "/api/v1/stats" {
		t.Fatalf("ForTenant(default) view hit %q, want /api/v1/stats", got)
	}
}

// TestClientTenantSharesResilience: a ForTenant view shares the
// parent's circuit breaker — endpoint health is per host, not per
// namespace, so a host melting down opens one breaker for every
// tenant addressing it.
func TestClientTenantSharesResilience(t *testing.T) {
	// A server that dies leaves a refusing port: transport errors are
	// what the breaker counts (HTTP-level errors are the server
	// working — see TestBreakerIgnoresHTTPErrors).
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	ts.Close()
	parent := New(ts.URL, Options{Timeout: time.Second, Retries: 0, Clock: new(clock.Manual)})
	acme := parent.ForTenant("acme")

	ctx := context.Background()
	for i := 0; i < 20; i++ {
		_, _ = acme.Stats(ctx)
	}
	if opens := acme.ResilienceStats().BreakerOpens; opens == 0 {
		t.Fatal("sustained dial failure never opened the scoped view's breaker")
	}
	if parent.ResilienceStats().BreakerOpens != acme.ResilienceStats().BreakerOpens {
		t.Fatal("parent and ForTenant view report different breakers; views must share endpoint health")
	}
}

// TestMultiTenantScoping: Multi.ForTenant scopes every per-endpoint
// client and reports the namespace.
func TestMultiTenantScoping(t *testing.T) {
	rec := &pathRecorder{}
	ts := httptest.NewServer(rec)
	defer ts.Close()
	m, err := NewMulti([]string{ts.URL}, Options{Timeout: 2 * time.Second, Clock: new(clock.Manual)})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Tenant(); got != "default" {
		t.Fatalf("unscoped Multi Tenant() = %q, want default", got)
	}
	acme := m.ForTenant("acme")
	if got := acme.Tenant(); got != "acme" {
		t.Fatalf("scoped Multi Tenant() = %q, want acme", got)
	}
	if _, err := acme.GetTask(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	if got := rec.last(t); got != "/api/v1/t/acme/tasks/3" {
		t.Fatalf("scoped Multi hit %q, want /api/v1/t/acme/tasks/3", got)
	}
}
