package crowddb

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
)

// Tenancy (DESIGN §13): one server can host many independent crowds.
// Each tenant owns a full vertical slice — store, journal, model,
// projection cache, query engine, replication stream — and the HTTP
// surface namespaces them under /api/v1/t/{tenant}/..., with the
// un-prefixed /api/v1/* routes serving as pure aliases for the
// "default" tenant, which is an ordinary entry of the registry. Node-
// level concerns — readiness, role, fencing, topology, the AIMD
// admission controller — stay shared: tenants are data namespaces, not
// virtual nodes.

// DefaultTenant is the tenant behind the un-prefixed /api/v1/* routes.
// A pre-tenant data directory is exactly a default-tenant data
// directory, so upgraded deployments replay their history unchanged.
const DefaultTenant = "default"

// ValidTenantName reports whether name may identify a tenant: 1–32
// characters of lowercase letters, digits, '-' or '_', starting with a
// letter or digit. The alphabet keeps names safe in URL paths, file
// system directories and metrics labels without escaping.
func ValidTenantName(name string) bool {
	if len(name) == 0 || len(name) > 32 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
		case (c == '-' || c == '_') && i > 0:
		default:
			return false
		}
	}
	return true
}

// splitTenantPath recognizes a tenant-scoped API path: for
// /api/v1/t/{name}/rest it returns (name, "/api/v1/rest", true);
// any other path returns ok == false.
func splitTenantPath(path string) (name, v1 string, ok bool) {
	rest, found := strings.CutPrefix(path, "/api/v1/t/")
	if !found {
		return "", "", false
	}
	name, sub, _ := strings.Cut(rest, "/")
	return name, "/api/v1/" + sub, true
}

// tenantCtxKey carries the resolved tenant name in the request context
// after the tenant rewrite; absent means the default tenant.
type tenantCtxKey struct{}

// TenantConfig is one tenant's vertical slice as the Server sees it:
// AddTenant registers a named tenant from it, and NewServer plus the
// Set* methods fill the same struct for the default tenant. Only
// Manager is required; nil optional fields disable that facility for
// the tenant (a tenant without a Query engine answers /query with 501,
// one without a ReplicationSource answers its stream with 501).
type TenantConfig struct {
	// Manager owns the tenant's store, model and selection path.
	Manager *Manager
	// Query answers POST /api/v1/t/{name}/query.
	Query QueryEngine
	// Degraded reports the tenant's own journal health (typically the
	// tenant DB's Degraded method); while true, the tenant's mutations
	// are refused with 503 degraded_read_only.
	Degraded func() bool
	// ReplicationSource serves GET /api/v1/t/{name}/replication/stream
	// so followers replicate this tenant's journal.
	ReplicationSource http.Handler
	// MaxInflight caps the tenant's concurrent in-flight API requests
	// (0: unlimited). Breaches shed with 429 tenant_quota_exceeded.
	MaxInflight int
	// Digest serves GET /api/v1/t/{name}/digest, the tenant's integrity
	// digest cut (DESIGN §14); nil answers 404.
	Digest DigestFunc
	// Backup serves GET /api/v1/t/{name}/backup, the tenant's
	// digest-stamped archive stream (DESIGN §15); nil answers 501.
	Backup http.Handler
}

// tenantEntry is the server-side state of one tenant: its name, the
// slice it was registered with, and its request accounting.
type tenantEntry struct {
	name string
	TenantConfig

	requests atomic.Int64 // API requests routed to this tenant
	inflight atomic.Int64 // currently in flight (quota accounting)
	shed     atomic.Int64 // refused with tenant_quota_exceeded
}

// degraded reports the tenant's journal health.
func (e *tenantEntry) degraded() bool { return e.Degraded != nil && e.Degraded() }

// admit claims a quota slot; on false the request must be shed.
func (e *tenantEntry) admit() bool {
	if e.MaxInflight <= 0 {
		return true
	}
	if e.inflight.Add(1) > int64(e.MaxInflight) {
		e.inflight.Add(-1)
		e.shed.Add(1)
		return false
	}
	return true
}

// release returns a quota slot claimed by admit.
func (e *tenantEntry) release() {
	if e.MaxInflight > 0 {
		e.inflight.Add(-1)
	}
}

// AddTenant registers a named tenant. Call before serving traffic,
// alongside the other Set* wiring — the registry is not synchronized
// against in-flight requests. The default tenant is registered by
// NewServer, so re-adding it is a duplicate; the Set* methods and
// SetTenantQuota fill in the rest of its entry.
func (s *Server) AddTenant(name string, cfg TenantConfig) error {
	if !ValidTenantName(name) {
		return fmt.Errorf("invalid tenant name %q", name)
	}
	if _, dup := s.tenants[name]; dup {
		return fmt.Errorf("tenant %q already registered", name)
	}
	if cfg.Manager == nil {
		return fmt.Errorf("tenant %q needs a manager", name)
	}
	s.tenants[name] = &tenantEntry{name: name, TenantConfig: cfg}
	return nil
}

// SetTenantQuota caps one tenant's concurrent in-flight API requests
// (n <= 0: unlimited). It applies to every API request of that tenant
// — reads and mutations alike, after the node-wide admission gate —
// so one noisy tenant cannot starve the rest; breaches shed with 429
// and the stable tenant_quota_exceeded code. Call before serving
// traffic. Unknown tenants report an error.
func (s *Server) SetTenantQuota(name string, n int) error {
	e, ok := s.tenants[name]
	if !ok {
		return fmt.Errorf("unknown tenant %q", name)
	}
	if n < 0 {
		n = 0
	}
	e.MaxInflight = n
	return nil
}

// Tenants lists the registered tenant names, default first, the rest
// sorted.
func (s *Server) Tenants() []string {
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		if name != DefaultTenant {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return append([]string{DefaultTenant}, names...)
}

// tenantFor resolves the request's tenant entry; un-prefixed paths
// (and unknown context values, which cannot happen through ServeHTTP)
// land on the default entry.
func (s *Server) tenantFor(r *http.Request) *tenantEntry {
	if name, ok := r.Context().Value(tenantCtxKey{}).(string); ok {
		if e := s.tenants[name]; e != nil {
			return e
		}
	}
	return s.tenants[DefaultTenant]
}

// TenantSnapshot is one tenant's row in the metrics tenants section.
type TenantSnapshot struct {
	Requests    int64 `json:"requests"`
	Inflight    int64 `json:"inflight"`
	MaxInflight int64 `json:"max_inflight,omitempty"`
	Shed        int64 `json:"shed,omitempty"`
}

// tenantSnapshots builds the per-tenant metrics section; nil when the
// server hosts only an unlimited default tenant (single-tenant
// deployments keep their exact pre-tenancy metrics payload).
func (s *Server) tenantSnapshots() map[string]TenantSnapshot {
	if len(s.tenants) == 1 && s.tenants[DefaultTenant].MaxInflight == 0 {
		return nil
	}
	out := make(map[string]TenantSnapshot, len(s.tenants))
	for name, e := range s.tenants {
		out[name] = TenantSnapshot{
			Requests:    e.requests.Load(),
			Inflight:    e.inflight.Load(),
			MaxInflight: int64(e.MaxInflight),
			Shed:        e.shed.Load(),
		}
	}
	return out
}
