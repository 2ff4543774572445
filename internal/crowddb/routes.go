package crowddb

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
)

// The server's route surface is declared once, here, and consumed
// twice: NewServer registers the mux from routeRegistrations, and the
// README's API reference table is generated from APIRoutes (see
// APIReferenceMarkdown). A test asserts that the two views and the
// README agree, so a new endpoint cannot ship undocumented.

// routeRegistrations maps mux patterns to handlers. The catch-all "/"
// entry turns every unmatched path into an enveloped 404 instead of
// net/http's plain-text default, keeping the "every non-2xx carries
// the JSON envelope" contract exhaustive.
var routeRegistrations = []struct {
	pattern string
	handler func(*Server, http.ResponseWriter, *http.Request)
}{
	{"/api/v1/tasks", (*Server).handleTasks},
	{"/api/v1/tasks:batch", (*Server).handleTasksBatch},
	{"/api/v1/selections", (*Server).handleSelections},
	{"/api/v1/tasks/", (*Server).handleTaskSubtree},
	{"/api/v1/workers/", (*Server).handleWorkerSubtree},
	{"/api/v1/stats", (*Server).handleStats},
	{"/api/v1/digest", (*Server).handleDigest},
	{"/api/v1/backup", (*Server).handleBackup},
	{"/api/v1/query", (*Server).handleQuery},
	{"/api/v1/metrics", (*Server).handleMetrics},
	{"/api/v1/topology", (*Server).handleTopology},
	{"/api/v1/skills:feedback", (*Server).handleSkillFeedback},
	{"/api/v1/replication/stream", (*Server).handleReplStream},
	{"/api/v1/replication/promote", (*Server).handlePromote},
	{"/api/v1/replication/fence", (*Server).handleFence},
	{"/api/v1/replication/lease", (*Server).handleLease},
	{"/healthz", (*Server).handleHealthz},
	{"/readyz", (*Server).handleReadyz},
	{"/", (*Server).handleFallback},
}

// handleFallback answers every path no route claims with the enveloped
// 404, so even typo'd URLs honor the error-envelope contract.
func (s *Server) handleFallback(w http.ResponseWriter, r *http.Request) {
	httpError(w, http.StatusNotFound, fmt.Errorf("no route %s %s", r.Method, r.URL.Path))
}

// registerRoutes wires the route table into the server's mux.
func (s *Server) registerRoutes() {
	for _, rt := range routeRegistrations {
		rt := rt
		s.mux.HandleFunc(rt.pattern, func(w http.ResponseWriter, r *http.Request) {
			rt.handler(s, w, r)
		})
	}
}

// Route documents one v1 API route for the generated reference table.
type Route struct {
	// Method is the verb the route answers ("GET", "POST", or
	// "GET, POST").
	Method string
	// Path is the canonical documented path, with {id}/{tenant}
	// placeholders.
	Path string
	// Pattern is the mux pattern serving the path — several documented
	// routes can share one subtree pattern.
	Pattern string
	// Tenant reports whether the route is tenant-scoped, i.e. also
	// served under /api/v1/t/{tenant}/....
	Tenant bool
	// Doc is the one-line description.
	Doc string
}

// APIRoutes is the documented v1 API surface, in reference-table
// order. Every entry's Pattern must be registered in
// routeRegistrations (and vice versa for /api patterns) — asserted by
// TestAPIReferenceMatchesMux.
func APIRoutes() []Route {
	return []Route{
		{"POST", "/api/v1/tasks", "/api/v1/tasks", true, "submit one task, get its selected crowd"},
		{"POST", "/api/v1/tasks:batch", "/api/v1/tasks:batch", true, "submit up to 1024 tasks in one round trip"},
		{"POST", "/api/v1/selections", "/api/v1/selections", true, "pure selection: rank crowds, store nothing (with scores and task categories on request: the legs of a fleet selection)"},
		{"GET", "/api/v1/tasks/{id}", "/api/v1/tasks/", true, "fetch one task"},
		{"POST", "/api/v1/tasks/{id}/answers", "/api/v1/tasks/", true, "record a worker's answer"},
		{"POST", "/api/v1/tasks/{id}/feedback", "/api/v1/tasks/", true, "resolve a task with feedback scores"},
		{"GET", "/api/v1/workers/{id}", "/api/v1/workers/", true, "fetch one worker"},
		{"POST", "/api/v1/workers/{id}/presence", "/api/v1/workers/", true, "set a worker online/offline"},
		{"GET", "/api/v1/stats", "/api/v1/stats", true, "crowd database counters"},
		{"GET", "/api/v1/digest", "/api/v1/digest", true, "integrity digest cut at the current applied position"},
		{"GET", "/api/v1/backup", "/api/v1/backup", true, "digest-stamped backup archive stream (full or `?since=` incremental)"},
		{"POST", "/api/v1/query", "/api/v1/query", true, "run a crowdql statement"},
		{"POST", "/api/v1/skills:feedback", "/api/v1/skills:feedback", true, "fold cross-shard feedback into owned posteriors"},
		{"GET", "/api/v1/replication/stream", "/api/v1/replication/stream", true, "long-lived journal stream for followers"},
		{"GET", "/api/v1/metrics", "/api/v1/metrics", false, "node metrics snapshot (all tenants)"},
		{"GET, POST", "/api/v1/topology", "/api/v1/topology", false, "fleet topology document (GET) / admin update (POST)"},
		{"POST", "/api/v1/replication/promote", "/api/v1/replication/promote", false, "flip a replica to primary (all tenants)"},
		{"POST", "/api/v1/replication/fence", "/api/v1/replication/fence", false, "deliver a fencing order"},
		{"POST", "/api/v1/replication/lease", "/api/v1/replication/lease", false, "renew or seal the supervisor mutation lease"},
		{"GET", "/healthz", "/healthz", false, "liveness probe"},
		{"GET", "/readyz", "/readyz", false, "readiness probe (role, fencing, replication lag)"},
	}
}

// APIReferenceMarkdown renders the API reference table embedded in the
// README between the api-reference markers; `make readme-api` (or the
// failing test) says when the README is stale.
func APIReferenceMarkdown() string {
	var b strings.Builder
	b.WriteString("| Method | Path | Tenant-scoped | Description |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, rt := range APIRoutes() {
		scoped := ""
		if rt.Tenant {
			scoped = "yes"
		}
		fmt.Fprintf(&b, "| %s | `%s` | %s | %s |\n", rt.Method, rt.Path, scoped, rt.Doc)
	}
	b.WriteString("\nTenant-scoped routes are also served under `/api/v1/t/{tenant}/...`;\n")
	b.WriteString("the un-prefixed spelling is an exact alias for the `default` tenant.\n")
	return b.String()
}

// routePattern resolves which mux pattern would serve path, using a
// throwaway request — the test-side half of the table/mux agreement
// check.
func (s *Server) routePattern(method, path string) (string, error) {
	r, err := http.NewRequest(method, path, nil)
	if err != nil {
		return "", err
	}
	_, pattern := s.mux.Handler(r)
	if pattern == "" {
		return "", errors.New("no handler")
	}
	return pattern, nil
}
