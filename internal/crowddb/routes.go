package crowddb

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// The server's route surface is declared once, in the routes table
// below (DESIGN §8). ServeHTTP resolves a request to its row before the
// first gate and takes everything from it: which gates apply (class),
// the metrics label (METHOD path), the allowed methods of a 405, the
// {id} parse, the shard that owns the id (key) and the handler.
// APIRoutes, APIReferenceMarkdown, the README's table and the client's
// routing (RouteOf) are views of the same rows.

// routeClass is which of ServeHTTP's gates a route passes through.
type routeClass uint8

const (
	// classRead: readiness, admission, tenant quota and the read budget;
	// served sealed, on a replica and degraded.
	classRead routeClass = iota
	// classMutation: gated like a read but with mutation priority and the
	// write budget, and refused 409 fenced when sealed, 421 not_primary
	// on a replica, 503 degraded_read_only while the journal is down.
	classMutation
	// classQuery: a read for admission, budget and degraded mode — a
	// statement may be a pure SELECT, and the store's own gate seals the
	// mutating ones — but refused like a mutation when sealed or on a
	// replica.
	classQuery
	// classAdmin: fleet administration that must reach replicas (a
	// promoted standby already knows the layout) and sealed or degraded
	// nodes (a router can steer around them); admitted and budgeted as a
	// mutation when it POSTs.
	classAdmin
	// classFleet: the fleet plane. Readiness and the fleet token, then
	// straight to the handler: streams are long-lived by design (no
	// admission slot, deadline budget or body cap) and promote, fence
	// and lease must reach nodes that refuse ordinary mutations.
	classFleet
	// classProbe: load-balancer probes; no gate at all.
	classProbe
)

// PartitionKey is what a route's {id} stands for in a sharded fleet
// (DESIGN §11): the shard that owns the id serves the route, and every
// other shard refuses it with 421 wrong_shard. A KeyNone route names no
// partitioned resource.
type PartitionKey uint8

const (
	KeyNone   PartitionKey = iota
	KeyTask                // a task id, homed on ShardOfTask
	KeyWorker              // a worker id, owned under ShardOfWorker
)

// ShardOf returns the shard of a count-shard fleet that owns id under a
// task or worker key.
func (k PartitionKey) ShardOf(id, count int) int {
	if k == KeyWorker {
		return ShardOfWorker(id, count)
	}
	return ShardOfTask(id, count)
}

// String names the partitioned resource.
func (k PartitionKey) String() string { return [...]string{"none", "task", "worker"}[k] }

// route is one row of the table. A path holding {id} is served by
// serveID, which receives the parsed id; any other by serve.
type route struct {
	methods string // "GET", "POST" or "GET, POST": the Allow header of a 405
	path    string // template, also the metrics label's second half
	class   routeClass
	key     PartitionKey // what {id} names; its owner serves the route
	tenant  bool         // documented as also served under /api/v1/t/{tenant}/...
	doc     string
	serve   func(*Server, http.ResponseWriter, *http.Request)
	serveID func(*Server, http.ResponseWriter, *http.Request, int)
}

var routes = []route{
	{"POST", "/api/v1/tasks", classMutation, KeyNone, true, "submit one task, get its selected crowd", (*Server).handleTasks, nil},
	{"POST", "/api/v1/tasks:batch", classMutation, KeyNone, true, "submit up to 1024 tasks in one round trip", (*Server).handleTasksBatch, nil},
	{"POST", "/api/v1/selections", classRead, KeyNone, true, "pure selection: rank crowds, store nothing (with scores and task categories on request: the legs of a fleet selection)", (*Server).handleSelections, nil},
	{"GET", "/api/v1/tasks/{id}", classRead, KeyTask, true, "fetch one task", nil, (*Server).handleGetTask},
	{"POST", "/api/v1/tasks/{id}/answers", classMutation, KeyTask, true, "record a worker's answer", nil, (*Server).handleAnswer},
	{"POST", "/api/v1/tasks/{id}/feedback", classMutation, KeyTask, true, "resolve a task with feedback scores", nil, (*Server).handleFeedback},
	{"GET", "/api/v1/workers/{id}", classRead, KeyWorker, true, "fetch one worker", nil, (*Server).handleGetWorker},
	{"POST", "/api/v1/workers/{id}/presence", classMutation, KeyWorker, true, "set a worker online/offline", nil, (*Server).handlePresence},
	{"GET", "/api/v1/stats", classRead, KeyNone, true, "crowd database counters", (*Server).handleStats, nil},
	{"GET", "/api/v1/digest", classRead, KeyNone, true, "integrity digest cut at the current applied position", (*Server).handleDigest, nil},
	{"GET", "/api/v1/backup", classFleet, KeyNone, true, "digest-stamped backup archive stream (full or `?since=` incremental)", (*Server).handleBackup, nil},
	{"POST", "/api/v1/query", classQuery, KeyNone, true, "run a crowdql statement", (*Server).handleQuery, nil},
	{"POST", "/api/v1/skills:feedback", classMutation, KeyNone, true, "fold cross-shard feedback into owned posteriors", (*Server).handleSkillFeedback, nil},
	{"GET", "/api/v1/replication/stream", classFleet, KeyNone, true, "long-lived journal stream for followers", (*Server).handleReplStream, nil},
	{"GET", "/api/v1/metrics", classRead, KeyNone, false, "node metrics snapshot (all tenants)", (*Server).handleMetrics, nil},
	{"GET, POST", "/api/v1/topology", classAdmin, KeyNone, false, "fleet topology document (GET) / admin update (POST)", (*Server).handleTopology, nil},
	{"POST", "/api/v1/replication/promote", classFleet, KeyNone, false, "flip a replica to primary (all tenants)", (*Server).handlePromote, nil},
	{"POST", "/api/v1/replication/fence", classFleet, KeyNone, false, "deliver a fencing order", (*Server).handleFence, nil},
	{"POST", "/api/v1/replication/lease", classFleet, KeyNone, false, "renew or seal the supervisor mutation lease", (*Server).handleLease, nil},
	{"GET", "/healthz", classProbe, KeyNone, false, "liveness probe", (*Server).handleHealthz, nil},
	{"GET", "/readyz", classProbe, KeyNone, false, "readiness probe (role, fencing, replication lag)", (*Server).handleReadyz, nil},
}

// allows reports whether the row answers method.
func (rt *route) allows(method string) bool {
	for rest := rt.methods; rest != ""; {
		var m string
		m, rest, _ = strings.Cut(rest, ", ")
		if m == method {
			return true
		}
	}
	return false
}

// literalRoutes indexes the rows whose path holds no {id}; idRoutes are
// the others, in table order. Both are derived from the table once: the
// {id} templates are matched here and not as http.ServeMux wildcards
// because a mux holding any wildcard pattern routes even literal paths
// through its tree, which allocates (DESIGN §8 has the numbers).
var literalRoutes, idRoutes = func() (map[string]*route, []*route) {
	literal := make(map[string]*route, len(routes))
	var ids []*route
	for i := range routes {
		if rt := &routes[i]; rt.serveID == nil {
			literal[rt.path] = rt
		} else {
			ids = append(ids, rt)
		}
	}
	return literal, ids
}()

// matchRoute resolves a path (tenant prefix already stripped) to its
// row and, on an {id} template, the segment standing for the id. A nil
// row is a path no route claims.
func matchRoute(path string) (*route, string) {
	if rt := literalRoutes[path]; rt != nil {
		return rt, ""
	}
	for _, rt := range idRoutes {
		prefix, suffix, _ := strings.Cut(rt.path, "{id}")
		if rest, ok := strings.CutPrefix(path, prefix); ok {
			if seg, ok := strings.CutSuffix(rest, suffix); ok && !strings.Contains(seg, "/") {
				return rt, seg
			}
		}
	}
	return nil, ""
}

// labelMethod spells a request method for a metrics label: itself when
// some row answers it, "OTHER" otherwise — the method token is the
// client's to choose, and must not mint series.
func labelMethod(method string) string {
	for i := range routes {
		if routes[i].allows(method) {
			return method
		}
	}
	return "OTHER"
}

// RouteOf resolves a canonical (unscoped) request to the client's view
// of its row: read reports whether any copy may serve it and repeat it
// (a GET, or a classRead row: the pure selection POST); key and id name
// the partition whose owner serves it, KeyNone when there is none.
func RouteOf(method, path string) (read bool, key PartitionKey, id int) {
	rt, idSeg := matchRoute(path)
	if rt == nil || !rt.allows(method) {
		return method == http.MethodGet, KeyNone, 0
	}
	read = method == http.MethodGet || rt.class == classRead
	if n, err := strconv.Atoi(idSeg); err == nil {
		return read, rt.key, n
	}
	return read, KeyNone, 0
}

// dispatch runs the matched row's handler once the gates have passed.
// It is the one place an unclaimed path becomes the enveloped 404 (so
// even typo'd URLs honor the error-envelope contract), a wrong method
// the 405 naming what is allowed, a non-numeric {id} the 400, and an
// id another shard owns the 421 wrong_shard.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, rt *route, idSeg string) {
	switch {
	case rt == nil:
		writeErr(w, r, refuse(ErrNotFound, "no route %s %s", r.Method, r.URL.Path))
	case !rt.allows(r.Method):
		w.Header().Set("Allow", rt.methods)
		writeErr(w, r, refuse(errMethodNotAllowed, "use %s", rt.methods))
	case rt.serveID != nil:
		id, err := strconv.Atoi(idSeg)
		if err != nil {
			writeErr(w, r, refuse(ErrBadRequest, "bad id %q in %s", idSeg, rt.path))
			return
		}
		if sp := s.shard(); !sp.Owns(rt.key, id) {
			err := &WrongShardError{Resource: rt.key.String(), ID: id, Owner: rt.key.ShardOf(id, sp.Count)}
			s.hintShardOwner(w, err)
			writeErr(w, r, err)
			return
		}
		rt.serveID(s, w, r, id)
	default:
		rt.serve(s, w, r)
	}
}

// Route documents one v1 API route for the generated reference table.
type Route struct {
	// Method is the verb the route answers ("GET", "POST", or
	// "GET, POST").
	Method string
	// Path is the canonical documented path, with an {id} placeholder.
	Path string
	// Tenant reports whether the route is tenant-scoped, i.e. also
	// served under /api/v1/t/{tenant}/....
	Tenant bool
	// Doc is the one-line description.
	Doc string
}

// APIRoutes is the documented v1 API surface: the route table, in
// reference-table order.
func APIRoutes() []Route {
	out := make([]Route, len(routes))
	for i, rt := range routes {
		out[i] = Route{Method: rt.methods, Path: rt.path, Tenant: rt.tenant, Doc: rt.doc}
	}
	return out
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
