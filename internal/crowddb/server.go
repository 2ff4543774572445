package crowddb

import (
	"bytes"
	"cmp"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crowdselect/internal/clock"
	"crowdselect/internal/core"
	"crowdselect/internal/rank"
	"crowdselect/internal/selcodec"
)

// Server exposes the crowd manager over a versioned HTTP API. The
// routes table (routes.go) is the one declaration of the surface —
// methods, paths, which gates each passes — and the README's API
// reference is generated from it.
//
// New builds a node from one NodeConfig; nothing is registered on it
// afterwards. A node running as a read replica (NodeConfig.Role)
// refuses mutations and /api/v1/query with 421 + the not_primary code
// and an X-Crowdd-Primary header pointing at its primary; selections
// and other reads keep serving from the replicated model. Replication
// paths bypass admission and deadline budgets — the stream is
// long-lived by design — but their POSTs take the body cap like every
// other POST.
//
// Tenant-scoped routes live under /api/v1/t/{tenant}/... (DESIGN §13):
// ServeHTTP strips the tenant prefix before dispatch and threads the
// tenant through the request context, so every data route serves every
// tenant from one table row and one metrics series. The un-prefixed /api/v1/*
// routes are exact aliases for the "default" tenant, an ordinary entry
// of the tenant registry. Unknown tenants get 404
// with the unknown_tenant code; a tenant over its in-flight quota gets
// 429 with tenant_quota_exceeded. See TenantConfig.
//
// Every non-2xx response carries one JSON error envelope:
//
//	{"error": {"code": "bad_request", "message": "empty task text"}}
//
// where code is the stable code of the refusal's row in the error
// table (errors.go) and message is human-readable detail.
//
// Handlers thread the request context into the manager, so a client
// that disconnects mid-request cancels the in-flight selection work;
// such aborts are reported as status 499 (client closed request).
//
// Every request passes through a recovery/metrics/logging middleware:
// handler panics become 500 responses instead of killing the
// connection, and per-endpoint counts, error counts and latency
// quantiles accumulate for GET /api/v1/metrics.
//
// Two probe endpoints sit outside /api for load balancers:
//
//	GET /healthz   always 200 while the process can serve at all
//	GET /readyz    200 once recovery finished and until shutdown
//	               drain begins, 503 otherwise
//
// Point LB liveness checks at /healthz and routing decisions at
// /readyz: the daemon flips /readyz to 503 during boot-time recovery
// and again when a graceful shutdown starts draining, so traffic moves
// away without dropping in-flight requests. Both probes bypass the
// load-shedding gate.
type Server struct {
	metrics     *Metrics
	logf        func(format string, args ...any)
	logRequest  func(method, path string, status int, took time.Duration) // the request log line, to logf
	ready       atomic.Bool
	adm         *admission                  // nil: unlimited
	readBudget  time.Duration               // server-side deadline for reads (0: none)
	writeBudget time.Duration               // server-side deadline for mutations (0: none)
	maxBody     int64                       // request-body cap for POSTs
	durability  func() DurabilitySnapshot   // nil: no durability section
	role        atomic.Value                // RolePrimary | RoleReplica
	replStatus  func() ReplicationStatus    // nil: no replication section
	promoter    func(context.Context) error // nil only on a primary
	fence       *Fence
	fleetToken  string                           // non-empty: bearer token gating /api/v1/replication/*
	cacheStats  func() core.ProjectionCacheStats // nil: no cache section
	topo        topologyState                    // live topology document
	integrity   func() IntegritySnapshot         // nil: no integrity section

	// tenants is the tenant registry (DESIGN §13): every per-tenant
	// facility (manager, query engine, degraded check, replication and
	// backup sources, digest) lives in its entry and nowhere else. New
	// fills it once; nothing adds to it afterwards.
	tenants map[string]*tenantEntry
}

// QueryEngine executes crowdql statements; crowdql.HTTPAdapter
// satisfies it. The indirection keeps crowddb free of a dependency on
// the query package. ctx is the request context: a disconnected client
// cancels query-driven selection work.
type QueryEngine interface {
	Execute(ctx context.Context, q string) (any, error)
}

// maxBatchTasks bounds one POST /api/v1/tasks:batch request. The cap
// keeps a single request from monopolizing the selection path; clients
// with more tasks split them across requests.
const maxBatchTasks = 1024

// defaultMaxBody caps a POST request body unless NodeConfig.MaxBody
// says otherwise; oversized bodies get 413 with the request_too_large
// code.
const defaultMaxBody = 1 << 20

// NodeConfig describes a node: its tenants, the default among them,
// and the node-level parts they share (DESIGN §13). A nil part leaves
// its facility out: an in-memory node has no durability, integrity or
// replication section.
type NodeConfig struct {
	// Tenants are the node's crowds, one of them named DefaultTenant.
	Tenants []TenantConfig
	// Fence is the node's fencing state (DESIGN §12): the one over a
	// durable node's DB, whose epochs persist; nil is memory-only.
	Fence *Fence
	// FleetToken, when set, is the bearer token every fleet-control
	// request (/api/v1/replication/*) must carry or be refused 403.
	FleetToken string
	// Role is RolePrimary ("" too) or RoleReplica, which refuses writes
	// with 421 not_primary until Promoter flips it.
	Role string
	// Topology seeds GET /api/v1/topology (nil: none until POSTed).
	Topology *Topology
	// Logf is the request/panic log sink (log.Printf shaped); nil is
	// silent.
	Logf func(format string, args ...any)
	// Admission is the adaptive AIMD limit on in-flight requests within
	// [Min, Max], shrunk by deadline overruns; past it reads shed with 429
	// before mutations do. Max <= 0 runs no controller.
	Admission AdmissionConfig
	// ReadBudget and WriteBudget are server-side deadlines for reads
	// (GETs, selections, query) and mutations (0: none); an overrun
	// answers 503 deadline_exceeded and signals overload to admission.
	ReadBudget, WriteBudget time.Duration
	// MaxBody caps every POST body, fleet control included, with 413
	// request_too_large (<= 0: 1 MiB).
	MaxBody int64
	// CacheStats, Durability, Integrity and Replication feed the
	// sections of /api/v1/metrics so named, the last two /readyz's too:
	// typically (*core.ConcurrentModel).CacheStats, (*DB).Stats,
	// (*DB).ScrubStats and (*TransferSource).Status, a follower's merged
	// with its replicas' status.
	CacheStats  func() core.ProjectionCacheStats
	Durability  func() DurabilitySnapshot
	Integrity   func() IntegritySnapshot
	Replication func() ReplicationStatus
	// Promoter serves POST /api/v1/replication/promote on a replica,
	// which needs one (typically (*Replica).Promote).
	Promoter func(context.Context) error
}

// New builds a node from its description. It refuses a node without
// the default tenant, a tenant with an invalid or repeated name or no
// manager, and a replica without a promoter. The server starts ready.
func New(cfg NodeConfig) (*Server, error) {
	s := &Server{
		metrics:     NewMetrics(),
		logf:        cfg.Logf,
		logRequest:  requestLogger(cfg.Logf),
		readBudget:  cfg.ReadBudget,
		writeBudget: cfg.WriteBudget,
		maxBody:     cfg.MaxBody,
		durability:  cfg.Durability,
		replStatus:  cfg.Replication,
		promoter:    cfg.Promoter,
		fence:       cfg.Fence,
		fleetToken:  cfg.FleetToken,
		cacheStats:  cfg.CacheStats,
		integrity:   cfg.Integrity,
		tenants:     make(map[string]*tenantEntry, len(cfg.Tenants)),
	}
	for _, tc := range cfg.Tenants {
		switch {
		case !ValidTenantName(tc.Name):
			return nil, fmt.Errorf("invalid tenant name %q", tc.Name)
		case s.tenants[tc.Name] != nil:
			return nil, fmt.Errorf("tenant %q listed twice", tc.Name)
		case tc.Manager == nil:
			return nil, fmt.Errorf("tenant %q needs a manager", tc.Name)
		}
		tc.MaxInflight = max(tc.MaxInflight, 0)
		s.tenants[tc.Name] = &tenantEntry{TenantConfig: tc}
	}
	if s.tenants[DefaultTenant] == nil {
		return nil, fmt.Errorf("a node needs the %q tenant", DefaultTenant)
	}
	role := cmp.Or(cfg.Role, RolePrimary)
	if role != RolePrimary && (role != RoleReplica || cfg.Promoter == nil) {
		return nil, fmt.Errorf("role %q: a node is a primary or a replica with a promoter", role)
	}
	s.role.Store(role)
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	if s.fence == nil {
		s.fence = NewFence(nil)
	}
	if s.maxBody <= 0 {
		s.maxBody = defaultMaxBody
	}
	if cfg.Admission.Max > 0 {
		s.adm = newAdmission(cfg.Admission, clock.Real)
	}
	if cfg.Topology != nil {
		if err := s.topo.set(*cfg.Topology); err != nil {
			return nil, err
		}
	}
	s.ready.Store(true)
	return s, nil
}

// NewServer is the one-tenant, in-memory node: New with mgr as the
// default tenant's manager and nothing else.
func NewServer(mgr *Manager) *Server {
	s, err := New(NodeConfig{Tenants: []TenantConfig{{Name: DefaultTenant, Manager: mgr}}})
	if err != nil {
		panic(err)
	}
	return s
}

// SetLogger replaces NodeConfig.Logf; it is kept only for
// bench/replay.go until that file builds its server with New.
func (s *Server) SetLogger(logf func(string, ...any)) {
	s.logf, s.logRequest = logf, requestLogger(logf)
}

// requestLogger writes the request log line to logf; without a sink it
// is a no-op that boxes none of its arguments, so it allocates nothing.
func requestLogger(logf func(string, ...any)) func(method, path string, status int, took time.Duration) {
	if logf == nil {
		return func(string, string, int, time.Duration) {}
	}
	return func(method, path string, status int, took time.Duration) {
		logf("%s %s -> %d (%s)", method, path, status, took.Round(time.Microsecond))
	}
}

// SetReady flips the readiness gate: while false, /readyz reports 503
// and /api/* requests are refused with 503 + Retry-After so load
// balancers route elsewhere during recovery or shutdown drain.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// SetDegradedCheck replaces the default tenant's Degraded; it is kept
// only for bench/replay.go until that file builds its server with New.
func (s *Server) SetDegradedCheck(f func() bool) { s.tenants[DefaultTenant].Degraded = f }

// SetDurabilityStats replaces NodeConfig.Durability; it is kept only
// for bench/replay.go until that file builds its server with New.
func (s *Server) SetDurabilityStats(f func() DurabilitySnapshot) { s.durability = f }

// SetCacheStats replaces NodeConfig.CacheStats; it is kept only for
// bench/replay.go until that file builds its server with New.
func (s *Server) SetCacheStats(f func() core.ProjectionCacheStats) { s.cacheStats = f }

// Topology returns the current topology document with Self stamped to
// this node's shard index.
func (s *Server) Topology() Topology {
	doc := s.topo.get()
	doc.Self = s.shard().Index
	return doc
}

// shard is this node's shard identity, read from the default tenant's
// manager (every tenant of a node carries the same one).
func (s *Server) shard() ShardSpec { return s.tenants[DefaultTenant].Manager.Shard() }

// handleTopology serves the live topology document and accepts admin
// updates. GET is served by every node (replicas included) so a router
// can refresh from whatever it can still reach; POST installs a new
// layout if its epoch is not stale.
func (s *Server) handleTopology(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.Topology())
	case http.MethodPost:
		var doc Topology
		if !s.decodeJSON(w, r, &doc) {
			return
		}
		if err := s.topo.set(doc); err != nil {
			writeErr(w, r, err)
			return
		}
		s.logf("topology updated to epoch %d (%d shards)", doc.Epoch, doc.Count)
		writeJSON(w, http.StatusOK, s.Topology())
	}
}

// skillFeedbackRequest is the body of POST /api/v1/skills:feedback:
// the task text (for projection) and scores for workers this shard
// owns. This is the cross-shard red path: the task's home shard keeps
// the resolved row, each owner shard folds its workers' posteriors.
// Task, when present, is the home-shard task id the forward belongs
// to; it keys server-side deduplication so a coordinator can retry a
// failed forward leg without double-applying (task ids start at 0,
// hence the pointer).
type skillFeedbackRequest struct {
	Text   string       `json:"text"`
	Scores workerScores `json:"scores"`
	Task   *int         `json:"task,omitempty"`
}

func (s *Server) handleSkillFeedback(w http.ResponseWriter, r *http.Request) {
	var req skillFeedbackRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.Text) == "" {
		writeErr(w, r, refuse(ErrBadRequest, "empty task text"))
		return
	}
	forwardOf := -1
	if req.Task != nil {
		if *req.Task < 0 {
			writeErr(w, r, refuse(ErrBadRequest, "bad task id %d", *req.Task))
			return
		}
		forwardOf = *req.Task
	}
	if err := s.tenantFor(r).Manager.ApplyModelFeedback(r.Context(), forwardOf, req.Text, req.Scores); err != nil {
		s.hintShardOwner(w, err)
		writeErr(w, r, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// hintShardOwner stamps a wrong-shard refusal with the owner's index
// and, when the topology knows it, address: a router re-aims by them.
func (s *Server) hintShardOwner(w http.ResponseWriter, err error) {
	var wse *WrongShardError
	if !errors.As(err, &wse) {
		return
	}
	w.Header().Set("X-Crowdd-Shard-Owner", strconv.Itoa(wse.Owner))
	if url := s.topo.get().URLOf(wse.Owner); url != "" {
		w.Header().Set("X-Crowdd-Shard-Owner-URL", url)
	}
}

// Role reports the node's current replication role.
func (s *Server) Role() string { return s.role.Load().(string) }

// SetFence replaces NodeConfig.Fence; it is kept only for
// bench/replay.go until that file builds its server with New.
func (s *Server) SetFence(f *Fence) { s.fence = f }

// fleetAuthorized checks the fleet-control gate for one request.
func (s *Server) fleetAuthorized(r *http.Request) bool {
	if s.fleetToken == "" {
		return true
	}
	tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	return ok && subtle.ConstantTimeCompare([]byte(tok), []byte(s.fleetToken)) == 1
}

// roleNow is the effective role: the stored role, overridden by
// "fenced" while the node is sealed.
func (s *Server) roleNow() string {
	if s.fence.Sealed() {
		return RoleFenced
	}
	return s.Role()
}

// replicationStatusNow snapshots the replication section, with the
// server's own role as the authority.
func (s *Server) replicationStatusNow() ReplicationStatus {
	st := ReplicationStatus{Role: s.roleNow(), Connected: s.Role() == RolePrimary}
	if s.replStatus != nil {
		st = s.replStatus()
		st.Role = s.roleNow()
	}
	if st.FencingEpoch == 0 {
		st.FencingEpoch = s.fence.Epoch()
	}
	return st
}

// handleReplStream serves the journal stream to followers; the
// long-lived response is produced by the tenant's installed
// ReplicationSource — /api/v1/t/{name}/replication/stream streams that
// tenant's journal, the un-prefixed path the default tenant's.
func (s *Server) handleReplStream(w http.ResponseWriter, r *http.Request) {
	src := s.tenantFor(r).ReplicationSource
	if src == nil {
		writeErr(w, r, refuse(errNotImplemented, "replication source not configured"))
		return
	}
	if s.Role() != RolePrimary {
		writeErr(w, r, errReplicaStream)
		return
	}
	src.ServeHTTP(w, r)
}

// handlePromote flips a replica to primary: the promoter seals the
// stream, replays to tail and checkpoints; then the role flips and
// mutations are accepted. Idempotent — promoting a primary reports
// its status with 200.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if s.fence.SealedByEpoch() {
		// A node deposed by epoch cannot be promoted in place — a newer
		// primary exists; re-point this node as its follower.
		s.fence.Refuse(w, r, errors.New("cannot promote a fenced node"))
		return
	}
	if s.Role() == RolePrimary {
		writeJSON(w, http.StatusOK, s.replicationStatusNow())
		return
	}
	if err := s.promoter(r.Context()); err != nil {
		writeErr(w, r, err)
		return
	}
	s.role.Store(RolePrimary)
	s.logf("promoted to primary")
	writeJSON(w, http.StatusOK, s.replicationStatusNow())
}

// FenceRequest is the body of POST /api/v1/replication/fence: an
// order that epoch Epoch exists for history History, optionally with
// the new primary's base URL for the redirect hint. A node whose own
// epoch is lower seals itself. Idempotent; the response is the
// resulting FenceStatus, so the caller verifies Sealed/Observed
// rather than inferring from the status code.
type FenceRequest struct {
	History    string `json:"history"`
	Epoch      uint64 `json:"epoch"`
	NewPrimary string `json:"new_primary,omitempty"`
}

// FenceResponse answers the fence and lease endpoints.
type FenceResponse struct {
	Role    string      `json:"role"`
	Fencing FenceStatus `json:"fencing"`
}

func (s *Server) handleFence(w http.ResponseWriter, r *http.Request) {
	var req FenceRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.History == "" || req.Epoch == 0 {
		writeErr(w, r, refuse(ErrBadRequest, "fence needs history and epoch"))
		return
	}
	s.fence.Observe(req.History, req.Epoch, req.NewPrimary)
	writeJSON(w, http.StatusOK, FenceResponse{Role: s.roleNow(), Fencing: s.fence.Status()})
}

// LeaseRequest is the body of POST /api/v1/replication/lease: the
// supervisor's mutation-lease renewal. Once the first renewal arms
// the lease, the node seals itself (provisionally) whenever the lease
// lapses — the self-fencing half of the split-brain contract, for
// primaries partitioned away from the supervisor but still reachable
// by clients. Seal inverts the request: instead of renewing, the node
// steps down immediately (its lease set already-lapsed), refusing
// mutations until a plain renewal un-seals it — the reversible first
// step of a drain handoff.
type LeaseRequest struct {
	Holder string `json:"holder"`
	TTLMs  int64  `json:"ttl_ms,omitempty"`
	Seal   bool   `json:"seal,omitempty"`
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.Seal {
		if err := s.fence.StepDown(req.Holder); err != nil {
			s.fence.Refuse(w, r, errors.New("step-down refused: node already deposed"))
			return
		}
	} else if err := s.fence.Renew(req.Holder, time.Duration(req.TTLMs)*time.Millisecond); err != nil {
		if errors.Is(err, ErrFenced) {
			s.fence.Refuse(w, r, errors.New("lease refused: node already deposed"))
			return
		}
		writeErr(w, r, refuse(ErrBadRequest, "%v", err))
		return
	}
	writeJSON(w, http.StatusOK, s.readyzNow())
}

// readyzNow is the answer /readyz and the lease endpoint share: ready,
// the role, and the fence's fields cut from one FenceStatus, so that
// fencing_epoch is always fencing.epoch and a supervisor sees sealed and
// sealed_by in the answer to its own seal.
func (s *Server) readyzNow() ReadyzResponse {
	fs := s.fence.Status()
	resp := ReadyzResponse{Status: "ready", Role: s.roleNow(), FencingEpoch: fs.Epoch, Fencing: &fs}
	if s.replStatus != nil {
		st := s.replicationStatusNow()
		resp.Replication = &st
	}
	return resp
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ReadyzResponse is the body of GET /readyz: readiness, the degraded
// detail when the journal is unavailable, the node's replication role,
// and (when replication is wired) position and lag.
type ReadyzResponse struct {
	Status string `json:"status"`
	Mode   string `json:"mode,omitempty"`
	// Role is primary, replica or fenced — load balancers and the
	// fleet supervisor route on it without parsing replication status.
	Role         string             `json:"role"`
	FencingEpoch uint64             `json:"fencing_epoch,omitempty"`
	Fencing      *FenceStatus       `json:"fencing,omitempty"`
	Replication  *ReplicationStatus `json:"replication,omitempty"`
	Integrity    *IntegritySnapshot `json:"integrity,omitempty"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resp := s.readyzNow()
	if s.integrity != nil {
		is := s.integrity()
		resp.Integrity = &is
	}
	if !s.ready.Load() {
		resp.Status = "not ready"
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	// Degraded read-only is still ready — selections keep serving — but
	// the detail lets operators and dashboards see the state.
	if s.tenants[DefaultTenant].degraded() {
		resp.Mode = "degraded_read_only"
	}
	writeJSON(w, http.StatusOK, resp)
}

// Metrics exposes the server's metrics registry, e.g. for logging a
// final snapshot at shutdown.
func (s *Server) Metrics() *Metrics { return s.metrics }

type queryRequest struct {
	Q string `json:"q"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	query := s.tenantFor(r).Query
	if query == nil {
		writeErr(w, r, refuse(errNotImplemented, "query engine not configured"))
		return
	}
	var req queryRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.Q) == "" {
		writeErr(w, r, refuse(ErrBadRequest, "empty query"))
		return
	}
	res, err := query.Execute(r.Context(), req.Q)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// parentCtxKey carries the pre-budget request context so the error
// mapper can tell a server-imposed deadline (503 deadline_exceeded,
// overload signal) from a client disconnect (499).
type parentCtxKey struct{}

// serverDeadlineFired reports whether the server's own deadline budget
// expired while the client was still there.
func serverDeadlineFired(ctx context.Context) bool {
	if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return false
	}
	parent, ok := ctx.Value(parentCtxKey{}).(context.Context)
	return ok && parent.Err() == nil
}

// ServeHTTP implements http.Handler. It is the middleware shell: strip
// the /api/v1/t/{tenant} prefix into the request context, resolve the
// route once, run the gates the row's class names — readiness, fleet
// token, seal, role, degraded mode, admission, tenant quota — arm the
// deadline budget, cap the request body, dispatch, then record
// status/latency under the row's label (one label for both spellings of
// a tenant route) and turn handler panics into 500s.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w}
	// label is METHOD + the matched row's path template, or one of two
	// fixed spellings where no row matched: nothing the client chose
	// beyond which row it hit reaches the metrics registry.
	var label string
	defer func() {
		if p := recover(); p != nil {
			s.logf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
			if !sw.wrote {
				writeErr(sw, r, refuse(errInternal, "internal server error"))
			}
		}
		status := sw.status()
		s.metrics.Observe(label, status, time.Since(start))
		s.logRequest(r.Method, r.URL.Path, status, time.Since(start))
	}()
	// Epoch gossip, outbound only: every response advertises the
	// highest fencing epoch this node has seen, so clients learn of a
	// deposition from the first node that heard of the new epoch and
	// re-resolve. Inbound request headers are never trusted — the
	// history string rides every response, so a request echoing it with
	// a huge epoch would let any unauthenticated client permanently
	// brick a primary. Epoch observations enter only through the fence
	// endpoint and the replication stream, both behind the fleet token
	// when one is configured.
	sw.Header().Set("X-Crowdd-Fencing-Epoch", strconv.FormatUint(s.fence.ObservedEpoch(), 10))
	sw.Header().Set("X-Crowdd-History", s.fence.History())
	// Tenant rewrite, before the route is resolved: /api/v1/t/{name}/rest
	// becomes /api/v1/rest with the tenant in the request context, so
	// tenant-scoped and default spellings share one row, one handler and
	// one metrics series.
	ten := s.tenants[DefaultTenant]
	if name, v1, scoped := splitTenantPath(r.URL.Path); scoped {
		if ten = s.tenants[name]; ten == nil {
			label = labelMethod(r.Method) + " /api/v1/t/{tenant}"
			writeErr(sw, r, refuse(errUnknownTenant, "unknown tenant %q", name))
			return
		}
		r = r.Clone(context.WithValue(r.Context(), tenantCtxKey{}, name))
		r.URL.Path = v1
	}
	// A path no row claims is gated as a read and answered 404 by
	// dispatch.
	rt, idSeg := matchRoute(r.URL.Path)
	class, path := classRead, "{unrouted}"
	if rt != nil {
		class, path = rt.class, rt.path
	}
	label = labelMethod(r.Method) + " " + path
	if class == classProbe {
		s.dispatch(sw, r, rt, idSeg)
		return
	}
	ten.requests.Add(1)
	if !s.ready.Load() {
		sw.Header().Set("Retry-After", "1")
		writeErr(sw, r, refuse(errUnavailable, "service not ready"))
		return
	}
	if class == classFleet {
		if !s.fleetAuthorized(r) {
			writeErr(sw, r, refuse(errForbidden, "fleet control requires the fleet token (Authorization: Bearer ...)"))
			return
		}
		// Promote, fence and lease are small JSON bodies and take the
		// same cap as every other POST; streams and backups are GETs.
		if r.Method == http.MethodPost {
			r.Body = http.MaxBytesReader(sw, r.Body, s.maxBody)
		}
		s.dispatch(sw, r, rt, idSeg)
		return
	}
	// mutation is the request's shedding priority and budget; writes
	// says it may change the crowd database, which a sealed node or a
	// replica must not.
	mutation := class == classMutation || (class == classAdmin && r.Method == http.MethodPost)
	writes := class == classMutation || class == classQuery
	if writes && s.fence.Sealed() {
		// Sealed node: refuse every mutation with the typed 409 and
		// the new-primary hint. Checked before the replica gate — a
		// fenced node's 421 would point at a deposed primary.
		s.fence.Refuse(sw, r, errors.New("mutations are sealed on a fenced node"))
		return
	}
	if writes && s.Role() == RoleReplica {
		if s.replStatus != nil {
			if p := s.replStatus().Primary; p != "" {
				sw.Header().Set("X-Crowdd-Primary", p)
			}
		}
		writeErr(sw, r, refuse(ErrNotPrimary, "this node is a read replica; send writes to the primary"))
		return
	}
	if class == classMutation && ten.degraded() {
		writeErr(sw, r, refuse(ErrDegraded, "journal unavailable: mutations sealed, reads still served"))
		return
	}
	if s.adm != nil {
		ok, retryAfter := s.adm.acquire(mutation)
		if !ok {
			s.metrics.ObserveShed(mutation)
			sw.Header().Set("Retry-After", strconv.Itoa(retryAfter))
			writeErr(sw, r, refuse(errOverCapacity, "server at capacity"))
			return
		}
		defer func() {
			overloaded := serverDeadlineFired(r.Context())
			if overloaded {
				s.metrics.ObserveDeadlineOverrun()
			}
			s.adm.release(time.Since(start), overloaded)
		}()
	}
	// Per-tenant quota, after the node-wide admission gate: a noisy
	// tenant sheds on its own budget before it can crowd out the
	// others' share of the node's capacity.
	if !ten.admit() {
		sw.Header().Set("Retry-After", "1")
		writeErr(sw, r, refuse(errTenantQuota, "tenant %q is over its in-flight quota", ten.Name))
		return
	}
	defer ten.release()
	if budget := s.budgetFor(mutation); budget > 0 {
		parent := r.Context()
		ctx, cancel := context.WithTimeout(context.WithValue(parent, parentCtxKey{}, parent), budget)
		defer cancel()
		r = r.WithContext(ctx)
	}
	if r.Method == http.MethodPost {
		r.Body = http.MaxBytesReader(sw, r.Body, s.maxBody)
	}
	s.dispatch(sw, r, rt, idSeg)
}

// budgetFor picks the deadline budget for a request class.
func (s *Server) budgetFor(mutation bool) time.Duration {
	if mutation {
		return s.writeBudget
	}
	return s.readBudget
}

// statusWriter captures the response status for metrics and logging.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.code, w.wrote = http.StatusOK, true
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the underlying writer, so
// the replication stream can flush frames and clear the server's
// read/write deadlines through the middleware shell.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *statusWriter) status() int {
	if !w.wrote {
		return http.StatusOK
	}
	return w.code
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.Snapshot()
	if s.durability != nil {
		d := s.durability()
		snap.Durability = &d
	}
	if s.adm != nil {
		a := s.adm.snapshot()
		snap.Admission = &a
	}
	if s.replStatus != nil {
		rs := s.replicationStatusNow()
		snap.Replication = &rs
	}
	if s.cacheStats != nil {
		cs := s.cacheStats()
		snap.Cache = &cs
	}
	if sp := s.shard(); sp.Enabled() {
		snap.Shard = &ShardInfoSnapshot{Index: sp.Index, Count: sp.Count, Epoch: s.topo.get().Epoch}
	}
	fs := s.fence.Status()
	snap.Fencing = &fs
	if s.integrity != nil {
		is := s.integrity()
		snap.Integrity = &is
	}
	snap.Tenants = s.tenantSnapshots()
	writeJSON(w, http.StatusOK, snap)
}

// SubmitRequest is the body of POST /api/v1/tasks and one element of a
// batch submission. K ≤ 0 selects the manager's default crowd size. A
// non-empty Workers list bypasses ranking and assigns exactly those
// workers — the scatter-gather coordinator's submit path, after it has
// merged the global top-k itself.
type SubmitRequest struct {
	Text    string `json:"text"`
	K       int    `json:"k"`
	Workers []int  `json:"workers,omitempty"`
}

// SubmitResponse is the result of one task submission: the stored task
// id, its selected crowd (best first), and the selector that ranked
// it.
type SubmitResponse struct {
	TaskID  int    `json:"task_id"`
	Workers []int  `json:"workers"`
	Model   string `json:"model"`
}

// BatchSubmitRequest is the body of POST /api/v1/tasks:batch and
// POST /api/v1/selections: up to maxBatchTasks submissions served in
// one round trip. The remaining fields are read by selections only.
// IncludeScores returns each worker's Eq. 1 score alongside the ranking
// — required by scatter-gather coordinators, which merge per-shard lists
// by score. IncludeCategories (with IncludeScores) also returns each
// task's projected category and the category version, which a
// coordinator hands to the other shards as Categories + CategoryVersion
// in place of the texts: such a request carries one K-vector per task,
// tasks with k only, and is answered with scores from the second phase
// of Alg. 3 alone — or refused with 409 category_mismatch when this
// node's category parameters are not the ones the vectors were
// projected under. The vectors sit at request and response level, not
// per task, so a request without them costs what it did before they
// existed.
type BatchSubmitRequest struct {
	Tasks             []SubmitRequest `json:"tasks"`
	IncludeScores     bool            `json:"include_scores,omitempty"`
	IncludeCategories bool            `json:"include_categories,omitempty"`
	Categories        [][]float64     `json:"categories,omitempty"`
	CategoryVersion   string          `json:"category_version,omitempty"`
}

// BatchSubmitResponse carries one SubmitResponse per submitted task,
// in request order.
type BatchSubmitResponse struct {
	Results []SubmitResponse `json:"results"`
}

func (s *Server) handleTasks(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.Text) == "" {
		writeErr(w, r, refuse(ErrBadRequest, "empty task text"))
		return
	}
	// A single submit is a batch of one, so the Workers preassignment
	// field behaves (and validates) identically on both endpoints.
	mgr := s.tenantFor(r).Manager
	subs, err := mgr.SubmitBatch(r.Context(), []TaskSubmission{{Text: req.Text, K: req.K, Workers: req.Workers}})
	if err != nil {
		writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusCreated, SubmitResponse{
		TaskID:  subs[0].Task.ID,
		Workers: subs[0].Workers,
		Model:   mgr.SelectorName(),
	})
}

func (s *Server) handleTasksBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchSubmitRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	reqs, ok := s.batchSubmissions(w, req)
	if !ok {
		return
	}
	mgr := s.tenantFor(r).Manager
	subs, err := mgr.SubmitBatch(r.Context(), reqs)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	model := mgr.SelectorName()
	resp := BatchSubmitResponse{Results: make([]SubmitResponse, len(subs))}
	for i, sub := range subs {
		resp.Results[i] = SubmitResponse{TaskID: sub.Task.ID, Workers: sub.Workers, Model: model}
	}
	writeJSON(w, http.StatusCreated, resp)
}

// checkBatchSize bounds the tasks of one batch body: 1 to maxBatchTasks.
func checkBatchSize(n int) error {
	switch {
	case n == 0:
		return errors.New("empty batch")
	case n > maxBatchTasks:
		return fmt.Errorf("batch of %d tasks exceeds the limit of %d", n, maxBatchTasks)
	}
	return nil
}

// batchSubmissions validates a batch body shared by tasks:batch and
// selections; on failure it writes the error and reports !ok.
func (s *Server) batchSubmissions(w http.ResponseWriter, req BatchSubmitRequest) ([]TaskSubmission, bool) {
	if err := checkBatchSize(len(req.Tasks)); err != nil {
		writeErr(w, nil, refuse(ErrBadRequest, "%v", err))
		return nil, false
	}
	reqs := make([]TaskSubmission, len(req.Tasks))
	for i, t := range req.Tasks {
		if strings.TrimSpace(t.Text) == "" {
			writeErr(w, nil, refuse(ErrBadRequest, "empty task text at index %d", i))
			return nil, false
		}
		reqs[i] = TaskSubmission{Text: t.Text, K: t.K, Workers: t.Workers}
	}
	return reqs, true
}

// SelectionResult is one element of a selections response: the crowd
// for one task text, best worker first. Scores is filled (parallel to
// Workers) when the request set include_scores.
type SelectionResult struct {
	Workers []int     `json:"workers"`
	Scores  []float64 `json:"scores,omitempty"`
}

// SelectionsResponse is the body of POST /api/v1/selections: one
// result per requested task, in request order, plus the selector that
// ranked them. Categories (parallel to Results) and CategoryVersion
// answer include_categories.
type SelectionsResponse struct {
	Results         []SelectionResult `json:"results"`
	Model           string            `json:"model"`
	Categories      [][]float64       `json:"categories,omitempty"`
	CategoryVersion string            `json:"category_version,omitempty"`
}

// selectionsScratch is the working set of one POST /api/v1/selections,
// pooled: the body it read, the request parsed from it, the texts of a
// body encoding/json decoded, the rankings, the projected categories and
// the response bytes. The response is written before the scratch is
// released, so only the wire bytes leave it.
type selectionsScratch struct {
	body    bytes.Buffer
	req     selcodec.Request
	text    []byte // a decoded body's texts, which req.Texts window
	arena   rank.Arena
	lambdas []float64   // the projecting leg's λ_c, K per task
	rows    [][]float64 // views of lambdas, one per task
	out     []byte
}

var selectionsPool = sync.Pool{New: func() any { return new(selectionsScratch) }}

// release pools the scratch, unless its body, response or arena grew
// past what a pool keeps (maxPooledBody, maxPooledItems): one huge
// request is not kept for every later one.
func (sc *selectionsScratch) release() {
	if sc.body.Cap() > maxPooledBody || cap(sc.text) > maxPooledBody || cap(sc.out) > maxPooledBody || sc.arena.Cap() > maxPooledItems {
		return
	}
	clear(sc.rows)
	clear(sc.req.Cats)
	selectionsPool.Put(sc)
}

// parse reads the request's body into sc.req by one of the two decode
// routes: a compact body is scanned in place (selcodec.Request.Scan),
// and every other body is decoded as decodeJSON decodes it and copied
// into the same form — its texts into sc.text, the one copy only this
// route makes. On failure it writes the error and reports false.
func (sc *selectionsScratch) parse(w http.ResponseWriter, r *http.Request) bool {
	readErr := readBody(&sc.body, r)
	if readErr == nil && sc.req.Scan(sc.body.Bytes()) {
		return true
	}
	var dec BatchSubmitRequest
	if !decodeBody(w, r, &sc.body, readErr, &dec) {
		return false
	}
	req := &sc.req
	req.Ks, req.Texts, req.WorkersAt, sc.text = req.Ks[:0], req.Texts[:0], -1, sc.text[:0]
	for i, t := range dec.Tasks {
		// A window cut before sc.text grew keeps the old array, whose
		// bytes the growth does not change.
		start := len(sc.text)
		sc.text = append(sc.text, t.Text...)
		req.Ks, req.Texts = append(req.Ks, t.K), append(req.Texts, sc.text[start:len(sc.text):len(sc.text)])
		if len(t.Workers) > 0 && req.WorkersAt < 0 {
			req.WorkersAt = i
		}
	}
	req.IncludeScores, req.IncludeCategories = dec.IncludeScores, dec.IncludeCategories
	req.ByCategory = dec.Categories != nil || dec.CategoryVersion != ""
	req.Cats, req.Version = append(req.Cats[:0], dec.Categories...), dec.CategoryVersion
	return true
}

// checkSelection is the one validation of a selections body, whichever
// route parsed it. A text request needs texts that are not blank, no
// preassigned workers, and include_scores beside include_categories; a
// score-only leg needs a category version and no text or workers.
func checkSelection(req *selcodec.Request) error {
	if err := checkBatchSize(len(req.Ks)); err != nil {
		return refuse(ErrBadRequest, "%v", err)
	}
	if req.ByCategory {
		if req.Version == "" {
			return refuse(ErrBadRequest, "categories need a category_version")
		}
		for i, text := range req.Texts {
			if len(text) > 0 || i == req.WorkersAt {
				return refuse(ErrBadRequest, "task index %d: categories replace text and workers", i)
			}
		}
		return nil
	}
	for i, text := range req.Texts {
		if len(bytes.TrimSpace(text)) == 0 {
			return refuse(ErrBadRequest, "empty task text at index %d", i)
		}
	}
	if req.WorkersAt >= 0 {
		return refuse(ErrBadRequest, "task index %d: a selection ranks its crowd; preassigned workers belong on tasks:batch", req.WorkersAt)
	}
	if req.IncludeCategories && !req.IncludeScores {
		return refuse(ErrBadRequest, "include_categories needs include_scores")
	}
	return nil
}

// writeSelections is the one writer of a selections response, for all
// four forms: ids only, with scores, the projecting leg (scores,
// categories and their version) and the score-only leg (scores). The
// bytes are encoding/json's (selcodec.AppendResponse), built in the
// scratch and sent in one write; a non-finite score or category is a
// 500, as writeJSON answers a value encoding/json refuses.
func writeSelections(w http.ResponseWriter, sc *selectionsScratch, ranked [][]rank.Item, scores bool, model string, cats [][]float64, version string) {
	out, err := selcodec.AppendResponse(sc.out[:0], ranked, scores, model, cats, version)
	sc.out = out
	if err != nil {
		writeErr(w, nil, refuse(errInternal, "%v", err))
		return
	}
	writeBody(w, http.StatusOK, out)
}

// handleSelections is the pure selection path: rank crowds for up to
// maxBatchTasks task texts without storing anything. It reads only the
// committed model and the online-worker set, so it keeps answering in
// degraded read-only mode — the property the paper's selection queries
// need (§5.3: a selection needs only the last committed projection).
//
// Every body is parsed into one form (selectionsScratch.parse), checked
// once (checkSelection) and ranked by its texts — tokenized straight
// from the body — or, on a fleet's score-only leg, by its categories.
func (s *Server) handleSelections(w http.ResponseWriter, r *http.Request) {
	sc := selectionsPool.Get().(*selectionsScratch)
	defer sc.release()
	if !sc.parse(w, r) {
		return
	}
	req := &sc.req
	if err := checkSelection(req); err != nil {
		writeErr(w, r, err)
		return
	}
	mgr := s.tenantFor(r).Manager
	if req.ByCategory {
		s.selectByCategory(w, r, mgr, sc)
		return
	}
	var (
		ranked  [][]rank.Item
		version string
		err     error
	)
	ts := mgr.windowBatch(req.Ks, req.Texts)
	if req.IncludeCategories {
		ranked, sc.lambdas, version, err = mgr.rankProjected(r.Context(), &sc.arena, sc.lambdas[:0], ts)
	} else {
		ranked, err = mgr.rankTexts(r.Context(), &sc.arena, ts)
	}
	if err != nil {
		writeErr(w, r, err)
		return
	}
	var cats [][]float64
	if req.IncludeCategories {
		s.metrics.observeSelectionLeg(legProjected)
		// A selector that projects no components answers null rows.
		dim := len(sc.lambdas) / len(ranked)
		sc.rows = sc.rows[:0]
		for i := range ranked {
			var row []float64
			if dim > 0 {
				row = sc.lambdas[i*dim : (i+1)*dim : (i+1)*dim]
			}
			sc.rows = append(sc.rows, row)
		}
		cats = sc.rows
	}
	writeSelections(w, sc, ranked, req.IncludeScores, mgr.SelectorName(), cats, version)
}

// selectByCategory answers the score-only leg of a fleet selection: the
// request names no text, only the categories another shard projected
// and the version it projected them under.
func (s *Server) selectByCategory(w http.ResponseWriter, r *http.Request, mgr *Manager, sc *selectionsScratch) {
	ranked, err := mgr.rankCategories(r.Context(), &sc.arena, sc.req.Ks, sc.req.Cats, sc.req.Version)
	if err != nil {
		if errors.Is(err, core.ErrCategoryVersion) {
			s.metrics.observeSelectionLeg(legMismatch)
		}
		writeErr(w, r, err)
		return
	}
	s.metrics.observeSelectionLeg(legScoredOnly)
	writeSelections(w, sc, ranked, true, mgr.SelectorName(), nil, "")
}

type answerRequest struct {
	Worker int    `json:"worker"`
	Answer string `json:"answer"`
}

type feedbackRequest struct {
	Scores workerScores `json:"scores"`
}

func (s *Server) handleGetTask(w http.ResponseWriter, r *http.Request, id int) {
	task, err := s.tenantFor(r).Manager.Store().GetTask(id)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, task)
}

func (s *Server) handleAnswer(w http.ResponseWriter, r *http.Request, id int) {
	var req answerRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if err := s.tenantFor(r).Manager.CollectAnswer(id, req.Worker, req.Answer); err != nil {
		writeErr(w, r, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request, id int) {
	var req feedbackRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	rec, err := s.tenantFor(r).Manager.ResolveTask(r.Context(), id, req.Scores)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

type presenceRequest struct {
	Online bool `json:"online"`
}

func (s *Server) handleGetWorker(w http.ResponseWriter, r *http.Request, id int) {
	worker, err := s.tenantFor(r).Manager.Store().GetWorker(id)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, worker)
}

func (s *Server) handlePresence(w http.ResponseWriter, r *http.Request, id int) {
	var req presenceRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if err := s.tenantFor(r).Manager.Store().SetOnline(id, req.Online); err != nil {
		writeErr(w, r, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// StatsResponse is the body of GET /api/v1/stats: crowd database
// counters and the active selector.
type StatsResponse struct {
	Workers  int    `json:"workers"`
	Online   int    `json:"online"`
	Tasks    int    `json:"tasks"`
	Open     int    `json:"open"`
	Assigned int    `json:"assigned"`
	Resolved int    `json:"resolved"`
	Model    string `json:"model"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	mgr := s.tenantFor(r).Manager
	st := mgr.Store()
	writeJSON(w, http.StatusOK, StatsResponse{
		Workers:  st.NumWorkers(),
		Online:   st.NumOnline(),
		Tasks:    st.NumTasks(),
		Open:     len(st.ListTasks(TaskOpen)),
		Assigned: len(st.ListTasks(TaskAssigned)),
		Resolved: len(st.ListTasks(TaskResolved)),
		Model:    mgr.SelectorName(),
	})
}

// bodyBufs holds the buffers decodeJSON reads request bodies into and
// writeJSON encodes responses into; one grown past maxPooledBody is
// dropped rather than kept for every later request.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 64 << 10

// maxPooledItems is maxPooledBody's bound for a pooled rank.Arena: 64 KB
// of 16-byte Items.
const maxPooledItems = maxPooledBody / 16

// decodeJSON decodes a POST body into v; on failure it writes the
// error response (413 request_too_large when the body cap tripped,
// 400 otherwise) and reports false.
//
// The body is read into a pooled buffer and decoded with one
// json.Unmarshal. Whatever Unmarshal could answer differently from a
// json.Decoder on the body — trailing bytes after the first value, a
// failed or capped read, a bad value — goes to such a decoder over the
// same bytes and the body's terminal read error, so every body gets
// the decoder's status, envelope and value.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer putBuf(buf)
	return decodeBody(w, r, buf, readBody(buf, r), v)
}

// putBuf pools a buffer of bodyBufs unless it grew past maxPooledBody.
func putBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodyBufs.Put(buf)
	}
}

// readBody reads r's body into buf, emptied first; a nil error is a
// clean end of body.
func readBody(buf *bytes.Buffer, r *http.Request) error {
	buf.Reset()
	_, err := buf.ReadFrom(r.Body)
	return err
}

// decodeBody is decodeJSON past the read: buf holds what readBody read
// and readErr is what it returned.
func decodeBody(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer, readErr error, v any) bool {
	// Unmarshal only after a clean end of body: a value cut short by a
	// read error can still be valid JSON ("null" at the cap), which the
	// decoder refuses.
	if readErr == nil && json.Unmarshal(buf.Bytes(), v) == nil {
		return true
	}
	err := json.NewDecoder(io.MultiReader(bytes.NewReader(buf.Bytes()), r.Body)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeErr(w, r, refuse(ErrFrameTooLarge, "request body exceeds %d bytes", tooBig.Limit))
		return false
	}
	writeErr(w, r, refuse(ErrBadRequest, "%v", err))
	return false
}

// writeJSON answers status with v encoded by a json.Encoder. The value
// is encoded into a pooled buffer before the status is committed, so a
// value encoding/json refuses (a NaN score) is a 500 with the error
// envelope, not a 200 with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer putBuf(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		writeErr(w, nil, refuse(errInternal, "%v", err))
		return
	}
	writeBody(w, status, buf.Bytes())
}

// writeBody answers status with a JSON body in one write.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write is the client's to notice
}
