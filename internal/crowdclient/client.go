// Package crowdclient is the typed Go client for the crowdd v1 HTTP
// API (crowddb.Server). It owns the transport policy every caller
// wants and none should re-implement: per-request timeouts, bounded
// retries with exponential backoff plus jitter — connection errors
// always (for mutations only when the dial failed, so a request that
// may have reached the server is never sent twice), and 5xx responses
// on idempotent requests (GETs and pure selections).
//
// On top of the per-request policy sit two client-wide guards: a
// closed/open/half-open circuit breaker that fails fast (ErrCircuitOpen)
// once the server stops answering at the transport level, and a
// token-bucket retry budget so concurrent callers cannot multiply a
// retry storm.
// ResilienceStats exposes their counters.
//
// Non-2xx responses decode the server's error envelope
// {"error": {"code", "message"}} into *APIError, so callers can branch
// on the stable code without string matching.
package crowdclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"crowdselect/internal/crowddb"
)

// Options tunes a Client; the zero value selects the defaults noted
// per field.
type Options struct {
	// Timeout bounds each HTTP request end to end (default 10s).
	// Ignored when HTTPClient is set.
	Timeout time.Duration
	// Retries is the maximum number of retry attempts after the first
	// failure (default 3). Negative disables retrying.
	Retries int
	// Backoff is the delay before the first retry; it doubles per
	// attempt, capped at 5s, with up to 50% random jitter subtracted so
	// synchronized clients fan out (default 200ms).
	Backoff time.Duration
	// HTTPClient overrides the transport entirely (tests, custom TLS).
	HTTPClient *http.Client
	// Sleep replaces time.Sleep between retries (test hook).
	Sleep func(time.Duration)

	// BreakerThreshold is the number of consecutive transport failures
	// that opens the circuit breaker (default 5; negative disables the
	// breaker). Only transport errors count: a server answering any
	// HTTP status — even 503 — is alive, so shed and degraded responses
	// never open the breaker and selections keep flowing.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before one
	// half-open trial request is let through (default 1s). The trial's
	// outcome closes the breaker or re-opens it for another cooldown.
	BreakerCooldown time.Duration
	// RetryBudget is a token bucket bounding retries across the whole
	// client, so many concurrent callers cannot multiply a retry storm:
	// each retry spends one token, each successful request refunds one,
	// and when the bucket is empty requests fail after their first
	// attempt (default 10; negative disables the budget).
	RetryBudget int
	// Seed seeds the client's private jitter source; 0 seeds from the
	// clock. Each client owns its randomness — nothing touches the
	// global math/rand state.
	Seed int64
	// Clock replaces time.Now for the breaker cooldown (test hook).
	Clock func() time.Time
	// FleetToken authenticates fleet-control requests when the server
	// gates /api/v1/replication/* (Server.SetFleetToken). Sent as
	// "Authorization: Bearer <token>" on every request; empty sends
	// nothing.
	FleetToken string
	// Tenant scopes the client to one tenant namespace: every
	// /api/v1/... path is rewritten to /api/v1/t/{tenant}/... before it
	// leaves the client, so the whole typed surface (and Do) addresses
	// that tenant's crowd. Empty or "default" keeps the un-prefixed
	// paths — an exact alias for the default tenant. See also
	// Client.ForTenant for deriving scoped views from one client.
	Tenant string
}

// Client talks to one crowdd base URL. It is safe for concurrent use.
type Client struct {
	base       string
	hc         *http.Client
	retries    int
	backoff    time.Duration
	sleep      func(time.Duration)
	fleetToken string
	tenant     string // "": default tenant (un-prefixed paths)

	brk    *breaker     // nil: breaker disabled
	budget *retryBudget // nil: unbounded retries

	rngMu sync.Mutex
	rng   *rand.Rand

	gossip *epochGossip // never nil; shared across a Multi's clients
}

// epochGossip remembers the highest fencing epoch seen for the
// history this client (or Multi) talks to, and echoes it on every
// request as an advisory hint. Servers never trust the echo — an
// inbound header that could seal a node would let any client forge a
// deposition — but it rides along for diagnostics, and the remembered
// epoch is what lets the Multi re-resolve after a fenced refusal
// (DESIGN §12).
type epochGossip struct {
	mu      sync.Mutex
	history string
	epoch   uint64
}

func (g *epochGossip) load() (string, uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.history, g.epoch
}

// observe folds in a server-advertised (history, epoch) pair. Within
// one history the epoch is monotone; a different history replaces the
// pair outright (the client now talks to another lineage — after a
// wipe, positions and epochs from the old one mean nothing).
func (g *epochGossip) observe(history string, epoch uint64) {
	if history == "" || epoch == 0 {
		return
	}
	g.mu.Lock()
	if history == g.history {
		if epoch > g.epoch {
			g.epoch = epoch
		}
	} else {
		g.history, g.epoch = history, epoch
	}
	g.mu.Unlock()
}

// New returns a client for the crowdd at baseURL (e.g.
// "http://localhost:8080"); a trailing slash is trimmed.
func New(baseURL string, opts Options) *Client {
	if opts.Timeout <= 0 {
		opts.Timeout = 10 * time.Second
	}
	if opts.Retries == 0 {
		opts.Retries = 3
	} else if opts.Retries < 0 {
		opts.Retries = 0
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 200 * time.Millisecond
	}
	if opts.HTTPClient == nil {
		opts.HTTPClient = &http.Client{Timeout: opts.Timeout}
	}
	if opts.Sleep == nil {
		opts.Sleep = time.Sleep
	}
	if opts.BreakerThreshold == 0 {
		opts.BreakerThreshold = 5
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = time.Second
	}
	if opts.RetryBudget == 0 {
		opts.RetryBudget = 10
	}
	if opts.Seed == 0 {
		opts.Seed = time.Now().UnixNano()
	}
	c := &Client{
		base:       strings.TrimRight(baseURL, "/"),
		hc:         opts.HTTPClient,
		retries:    opts.Retries,
		backoff:    opts.Backoff,
		sleep:      opts.Sleep,
		fleetToken: opts.FleetToken,
		tenant:     normalizeTenant(opts.Tenant),
		rng:        rand.New(rand.NewSource(opts.Seed)),
		gossip:     &epochGossip{},
	}
	if opts.BreakerThreshold > 0 {
		c.brk = newBreaker(opts.BreakerThreshold, opts.BreakerCooldown, opts.Clock)
	}
	if opts.RetryBudget > 0 {
		c.budget = newRetryBudget(opts.RetryBudget)
	}
	return c
}

// normalizeTenant maps the default tenant's explicit name to the
// empty string, so "default" and "" build byte-identical requests.
func normalizeTenant(name string) string {
	if name == crowddb.DefaultTenant {
		return ""
	}
	return name
}

// ForTenant derives a client scoped to one tenant namespace: every
// /api/v1/... path it issues is rewritten to /api/v1/t/{name}/....
// The view shares the parent's transport, circuit breaker, retry
// budget and epoch gossip — tenancy scopes the paths, not the
// resilience state, so a breaker opened by one tenant's traffic
// protects the others from the same dead server. name "default" (or
// "") returns a view on the un-prefixed paths.
func (c *Client) ForTenant(name string) *Client {
	c.rngMu.Lock()
	seed := c.rng.Int63()
	c.rngMu.Unlock()
	return &Client{
		base:       c.base,
		hc:         c.hc,
		retries:    c.retries,
		backoff:    c.backoff,
		sleep:      c.sleep,
		fleetToken: c.fleetToken,
		tenant:     normalizeTenant(name),
		brk:        c.brk,
		budget:     c.budget,
		rng:        rand.New(rand.NewSource(seed)),
		gossip:     c.gossip,
	}
}

// Tenant reports the namespace this client is scoped to ("default"
// for an unscoped client).
func (c *Client) Tenant() string {
	if c.tenant == "" {
		return crowddb.DefaultTenant
	}
	return c.tenant
}

// scopePath maps a canonical /api/v1/... path into the client's
// tenant namespace; non-API paths (/readyz, /healthz) pass through.
func (c *Client) scopePath(path string) string {
	if c.tenant == "" {
		return path
	}
	if rest, ok := strings.CutPrefix(path, "/api/v1/"); ok {
		return "/api/v1/t/" + c.tenant + "/" + rest
	}
	return path
}

// ClientStats snapshots the client's resilience counters.
type ClientStats struct {
	BreakerState     string  `json:"breaker_state"`
	BreakerOpens     int64   `json:"breaker_opens"`
	BreakerFastFails int64   `json:"breaker_fast_fails"`
	RetryTokens      float64 `json:"retry_tokens"`
}

// ResilienceStats snapshots the breaker and retry-budget counters.
// (Stats, by contrast, is the server's GET /api/v1/stats.)
func (c *Client) ResilienceStats() ClientStats {
	st := ClientStats{BreakerState: "disabled", RetryTokens: -1}
	if c.brk != nil {
		st.BreakerState, st.BreakerOpens, st.BreakerFastFails = c.brk.snapshot()
	}
	if c.budget != nil {
		st.RetryTokens = c.budget.level()
	}
	return st
}

// APIError is a non-2xx response, carrying the server's error envelope
// when it sent one.
type APIError struct {
	// StatusCode is the HTTP status, e.g. 404.
	StatusCode int
	// Status is the full status line, e.g. "404 Not Found".
	Status string
	// Code is the envelope's machine-readable class ("bad_request",
	// "not_found", …); empty when the body was not an envelope.
	Code string
	// Message is the envelope's human-readable detail, or the raw body.
	Message string
	// RetryAfter is the server's Retry-After hint, when it sent one
	// (shed 503s do); zero otherwise.
	RetryAfter time.Duration
	// Primary is the X-Crowdd-Primary redirect a replica attaches to
	// not_primary (421) refusals: the base URL mutations should go to.
	Primary string
	// ShardOwner is the owning shard index a sharded node attaches to
	// wrong_shard (421) refusals via X-Crowdd-Shard-Owner; -1 when
	// absent.
	ShardOwner int
	// ShardOwnerURL is the owner's base URL (X-Crowdd-Shard-Owner-URL)
	// when the refusing node's topology knows it.
	ShardOwnerURL string
	// FencingEpoch is the refusing node's advertised fencing epoch
	// (X-Crowdd-Fencing-Epoch); on a 409 fenced refusal it is the
	// epoch that deposed the node. Zero when absent.
	FencingEpoch uint64
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("%s: %s [%s]", e.Status, e.Message, e.Code)
	}
	return fmt.Sprintf("%s: %s", e.Status, e.Message)
}

// backoffFor computes the delay before retry attempt n (1-based):
// exponential from the base, capped at 5s, with up to 50% random
// jitter subtracted (from the client's private source).
func (c *Client) backoffFor(n int) time.Duration {
	d := c.backoff << (n - 1)
	if max := 5 * time.Second; d > max {
		d = max
	}
	c.rngMu.Lock()
	jitter := c.rng.Int63n(int64(d)/2 + 1)
	c.rngMu.Unlock()
	return d - time.Duration(jitter)
}

// idempotent reports whether a request may be repeated safely: GETs,
// and POST .../selections — a pure model read that stores nothing, so
// replaying it cannot double-apply. The suffix match covers both the
// un-prefixed and the tenant-scoped (/api/v1/t/{tenant}/selections)
// spellings. POST .../query is not on the list: a SELECT CROWD
// submits tasks.
func idempotent(method, url string) bool {
	return method == http.MethodGet ||
		(method == http.MethodPost && strings.HasSuffix(url, "/selections") && strings.Contains(url, "/api/"))
}

// retriableErr reports whether a transport error may be retried for
// the given request. Idempotent requests are fair game on any
// transport failure; for mutating requests only dial errors are safe —
// the request never reached the server, so retrying cannot
// double-apply.
func retriableErr(method, url string, err error) bool {
	if idempotent(method, url) {
		return true
	}
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// attempt issues one HTTP request through the circuit breaker. The
// breaker records only what the attempt proved: an HTTP response of
// any status is a success (the server is alive), a transport error is
// a failure, and a context cancelled by the caller is neutral.
func (c *Client) attempt(ctx context.Context, method, url string, body []byte) (*http.Response, error) {
	if c.brk != nil {
		if err := c.brk.allow(); err != nil {
			return nil, err
		}
	}
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, reader)
	if err != nil {
		if c.brk != nil {
			c.brk.neutral()
		}
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if h, e := c.gossip.load(); h != "" {
		req.Header.Set("X-Crowdd-History", h)
		req.Header.Set("X-Crowdd-Fencing-Epoch", strconv.FormatUint(e, 10))
	}
	if c.fleetToken != "" {
		req.Header.Set("Authorization", "Bearer "+c.fleetToken)
	}
	resp, err := c.hc.Do(req)
	if err == nil {
		if e, perr := strconv.ParseUint(resp.Header.Get("X-Crowdd-Fencing-Epoch"), 10, 64); perr == nil {
			c.gossip.observe(resp.Header.Get("X-Crowdd-History"), e)
		}
	}
	if c.brk != nil {
		switch {
		case err == nil:
			c.brk.record(true)
		case ctx.Err() != nil:
			c.brk.neutral()
		default:
			c.brk.record(false)
		}
	}
	return resp, err
}

// do issues the request with the full resilience policy: the circuit
// breaker fails fast while the server is unreachable, the token-bucket
// retry budget bounds retries across the whole client, transport
// errors retry per retriableErr, 5xx responses retry on idempotent
// requests (honoring the server's Retry-After as a floor on the next
// backoff). The response is the first success or non-retriable status;
// err is the final failure after the per-request retry cap or the
// shared budget is spent. A cancelled ctx stops the retry loop.
func (c *Client) do(ctx context.Context, method, url string, body []byte) (*http.Response, error) {
	idem := idempotent(method, url)
	var lastErr error
	var retryHint time.Duration
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			if c.budget != nil && !c.budget.take() {
				return nil, fmt.Errorf("retry budget exhausted after %d attempts: %w", attempt, lastErr)
			}
			delay := c.backoffFor(attempt)
			// A shedding server's Retry-After is a floor, not a cap:
			// coming back sooner than it asked just gets shed again.
			if retryHint > delay {
				delay = retryHint
			}
			retryHint = 0
			c.sleep(delay)
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		resp, err := c.attempt(ctx, method, url, body)
		if err != nil {
			lastErr = err
			if errors.Is(err, ErrCircuitOpen) {
				// The breaker already knows the server is unreachable;
				// burning retries against it helps nobody.
				return nil, fmt.Errorf("after %d attempts: %w", attempt+1, err)
			}
			if ctx.Err() != nil || !retriableErr(method, url, err) {
				return nil, err
			}
			continue
		}
		if resp.StatusCode >= 500 && idem && attempt < c.retries {
			if hint := parseRetryAfter(resp.Header.Get("Retry-After")); hint > 0 {
				if max := 10 * time.Second; hint > max {
					hint = max
				}
				retryHint = hint
			}
			payload, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			lastErr = fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(payload)))
			continue
		}
		if resp.StatusCode < 500 && c.budget != nil {
			c.budget.refund()
		}
		return resp, nil
	}
	return nil, fmt.Errorf("after %d attempts: %w", c.retries+1, lastErr)
}

// Do issues one API request and returns the raw response payload; path
// is relative to the base URL (e.g. "/api/v1/stats") and a non-nil
// body is sent as JSON. On a tenant-scoped client, /api/v1/... paths
// are rewritten into the tenant namespace before they leave. Non-2xx
// responses return *APIError. Typed methods below cover the whole v1
// surface; Do is the escape hatch for endpoints with free-form
// payloads (query, metrics).
func (c *Client) Do(ctx context.Context, method, path string, body any) ([]byte, error) {
	var payload []byte
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		payload = b
	}
	resp, err := c.do(ctx, method, c.base+c.scopePath(path), payload)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		return nil, apiError(resp, out)
	}
	return out, nil
}

// apiError builds the *APIError for a non-2xx response, decoding the
// server's envelope when present.
func apiError(resp *http.Response, body []byte) *APIError {
	e := &APIError{
		StatusCode:    resp.StatusCode,
		Status:        resp.Status,
		Message:       strings.TrimSpace(string(body)),
		RetryAfter:    parseRetryAfter(resp.Header.Get("Retry-After")),
		Primary:       resp.Header.Get("X-Crowdd-Primary"),
		ShardOwner:    -1,
		ShardOwnerURL: resp.Header.Get("X-Crowdd-Shard-Owner-URL"),
	}
	if v := resp.Header.Get("X-Crowdd-Shard-Owner"); v != "" {
		if owner, err := strconv.Atoi(v); err == nil {
			e.ShardOwner = owner
		}
	}
	if v := resp.Header.Get("X-Crowdd-Fencing-Epoch"); v != "" {
		if epoch, err := strconv.ParseUint(v, 10, 64); err == nil {
			e.FencingEpoch = epoch
		}
	}
	var env crowddb.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
		e.Code = env.Error.Code
		e.Message = env.Error.Message
	}
	return e
}

// parseRetryAfter decodes a Retry-After header in either RFC form —
// delta-seconds or an HTTP date — into a non-negative duration; zero
// means absent or unparseable.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// get decodes a GET response into out.
func (c *Client) get(ctx context.Context, path string, out any) error {
	b, err := c.Do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, out)
}

// post sends body and, when out is non-nil, decodes the response.
func (c *Client) post(ctx context.Context, path string, body, out any) error {
	b, err := c.Do(ctx, http.MethodPost, path, body)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}

// SubmitTask submits one task (POST /api/v1/tasks); k ≤ 0 selects the
// server's default crowd size.
func (c *Client) SubmitTask(ctx context.Context, text string, k int) (crowddb.SubmitResponse, error) {
	var out crowddb.SubmitResponse
	err := c.post(ctx, "/api/v1/tasks", crowddb.SubmitRequest{Text: text, K: k}, &out)
	return out, err
}

// SubmitBatch submits a whole batch in one round trip
// (POST /api/v1/tasks:batch) and returns one result per task, in
// request order.
func (c *Client) SubmitBatch(ctx context.Context, tasks []crowddb.SubmitRequest) ([]crowddb.SubmitResponse, error) {
	var out crowddb.BatchSubmitResponse
	err := c.post(ctx, "/api/v1/tasks:batch", crowddb.BatchSubmitRequest{Tasks: tasks}, &out)
	return out.Results, err
}

// selections posts one POST /api/v1/selections body.
func (c *Client) selections(ctx context.Context, req crowddb.BatchSubmitRequest) (crowddb.SelectionsResponse, error) {
	var out crowddb.SelectionsResponse
	err := c.post(ctx, "/api/v1/selections", req, &out)
	return out, err
}

// Selections ranks crowds for a batch of task texts without storing
// anything (POST /api/v1/selections) — the pure read that keeps
// answering while the server is in degraded read-only mode. It is
// idempotent, so the client retries it on any transport failure.
func (c *Client) Selections(ctx context.Context, tasks []crowddb.SubmitRequest) (crowddb.SelectionsResponse, error) {
	return c.selections(ctx, crowddb.BatchSubmitRequest{Tasks: tasks})
}

// SelectionsScored is Selections with include_scores set: each result
// carries the workers' Eq. 1 scores, parallel to the ranking. Scored
// selections are the text leg of scatter-gather — scores are what
// make per-shard top-k lists mergeable.
func (c *Client) SelectionsScored(ctx context.Context, tasks []crowddb.SubmitRequest) (crowddb.SelectionsResponse, error) {
	return c.selections(ctx, crowddb.BatchSubmitRequest{Tasks: tasks, IncludeScores: true})
}

// SelectionsProjected is SelectionsScored with include_categories set:
// the response also carries each task's projected category and the
// server's category version — the projecting leg of a fleet selection.
func (c *Client) SelectionsProjected(ctx context.Context, tasks []crowddb.SubmitRequest) (crowddb.SelectionsResponse, error) {
	return c.selections(ctx, crowddb.BatchSubmitRequest{Tasks: tasks, IncludeScores: true, IncludeCategories: true})
}

// SelectionsByCategory asks for scored selections against categories
// another node projected (SelectionsProjected) instead of task texts —
// the score-only leg of a fleet selection. tasks carry k only. A server
// whose category parameters are not the ones version names refuses with
// 409 category_mismatch.
func (c *Client) SelectionsByCategory(ctx context.Context, tasks []crowddb.SubmitRequest, categories [][]float64, version string) (crowddb.SelectionsResponse, error) {
	return c.selections(ctx, crowddb.BatchSubmitRequest{Tasks: tasks, Categories: categories, CategoryVersion: version})
}

// SkillFeedback folds feedback scores into the posteriors of workers
// this server owns, without touching a task row
// (POST /api/v1/skills:feedback) — the cross-shard red path. A server
// that does not own one of the scored workers refuses with 421
// wrong_shard and an owner hint. forwardOf >= 0 keys the request to
// the home-shard task it forwards, making it idempotent at the owner:
// retrying a failed leg cannot double-fold a posterior. forwardOf < 0
// sends unkeyed model-only feedback.
func (c *Client) SkillFeedback(ctx context.Context, forwardOf int, taskText string, scores map[int]float64) error {
	wire := make(map[string]float64, len(scores))
	for w, s := range scores {
		wire[strconv.Itoa(w)] = s
	}
	body := map[string]any{"text": taskText, "scores": wire}
	if forwardOf >= 0 {
		body["task"] = forwardOf
	}
	return c.post(ctx, "/api/v1/skills:feedback", body, nil)
}

// Topology fetches the server's live fleet layout
// (GET /api/v1/topology). Every node serves it, replicas included.
func (c *Client) Topology(ctx context.Context) (crowddb.Topology, error) {
	var out crowddb.Topology
	err := c.get(ctx, "/api/v1/topology", &out)
	return out, err
}

// PushTopology installs a new fleet layout on the server
// (POST /api/v1/topology). A document whose epoch is older than the
// server's current one is refused with 409 stale_epoch.
func (c *Client) PushTopology(ctx context.Context, doc crowddb.Topology) (crowddb.Topology, error) {
	var out crowddb.Topology
	err := c.post(ctx, "/api/v1/topology", doc, &out)
	return out, err
}

// GetTask fetches a stored task (GET /api/v1/tasks/{id}).
func (c *Client) GetTask(ctx context.Context, id int) (crowddb.TaskRecord, error) {
	var out crowddb.TaskRecord
	err := c.get(ctx, "/api/v1/tasks/"+strconv.Itoa(id), &out)
	return out, err
}

// Answer records one worker's answer
// (POST /api/v1/tasks/{id}/answers).
func (c *Client) Answer(ctx context.Context, taskID, workerID int, answer string) error {
	return c.post(ctx, fmt.Sprintf("/api/v1/tasks/%d/answers", taskID),
		map[string]any{"worker": workerID, "answer": answer}, nil)
}

// Feedback resolves a task with per-worker scores
// (POST /api/v1/tasks/{id}/feedback) and returns the resolved record.
func (c *Client) Feedback(ctx context.Context, taskID int, scores map[int]float64) (crowddb.TaskRecord, error) {
	wire := make(map[string]float64, len(scores))
	for w, s := range scores {
		wire[strconv.Itoa(w)] = s
	}
	var out crowddb.TaskRecord
	err := c.post(ctx, fmt.Sprintf("/api/v1/tasks/%d/feedback", taskID),
		map[string]any{"scores": wire}, &out)
	return out, err
}

// GetWorker fetches a worker row (GET /api/v1/workers/{id}).
func (c *Client) GetWorker(ctx context.Context, id int) (crowddb.Worker, error) {
	var out crowddb.Worker
	err := c.get(ctx, "/api/v1/workers/"+strconv.Itoa(id), &out)
	return out, err
}

// SetPresence flips a worker's online flag
// (POST /api/v1/workers/{id}/presence).
func (c *Client) SetPresence(ctx context.Context, id int, online bool) error {
	return c.post(ctx, fmt.Sprintf("/api/v1/workers/%d/presence", id),
		map[string]any{"online": online}, nil)
}

// Stats fetches the crowd database counters (GET /api/v1/stats).
func (c *Client) Stats(ctx context.Context) (crowddb.StatsResponse, error) {
	var out crowddb.StatsResponse
	err := c.get(ctx, "/api/v1/stats", &out)
	return out, err
}

// Query runs one crowdql statement (POST /api/v1/query) and returns
// the raw JSON result.
func (c *Client) Query(ctx context.Context, q string) (json.RawMessage, error) {
	return c.Do(ctx, http.MethodPost, "/api/v1/query", map[string]string{"q": q})
}

// ReadyStatus fetches the full readiness payload (GET /readyz),
// including the server's replication role and lag when it reports
// them, so operators and the Multi client can tell a primary from a
// replica.
func (c *Client) ReadyStatus(ctx context.Context) (crowddb.ReadyzResponse, error) {
	var out crowddb.ReadyzResponse
	err := c.get(ctx, "/readyz", &out)
	return out, err
}

// Digest fetches the node's integrity digest cut
// (GET /api/v1/digest): the combined state fingerprint at the node's
// current applied position. Two nodes of the same tenant at the same
// seq must return the same digest; `crowdctl verify` sweeps a fleet
// with it.
func (c *Client) Digest(ctx context.Context) (crowddb.DigestCut, error) {
	var out crowddb.DigestCut
	err := c.get(ctx, "/api/v1/digest", &out)
	return out, err
}

// Promote asks the server to become the primary
// (POST /api/v1/replication/promote): a replica seals its stream,
// replays the journal to its tail, and flips roles; a server that is
// already primary answers idempotently. The returned status reflects
// the post-promotion state.
func (c *Client) Promote(ctx context.Context) (crowddb.ReplicationStatus, error) {
	var out crowddb.ReplicationStatus
	err := c.post(ctx, "/api/v1/replication/promote", nil, &out)
	return out, err
}

// FenceNode delivers a fence order (POST /api/v1/replication/fence):
// epoch exists for history, newPrimary (optional) is where writes go
// now. A node whose own epoch is lower seals itself; the response is
// its resulting fence status, so the caller checks Fencing.Sealed and
// Fencing.Observed rather than inferring from the status code.
func (c *Client) FenceNode(ctx context.Context, history string, epoch uint64, newPrimary string) (crowddb.FenceResponse, error) {
	var out crowddb.FenceResponse
	err := c.post(ctx, "/api/v1/replication/fence", crowddb.FenceRequest{
		History: history, Epoch: epoch, NewPrimary: newPrimary,
	}, &out)
	return out, err
}

// RenewLease renews the supervisor's mutation lease
// (POST /api/v1/replication/lease). The first renewal arms the lease:
// from then on the node seals itself whenever the lease lapses, so a
// primary that loses its supervisor stops acking before the
// supervisor promotes a successor. A node already deposed by epoch
// refuses with 409 fenced.
func (c *Client) RenewLease(ctx context.Context, holder string, ttl time.Duration) (crowddb.ReadyzResponse, error) {
	var out crowddb.ReadyzResponse
	err := c.post(ctx, "/api/v1/replication/lease", crowddb.LeaseRequest{
		Holder: holder, TTLMs: ttl.Milliseconds(),
	}, &out)
	return out, err
}

// SealLease steps the node down (POST /api/v1/replication/lease with
// seal set): its lease is set already-lapsed, so mutations refuse 409
// fenced immediately — and reversibly, since a plain RenewLease
// un-seals it. The drain handoff seals the outgoing primary first,
// freezing its head, before verifying the successor caught up.
func (c *Client) SealLease(ctx context.Context, holder string) (crowddb.ReadyzResponse, error) {
	var out crowddb.ReadyzResponse
	err := c.post(ctx, "/api/v1/replication/lease", crowddb.LeaseRequest{
		Holder: holder, Seal: true,
	}, &out)
	return out, err
}
