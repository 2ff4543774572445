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
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"crowdselect/internal/clock"
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

	// BreakerThreshold is the number of consecutive transport failures
	// that opens the circuit breaker (default 5; negative disables the
	// breaker). Only transport errors count: a server answering any
	// HTTP status — even 503 — is alive, so shed and degraded responses
	// never open the breaker and selections keep flowing.
	BreakerThreshold int
	// RetryBudget is a token bucket bounding retries across the whole
	// client, so many concurrent callers cannot multiply a retry storm:
	// each retry spends one token, each successful request refunds one,
	// and when the bucket is empty requests fail after their first
	// attempt (default 10; negative disables the budget).
	RetryBudget int
	// Clock times the retry backoff and the breaker's cooldown
	// (default clock.Real).
	Clock clock.Clock
	// FleetToken authenticates fleet-control requests when the server
	// gates /api/v1/replication/* (crowddb.NodeConfig.FleetToken). Sent as
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
	api // the typed data surface, over call

	base       string
	hc         *http.Client
	retries    int
	backoff    time.Duration
	clock      clock.Clock
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
	if opts.BreakerThreshold == 0 {
		opts.BreakerThreshold = 5
	}
	if opts.RetryBudget == 0 {
		opts.RetryBudget = 10
	}
	c := &Client{
		base:       strings.TrimRight(baseURL, "/"),
		hc:         opts.HTTPClient,
		retries:    opts.Retries,
		backoff:    opts.Backoff,
		clock:      cmp.Or(opts.Clock, clock.Real),
		fleetToken: opts.FleetToken,
		tenant:     normalizeTenant(opts.Tenant),
		rng:        rand.New(rand.NewSource(time.Now().UnixNano())),
		gossip:     &epochGossip{},
	}
	c.api = api{c}
	if opts.BreakerThreshold > 0 {
		c.brk = &breaker{threshold: opts.BreakerThreshold, clock: c.clock}
	}
	if opts.RetryBudget > 0 {
		c.budget = &retryBudget{tokens: float64(opts.RetryBudget), limit: float64(opts.RetryBudget)}
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
	v := &Client{
		base:       c.base,
		hc:         c.hc,
		retries:    c.retries,
		backoff:    c.backoff,
		clock:      c.clock,
		fleetToken: c.fleetToken,
		tenant:     normalizeTenant(name),
		brk:        c.brk,
		budget:     c.budget,
		rng:        rand.New(rand.NewSource(seed)),
		gossip:     c.gossip,
	}
	v.api = api{v}
	return v
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

	kind error // the error table's typed error for StatusCode and Code
}

// Unwrap is the refusal's typed error in the server's error table
// (crowddb.ErrorFor), so callers test errors.Is(err, crowddb.ErrFenced);
// nil for a code the table does not hold.
func (e *APIError) Unwrap() error { return e.kind }

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

// idempotent reports whether a request on a canonical path may be
// repeated safely. The route table decides (crowddb.RouteOf): GETs,
// and POST /api/v1/selections — a pure model read that stores nothing,
// so replaying it cannot double-apply. POST /api/v1/query is not: a
// SELECT CROWD submits tasks.
func idempotent(method, path string) bool {
	read, _, _ := crowddb.RouteOf(method, path)
	return read
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
// errors retry when idem or when the dial failed (a mutation that
// never reached the server cannot double-apply), 5xx responses retry
// when idem (honoring the server's Retry-After as a floor on the next
// backoff). The response is the first success or non-retriable status;
// err is the final failure after the per-request retry cap or the
// shared budget is spent. A cancelled ctx stops the retry loop.
func (c *Client) do(ctx context.Context, method, url string, idem bool, body []byte) (*http.Response, error) {
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
			if err := c.clock.Sleep(ctx, delay); err != nil {
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
			if ctx.Err() != nil || !(idem || dialErr(err)) {
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
// responses return *APIError. The typed methods cover the v1 surface
// but for the metrics snapshot; Do is the escape hatch for it and for
// hand-built requests. path is the canonical spelling: its route-table
// row decides whether the request is retried (idempotent).
func (c *Client) Do(ctx context.Context, method, path string, body any) ([]byte, error) {
	var payload []byte
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		payload = b
	}
	var out bytes.Buffer
	if err := c.exchange(ctx, method, path, payload, &out); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// exchange sends payload on the canonical path through do and reads the
// answer into buf. A non-2xx answer is its *APIError.
func (c *Client) exchange(ctx context.Context, method, path string, payload []byte, buf *bytes.Buffer) error {
	resp, err := c.do(ctx, method, c.base+c.scopePath(path), idempotent(method, path), payload)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return apiError(resp, buf.Bytes())
	}
	return nil
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
	e.kind = crowddb.ErrorFor(e.StatusCode, e.Code)
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

// call sends one request and, when out is non-nil, decodes the
// response into it.
func (c *Client) call(ctx context.Context, method, path string, body, out any) error {
	b, err := c.Do(ctx, method, path, body)
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(b, out)
}

// PushTopology installs a new fleet layout on the server
// (POST /api/v1/topology). A document whose epoch is older than the
// server's current one is refused with 409 stale_epoch.
func (c *Client) PushTopology(ctx context.Context, doc crowddb.Topology) (crowddb.Topology, error) {
	var out crowddb.Topology
	err := c.call(ctx, http.MethodPost, "/api/v1/topology", doc, &out)
	return out, err
}

// ReadyStatus fetches the full readiness payload (GET /readyz),
// including the server's replication role and lag when it reports
// them, so operators and the Multi client can tell a primary from a
// replica.
func (c *Client) ReadyStatus(ctx context.Context) (crowddb.ReadyzResponse, error) {
	var out crowddb.ReadyzResponse
	err := c.call(ctx, http.MethodGet, "/readyz", nil, &out)
	return out, err
}

// Digest fetches the node's integrity digest cut
// (GET /api/v1/digest): the combined state fingerprint at the node's
// current applied position. Two nodes of the same tenant at the same
// seq must return the same digest; `crowdctl verify` sweeps a fleet
// with it.
func (c *Client) Digest(ctx context.Context) (crowddb.DigestCut, error) {
	var out crowddb.DigestCut
	err := c.call(ctx, http.MethodGet, "/api/v1/digest", nil, &out)
	return out, err
}

// Promote asks the server to become the primary
// (POST /api/v1/replication/promote): a replica seals its stream,
// replays the journal to its tail, and flips roles; a server that is
// already primary answers idempotently. The returned status reflects
// the post-promotion state.
func (c *Client) Promote(ctx context.Context) (crowddb.ReplicationStatus, error) {
	var out crowddb.ReplicationStatus
	err := c.call(ctx, http.MethodPost, "/api/v1/replication/promote", nil, &out)
	return out, err
}

// FenceNode delivers a fence order (POST /api/v1/replication/fence):
// epoch exists for history, newPrimary (optional) is where writes go
// now. A node whose own epoch is lower seals itself; the response is
// its resulting fence status, so the caller checks Fencing.Sealed and
// Fencing.Observed rather than inferring from the status code.
func (c *Client) FenceNode(ctx context.Context, history string, epoch uint64, newPrimary string) (crowddb.FenceResponse, error) {
	var out crowddb.FenceResponse
	err := c.call(ctx, http.MethodPost, "/api/v1/replication/fence", crowddb.FenceRequest{
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
	err := c.call(ctx, http.MethodPost, "/api/v1/replication/lease", crowddb.LeaseRequest{
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
	err := c.call(ctx, http.MethodPost, "/api/v1/replication/lease", crowddb.LeaseRequest{
		Holder: holder, Seal: true,
	}, &out)
	return out, err
}
