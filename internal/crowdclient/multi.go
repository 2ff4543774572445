package crowdclient

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync/atomic"

	"crowdselect/internal/crowddb"
)

// Multi fans one logical client across a primary and its read
// replicas. It routes each request by its route-table row
// (crowddb.RouteOf), so the policy is the server's gate seen from the
// client:
//
//   - Reads (every GET and the pure selection POST) round-robin across
//     every endpoint and fail over to the next on transport errors, an open
//     breaker, 5xx, or a not_primary refusal — any healthy copy of the
//     model answers a read.
//   - Writes (every other row: mutations and crowdql statements) go
//     to the believed primary only. Failover is deliberately
//     narrow: the Multi moves to another endpoint only when the error
//     proves the mutation was not applied — the breaker was open or
//     the dial failed (the request never reached a server), or the
//     server itself refused with not_primary (421) or fenced (409), in
//     which case the X-Crowdd-Primary redirect is followed when it
//     names a configured endpoint and the refuser is forgotten as the
//     believed primary. A generic transport error mid-request is returned to
//     the caller instead, because retrying it elsewhere could
//     double-apply.
//
// After a failover the Multi remembers the endpoint that accepted the
// write as the new believed primary, so steady-state traffic pays no
// discovery cost. It is safe for concurrent use.
type Multi struct {
	api // the typed data surface, over call

	clients   []*Client
	endpoints []string
	primary   atomic.Int64 // index of the believed primary
	rr        atomic.Int64 // round-robin cursor for reads
	failovers atomic.Int64
}

// NewMulti builds a Multi over the given base URLs — the first is the
// initial believed primary — sharing one Options across the per-
// endpoint clients. At least one endpoint is required.
func NewMulti(endpoints []string, opts Options) (*Multi, error) {
	if len(endpoints) == 0 {
		return nil, errors.New("crowdclient: NewMulti needs at least one endpoint")
	}
	m := &Multi{}
	m.api = api{m}
	for _, e := range endpoints {
		c := New(e, opts)
		m.clients = append(m.clients, c)
		m.endpoints = append(m.endpoints, c.base)
	}
	// One epoch-gossip store across the fleet: a fencing epoch learned
	// from any endpoint is echoed to all of them, so the Multi itself
	// carries the seal to a deposed primary it can still reach.
	for _, c := range m.clients[1:] {
		c.gossip = m.clients[0].gossip
	}
	return m, nil
}

// ForTenant derives a Multi scoped to one tenant namespace: every
// per-endpoint client is the corresponding ForTenant view, sharing
// the parent's breakers, retry budgets and epoch gossip. The believed
// primary carries over — tenants share one replication topology, so
// what one tenant's traffic learned about who is primary is equally
// true for the others. Failover counters start fresh per view.
func (m *Multi) ForTenant(name string) *Multi {
	nm := &Multi{endpoints: append([]string(nil), m.endpoints...)}
	nm.api = api{nm}
	for _, c := range m.clients {
		nm.clients = append(nm.clients, c.ForTenant(name))
	}
	nm.primary.Store(m.primary.Load())
	return nm
}

// Tenant reports the namespace this Multi is scoped to ("default"
// for an unscoped Multi).
func (m *Multi) Tenant() string { return m.clients[0].Tenant() }

// Endpoints returns the configured base URLs in order.
func (m *Multi) Endpoints() []string {
	out := make([]string, len(m.endpoints))
	copy(out, m.endpoints)
	return out
}

// Primary returns the base URL currently believed to be the primary.
func (m *Multi) Primary() string {
	return m.endpoints[m.primary.Load()]
}

// Failovers counts write-path failovers since construction.
func (m *Multi) Failovers() int64 { return m.failovers.Load() }

// indexOf resolves a base URL (as sent in X-Crowdd-Primary) to a
// configured endpoint index, or -1.
func (m *Multi) indexOf(base string) int {
	base = strings.TrimRight(base, "/")
	for i, e := range m.endpoints {
		if e == base {
			return i
		}
	}
	return -1
}

// redirectErr extracts the *APIError when err is a refusal that carries
// a better primary: a replica's not_primary or a sealed node's fenced.
func redirectErr(err error) *APIError {
	var ae *APIError
	if (errors.Is(err, crowddb.ErrNotPrimary) || errors.Is(err, crowddb.ErrFenced)) && errors.As(err, &ae) {
		return ae
	}
	return nil
}

// dialErr reports whether err proves the request never reached a
// server: the TCP dial itself failed.
func dialErr(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// writeFailover reports whether a write may safely move to another
// endpoint: only when the mutation provably was not applied anywhere.
func writeFailover(err error) bool {
	return errors.Is(err, ErrCircuitOpen) || dialErr(err) || redirectErr(err) != nil
}

// readFailover reports whether a read should try the next endpoint.
// Reads are idempotent, so any failure that another copy might not
// share qualifies: transport errors, an open breaker, 5xx, and
// replica refusals.
func readFailover(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		if errors.Is(ae, crowddb.ErrWrongShard) {
			return false // every copy of this shard refuses identically
		}
		return ae.StatusCode >= 500 || ae.StatusCode == http.StatusMisdirectedRequest
	}
	return true // transport error or ErrCircuitOpen
}

// write runs fn against the believed primary, following not_primary
// redirects and failing over on provably-unapplied errors. Each
// endpoint is tried at most once plus one redirect hop.
func (m *Multi) write(fn func(c *Client) error) error {
	idx := int(m.primary.Load())
	var lastErr error
	for tried := 0; tried <= len(m.clients); tried++ {
		err := fn(m.clients[idx])
		if err == nil {
			if int64(idx) != m.primary.Load() {
				m.primary.Store(int64(idx))
			}
			return nil
		}
		lastErr = err
		if !writeFailover(err) {
			return err
		}
		m.failovers.Add(1)
		next := -1
		if ae := redirectErr(err); ae != nil {
			if ae.Primary != "" {
				next = m.indexOf(ae.Primary)
			}
			// The refuser is certainly not the primary: forget it now, so
			// the next write does not start there even if every endpoint
			// fails this round. The hinted endpoint (or the next in line)
			// becomes the believed primary until a success says otherwise.
			if int64(idx) == m.primary.Load() {
				forget := next
				if forget < 0 {
					forget = (idx + 1) % len(m.clients)
				}
				m.primary.Store(int64(forget))
			}
		}
		if next < 0 {
			next = (idx + 1) % len(m.clients)
		}
		idx = next
	}
	return fmt.Errorf("write failed on every endpoint: %w", lastErr)
}

// nextIndex advances a round-robin cursor over n slots.
func nextIndex(cursor *atomic.Int64, n int) int {
	i := int((cursor.Add(1) - 1) % int64(n))
	if i < 0 {
		i += n
	}
	return i
}

// read runs fn against endpoints in round-robin order, failing over
// until one answers.
func (m *Multi) read(fn func(c *Client) error) error {
	start := nextIndex(&m.rr, len(m.clients))
	var lastErr error
	for i := 0; i < len(m.clients); i++ {
		c := m.clients[(start+i)%len(m.clients)]
		err := fn(c)
		if err == nil {
			return nil
		}
		lastErr = err
		if !readFailover(err) {
			return err
		}
	}
	return fmt.Errorf("read failed on every endpoint: %w", lastErr)
}

// call sends one request by its route-table row (crowddb.RouteOf): a
// request any copy may serve reads round-robin, every other one writes
// to the believed primary. A failed attempt leaves out zeroed, so the
// next endpoint decodes into a clean value.
func (m *Multi) call(ctx context.Context, method, path string, body, out any) error {
	send := func(c *Client) error {
		err := c.call(ctx, method, path, body, out)
		if err != nil && out != nil {
			reflect.ValueOf(out).Elem().SetZero()
		}
		return err
	}
	if read, _, _ := crowddb.RouteOf(method, path); read {
		return m.read(send)
	}
	return m.write(send)
}

// Client returns the per-endpoint client at index i, for direct
// access (promotion, metrics).
func (m *Multi) Client(i int) *Client { return m.clients[i] }
