// Package fleet is the self-healing supervisor over a crowdd fleet
// (DESIGN §12). Given a declared layout — one primary plus warm
// standbys per shard — the supervisor probes every node each
// interval: the primary's probe doubles as a mutation-lease renewal
// (POST /api/v1/replication/lease), standbys answer /readyz with
// their replication lag. When the primary misses SuspectAfter
// consecutive probes AND its lease has provably lapsed, the
// supervisor promotes the most caught-up safe standby (one already
// reporting role primary wins outright: a half-finished failover
// resumes), fences the old primary with the new epoch — retried every
// tick until it acknowledges — and pushes the epoch-bumped topology.
//
// The lease, not the fence order, makes this split-brain safe. A
// renewal whose response is lost still re-armed the lease, so a suspect
// primary (any missed probe) gets side-effect-free /readyz probes, and
// renewals resume only after one answers. The lease gate is
// LeaseTTL+ProbeTimeout since the START of the last renewal attempt (a
// request that crawled in just before its attempt timed out re-armed a
// lease that long); past it the old primary has sealed itself.
//
// The decision is one pure function, step (step.go): it folds one
// round of observations into a shard's view and returns the orders
// that follow, with no lock, clock or I/O. The shell around it fans
// the probes out (shards in parallel; within a shard the primary, the
// standbys and the pending fence together), applies step under mu and
// carries the orders out. Each request has one deadline, its client's
// Timeout (ProbeTimeout), so a probe that times out is a transport
// failure and the client's breaker opens against a dark primary.
// Status() never waits on the network.
//
// Drain is the operator path for rolling restarts: draining a standby
// just drops it from the probe set; draining a primary seals it first
// (a reversible lease step-down), waits for a safe standby to hold
// every record of the frozen head, and only then promotes — so a
// mutation acked in the middle of the handoff cannot be lost.
package fleet

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crowdselect/internal/clock"
	"crowdselect/internal/crowdclient"
	"crowdselect/internal/crowddb"
)

// Node is one crowdd process in the declared fleet.
type Node struct {
	Name string `json:"name,omitempty"`
	URL  string `json:"url"`
}

// ShardFleet declares one shard's serving group.
type ShardFleet struct {
	Shard    int    `json:"shard"`
	Primary  Node   `json:"primary"`
	Standbys []Node `json:"standbys,omitempty"`
}

// Spec is the declared fleet: what `crowdctl supervise -fleet` reads.
type Spec struct {
	Shards []ShardFleet `json:"shards"`
}

// Validate checks the spec names every node exactly once with a URL.
func (sp Spec) Validate() error {
	if len(sp.Shards) == 0 {
		return errors.New("fleet: spec declares no shards")
	}
	seen := make(map[string]bool)
	for i, sh := range sp.Shards {
		if sh.Primary.URL == "" {
			return fmt.Errorf("fleet: shard %d: primary needs a url", i)
		}
		for _, n := range append([]Node{sh.Primary}, sh.Standbys...) {
			if n.URL == "" {
				return fmt.Errorf("fleet: shard %d: node needs a url", i)
			}
			if seen[n.URL] {
				return fmt.Errorf("fleet: node %s declared twice", n.URL)
			}
			seen[n.URL] = true
		}
	}
	return nil
}

// Options tunes the supervisor.
type Options struct {
	// ProbeInterval is the probe cadence (default 500ms).
	ProbeInterval time.Duration
	// ProbeTimeout is each request's one deadline, its client's Timeout
	// (default ProbeInterval). A probe that times out is a transport
	// failure, which the probe client's breaker counts.
	ProbeTimeout time.Duration
	// SuspectAfter is K: consecutive missed primary probes before a
	// failover may begin (default 3).
	SuspectAfter int
	// LeaseTTL is the mutation lease granted on every primary probe.
	// Must stay below SuspectAfter×ProbeInterval — that inequality is
	// the zero-dual-primary-acks guarantee. Default: 3/4 of the bound.
	LeaseTTL time.Duration
	// Holder names this supervisor in lease renewals (default
	// "crowdctl-supervise").
	Holder string
	// FleetToken authenticates probes and orders against nodes that
	// gate their fleet-control surface (crowdd -fleet-token). Empty
	// for open fleets.
	FleetToken string
	// Logf receives lifecycle notices. nil is silent.
	Logf func(format string, args ...any)
	// Clock paces probes and ages leases (default clock.Real).
	Clock clock.Clock
}

// fenceOrder is an unacknowledged fence: retried every tick until the
// target confirms it observed the epoch.
type fenceOrder struct {
	Target     Node   `json:"target"`
	History    string `json:"history"`
	Epoch      uint64 `json:"epoch"`
	NewPrimary string `json:"new_primary"`
}

// shardState holds one shard's view, guarded by the supervisor's mu.
// opMu serializes the network operations (one tick or drain at a time
// per shard) and is the only lock held across I/O.
type shardState struct {
	opMu sync.Mutex // serializes tick/drain per shard; never held with mu
	view view
}

// ShardStatus is one shard's row in Status.
type ShardStatus struct {
	Shard        int               `json:"shard"`
	State        string            `json:"state"`
	Primary      Node              `json:"primary"`
	Standbys     []Node            `json:"standbys"`
	Misses       int               `json:"misses"`
	History      string            `json:"history,omitempty"`
	Epoch        uint64            `json:"epoch,omitempty"`
	Applied      map[string]int64  `json:"applied,omitempty"`
	Reachable    map[string]bool   `json:"reachable,omitempty"`
	Roles        map[string]string `json:"roles,omitempty"`
	Unsafe       map[string]string `json:"unsafe,omitempty"`
	PendingFence *fenceOrder       `json:"pending_fence,omitempty"`
	Fenced       []Node            `json:"fenced,omitempty"`
	Drained      []Node            `json:"drained,omitempty"`
}

// Status is the supervisor's snapshot: GET /status on the admin
// listener.
type Status struct {
	Holder     string        `json:"holder"`
	Ticks      int64         `json:"ticks"`
	Failovers  int64         `json:"failovers"`
	Promotions int64         `json:"promotions"`
	Fences     int64         `json:"fences_acknowledged"`
	Shards     []ShardStatus `json:"shards"`
}

// Supervisor watches a fleet and heals it. Construct with New, drive
// with Run (or Tick from tests), expose with AdminHandler.
type Supervisor struct {
	opts Options

	mu      sync.Mutex    // guards the shards' views and the client map; never held across network I/O
	shards  []*shardState // fixed by New
	clients map[string]*crowdclient.Client

	ticks      atomic.Int64
	promotions atomic.Int64 // every promotion is a failover's
	fences     atomic.Int64
}

// New validates the spec and option coherence (LeaseTTL must undercut
// the suspicion deadline) and returns a supervisor.
func New(spec Spec, opts Options) (*Supervisor, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 500 * time.Millisecond
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = opts.ProbeInterval
	}
	if opts.SuspectAfter <= 0 {
		opts.SuspectAfter = 3
	}
	bound := time.Duration(opts.SuspectAfter) * opts.ProbeInterval
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = bound * 3 / 4
	}
	if opts.LeaseTTL >= bound {
		return nil, fmt.Errorf("fleet: lease ttl %v must stay below suspect-after × probe-interval (%v): the lease must lapse before a failover can begin", opts.LeaseTTL, bound)
	}
	if opts.Holder == "" {
		opts.Holder = "crowdctl-supervise"
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	opts.Clock = cmp.Or(opts.Clock, clock.Real)
	s := &Supervisor{opts: opts, clients: make(map[string]*crowdclient.Client)}
	for _, sh := range spec.Shards {
		s.shards = append(s.shards, &shardState{view: view{
			spec:      sh,
			state:     "healthy",
			applied:   make(map[string]int64),
			reachable: make(map[string]bool),
			roles:     make(map[string]string),
			unsafe:    make(map[string]string),
		}})
		for _, n := range append([]Node{sh.Primary}, sh.Standbys...) {
			s.client(n.URL)
		}
	}
	return s, nil
}

func (s *Supervisor) client(url string) *crowdclient.Client {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.clients[url]; ok {
		return c
	}
	// Timeout is each request's one deadline, so a probe that times out
	// is a transport failure the breaker records. Retries: -1 is none: a
	// missed probe must count as missed, not be papered over.
	c := crowdclient.New(url, crowdclient.Options{Timeout: s.opts.ProbeTimeout, Retries: -1, FleetToken: s.opts.FleetToken, Clock: s.opts.Clock})
	s.clients[url] = c
	return c
}

// Run probes until ctx ends. The first tick fires immediately so a
// fleet is under lease within one probe timeout of supervisor start.
func (s *Supervisor) Run(ctx context.Context) error {
	for {
		next := s.opts.Clock.After(s.opts.ProbeInterval)
		s.Tick(ctx)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-next:
		}
	}
}

// Tick runs one full probe/heal round, all shards in parallel — a
// failover or slow standby in one shard must not delay another
// primary's lease renewal past its TTL. Exported so tests (and the
// drill) can drive the supervisor deterministically.
func (s *Supervisor) Tick(ctx context.Context) {
	s.ticks.Add(1)
	var wg sync.WaitGroup
	for _, sh := range s.shards {
		wg.Add(1)
		go func(sh *shardState) {
			defer wg.Done()
			sh.opMu.Lock()
			defer sh.opMu.Unlock()
			s.tickShard(ctx, sh)
		}(sh)
	}
	wg.Wait()
}

// tickShard gathers one tick's observations and hands them to step.
// The primary's probe, every standby probe and the pending fence retry
// run concurrently, so the slowest answer bounds the tick, not the sum.
func (s *Supervisor) tickShard(ctx context.Context, sh *shardState) {
	s.mu.Lock()
	v := sh.view
	s.mu.Unlock()
	var o obs
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		o.standbys = s.probeStandbys(ctx, v.spec.Standbys)
	}()
	go func() {
		defer wg.Done()
		if v.pending != nil {
			o.fenced = s.fence(ctx, v.spec.Shard, *v.pending)
		}
	}()
	o.leaseAt, o.primary = s.probePrimary(ctx, v.spec.Primary.URL, v.misses > 0)
	wg.Wait()
	s.apply(ctx, sh, o)
}

// apply runs step on o under mu, then carries out its orders, feeding
// what they observe back into step until it orders nothing more.
func (s *Supervisor) apply(ctx context.Context, sh *shardState, o obs) {
	for {
		s.mu.Lock()
		v, orders := step(sh.view, o, s.opts.Clock.Now(), s.opts)
		sh.view = v
		s.mu.Unlock()
		if len(orders) == 0 {
			return
		}
		o = s.execute(ctx, v.spec.Shard, orders)
	}
}

// execute carries out orders in turn and returns what they observed.
// Every request is bounded by its client's Timeout, ProbeTimeout.
func (s *Supervisor) execute(ctx context.Context, shard int, orders []order) obs {
	var o obs
	for _, od := range orders {
		switch od.kind {
		case orderLog:
			s.opts.Logf("%s", od.msg)
		case orderPromote:
			st, err := s.client(od.node.URL).Promote(ctx)
			if err != nil {
				s.opts.Logf("fleet: shard %d: promote %s: %v; will retry", shard, od.node.URL, err)
				continue
			}
			s.promotions.Add(1)
			o.promoted = &promotion{target: od.node, st: st, drain: od.drain}
		case orderFence:
			o.fenced = s.fence(ctx, shard, od.fence)
		case orderTopology:
			s.pushTopology(ctx)
		case orderRenew:
			o.leaseAt = s.opts.Clock.Now()
			if _, err := s.client(od.node.URL).RenewLease(ctx, s.opts.Holder, s.opts.LeaseTTL); err != nil {
				s.opts.Logf("fleet: drain %s: un-seal after abort failed (%v); the next healthy tick renews", od.node.URL, err)
			}
		}
	}
	return o
}

// probePrimary is the primary's half of a tick. A healthy primary
// gets a lease renewal. A suspect one gets a side-effect-free /readyz
// probe instead: a renewal whose response is lost still re-arms the
// lease server-side, so once a response has gone missing the
// supervisor must stop pushing the lease forward or the lapse
// deadline it is waiting for never arrives. Renewals resume the
// moment a probe proves the node reachable again. leaseAt is the
// start of the renewal attempt, zero if none was sent: the failover
// gate reasons about when a request COULD have re-armed the lease,
// which is any time before the attempt's timeout.
func (s *Supervisor) probePrimary(ctx context.Context, url string, suspect bool) (leaseAt time.Time, p *probe) {
	if suspect {
		if p := s.probe(ctx, url); p.err != nil || p.deposed {
			return leaseAt, &p
		}
	}
	leaseAt = s.opts.Clock.Now()
	st, err := s.client(url).RenewLease(ctx, s.opts.Holder, s.opts.LeaseTTL)
	pr := fold(st, err)
	return leaseAt, &pr
}

// probe reads url's /readyz.
func (s *Supervisor) probe(ctx context.Context, url string) probe {
	return fold(s.client(url).ReadyStatus(ctx))
}

func (s *Supervisor) probeStandbys(ctx context.Context, standbys []Node) map[string]probe {
	out := make(map[string]probe, len(standbys))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, n := range standbys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := s.probe(ctx, n.URL)
			mu.Lock()
			defer mu.Unlock()
			out[n.URL] = p
		}()
	}
	wg.Wait()
	return out
}

// fence delivers one fence order and returns it once the target
// confirms it observed the epoch, nil while it has not — unreachable,
// the usual case mid-partition; the order is retried next tick.
func (s *Supervisor) fence(ctx context.Context, shard int, o fenceOrder) *fenceOrder {
	resp, err := s.client(o.Target.URL).FenceNode(ctx, o.History, o.Epoch, o.NewPrimary)
	if err != nil || resp.Fencing.Observed < o.Epoch {
		return nil
	}
	s.fences.Add(1)
	s.opts.Logf("fleet: shard %d: fenced %s at epoch %d (role %s)", shard, o.Target.URL, o.Epoch, resp.Role)
	return &o
}

// pushTopology bumps the fleet-wide topology epoch and installs the
// new layout on every reachable node — concurrently, so one
// unreachable node costs one probe timeout, not one per node. Nodes
// that miss the push learn the document from the next client or
// operator that carries it (topology installs are idempotent per
// epoch).
func (s *Supervisor) pushTopology(ctx context.Context) {
	doc := s.buildTopology(ctx)
	var urls []string
	for _, a := range doc.Shards {
		urls = append(append(urls, a.URL), a.Replicas...)
	}
	var pushed atomic.Int64
	var wg sync.WaitGroup
	for _, url := range urls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.client(url).PushTopology(ctx, doc); err == nil {
				pushed.Add(1)
			}
		}()
	}
	wg.Wait()
	s.opts.Logf("fleet: pushed topology epoch %d to %d nodes", doc.Epoch, pushed.Load())
}

// buildTopology assembles the layout document from the supervisor's
// current view, one epoch past the highest epoch any node reported.
func (s *Supervisor) buildTopology(ctx context.Context) crowddb.Topology {
	s.mu.Lock()
	doc := crowddb.Topology{Count: len(s.shards)}
	for i, st := range s.shards {
		addr := crowddb.ShardAddr{Index: i, URL: st.view.spec.Primary.URL}
		for _, n := range st.view.spec.Standbys {
			addr.Replicas = append(addr.Replicas, n.URL)
		}
		doc.Shards = append(doc.Shards, addr)
	}
	s.mu.Unlock()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, a := range doc.Shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if cur, err := s.client(a.URL).Topology(ctx); err == nil {
				mu.Lock()
				doc.Epoch = max(doc.Epoch, cur.Epoch)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	doc.Epoch++
	return doc
}

// Drain removes a node from the fleet for maintenance. A standby just
// leaves the probe set. A primary hands off: Drain seals it (a
// reversible lease step-down), verifies a standby holds every record
// of the frozen head, then runs the same promote/fence/topology
// orders as a failover — with the old primary reachable, the fence
// lands immediately. The drained node is safe to stop once Drain
// returns.
func (s *Supervisor) Drain(ctx context.Context, nodeURL string) (Status, error) {
	s.mu.Lock()
	var target *shardState
	for _, sh := range s.shards {
		v := &sh.view
		for i, n := range v.spec.Standbys {
			if n.URL == nodeURL {
				v.spec.Standbys = append(v.spec.Standbys[:i:i], v.spec.Standbys[i+1:]...)
				v.drained = append(v.drained, n)
				st := s.statusLocked()
				s.mu.Unlock()
				s.opts.Logf("fleet: shard %d: drained standby %s", v.spec.Shard, n.URL)
				return st, nil
			}
		}
		if v.spec.Primary.URL == nodeURL {
			target = sh
		}
	}
	s.mu.Unlock()
	if target == nil {
		return s.Status(), fmt.Errorf("fleet: node %s is not in the fleet", nodeURL)
	}
	target.opMu.Lock()
	defer target.opMu.Unlock()
	// Re-check under the operation lock: a tick may have failed the
	// shard over while we waited.
	s.mu.Lock()
	v := target.view
	s.mu.Unlock()
	if v.spec.Primary.URL != nodeURL {
		return s.Status(), fmt.Errorf("fleet: node %s is no longer the shard's primary; re-check and retry", nodeURL)
	}
	err := s.drainPrimary(ctx, target, v)
	return s.Status(), err
}

// drainPrimary hands a live primary's duties off with zero acked-
// mutation loss. The order is the point (the shard's opMu is held
// throughout, so no tick renews the lease mid-drain):
//
//  1. cheap pre-checks — primary reachable, a candidate standby
//     exists and is already caught up to the primary's current head
//     (fail fast without sealing anything);
//  2. seal the primary via lease step-down: from here it acks
//     nothing, so its head is frozen — but its replication stream
//     keeps serving (only an epoch seal darkens it);
//  3. re-read the frozen head and wait for the candidate to apply it
//     — every acked mutation, including ones acked between steps 1
//     and 2, is now on the candidate — while it stays safe to promote;
//  4. promote, fence, push topology (the failover's orders);
//  5. on any abort, un-seal with a plain renewal and report why.
//
// Every standby answer goes through step, as a tick's do.
func (s *Supervisor) drainPrimary(ctx context.Context, sh *shardState, v view) error {
	primary := v.spec.Primary
	p := s.probe(ctx, primary.URL)
	if p.err != nil {
		return fmt.Errorf("fleet: drain %s: primary unreachable (use failover, not drain): %w", primary.URL, p.err)
	}
	head := max(p.applied, 0)
	s.apply(ctx, sh, obs{standbys: s.probeStandbys(ctx, v.spec.Standbys)})
	s.mu.Lock()
	target, ok := pickCandidate(sh.view)
	behind := head - sh.view.applied[target.URL]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("fleet: drain %s: no reachable standby", primary.URL)
	}
	if behind > 0 {
		return fmt.Errorf("fleet: drain %s: best standby %s is %d records behind (head %d); retry when caught up",
			primary.URL, target.URL, behind, head)
	}

	// Seal before the final lag check: mutations acked between the
	// check above and this seal would otherwise be on the primary but
	// not the candidate when the roles swap. An epoch-sealed node
	// refuses the seal: frozen harder than needed.
	if _, err := s.client(primary.URL).SealLease(ctx, s.opts.Holder); err != nil && !errors.Is(err, crowddb.ErrFenced) {
		return fmt.Errorf("fleet: drain %s: seal: %w", primary.URL, err)
	}
	abort := func(err error) error {
		s.apply(ctx, sh, s.execute(ctx, v.spec.Shard, []order{{kind: orderRenew, node: primary}}))
		return err
	}

	// The head re-read after the seal is the frozen one.
	if p = s.probe(ctx, primary.URL); p.err != nil {
		return abort(fmt.Errorf("fleet: drain %s: re-reading sealed head: %w", primary.URL, p.err))
	}
	head = max(head, p.applied)

	// Wait for the candidate to drain the sealed primary's tail, on the
	// clock the wait sleeps on.
	deadline := s.opts.Clock.Now().Add(max(10*s.opts.ProbeTimeout, 5*time.Second))
	for {
		c := s.probe(ctx, target.URL)
		s.apply(ctx, sh, obs{standbys: map[string]probe{target.URL: c}})
		if c.unsafe != "" {
			return abort(fmt.Errorf("fleet: drain %s: standby %s reports %s and must not be promoted; primary un-sealed",
				primary.URL, target.URL, c.unsafe))
		}
		if c.err == nil && c.applied >= head {
			break
		}
		if s.opts.Clock.Now().After(deadline) {
			return abort(fmt.Errorf("fleet: drain %s: standby %s did not reach the sealed head %d in time; primary un-sealed, retry later",
				primary.URL, target.URL, head))
		}
		if err := s.opts.Clock.Sleep(ctx, s.opts.ProbeInterval); err != nil {
			return abort(err)
		}
	}

	s.apply(ctx, sh, s.execute(ctx, v.spec.Shard, []order{{kind: orderPromote, node: target, drain: true}}))
	s.mu.Lock()
	now := sh.view.spec.Primary
	s.mu.Unlock()
	if now.URL == primary.URL {
		return abort(fmt.Errorf("fleet: drain %s: handoff did not complete; primary un-sealed, see supervisor log", primary.URL))
	}
	s.opts.Logf("fleet: shard %d: drained primary %s (handed off to %s)", v.spec.Shard, primary.URL, now.URL)
	return nil
}

// Status snapshots the supervisor. It takes only the state lock —
// never a shard's operation lock — so it answers immediately even
// while a slow probe or failover is in flight.
func (s *Supervisor) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked()
}

func (s *Supervisor) statusLocked() Status {
	out := Status{
		Holder:     s.opts.Holder,
		Ticks:      s.ticks.Load(),
		Failovers:  s.promotions.Load(),
		Promotions: s.promotions.Load(),
		Fences:     s.fences.Load(),
	}
	for _, sh := range s.shards {
		v := sh.view.clone()
		out.Shards = append(out.Shards, ShardStatus{
			Shard:        v.spec.Shard,
			State:        v.state,
			Primary:      v.spec.Primary,
			Standbys:     v.spec.Standbys,
			Misses:       v.misses,
			History:      v.history,
			Epoch:        v.epoch,
			Applied:      v.applied,
			Reachable:    v.reachable,
			Roles:        v.roles,
			Unsafe:       v.unsafe,
			PendingFence: v.pending,
			Fenced:       v.fenced,
			Drained:      v.drained,
		})
	}
	sort.Slice(out.Shards, func(i, j int) bool { return out.Shards[i].Shard < out.Shards[j].Shard })
	return out
}

// AdminHandler serves the supervisor's own little API:
//
//	GET  /status          the Status snapshot
//	POST /drain           {"node": "<base url>"} → Drain
func (s *Supervisor) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Status())
	})
	mux.HandleFunc("/drain", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "use POST", http.StatusMethodNotAllowed)
			return
		}
		var req struct {
			Node string `json:"node"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Node == "" {
			http.Error(w, "body must be {\"node\": \"<base url>\"}", http.StatusBadRequest)
			return
		}
		st, err := s.Drain(r.Context(), req.Node)
		if err != nil {
			writeJSON(w, http.StatusConflict, map[string]any{"error": err.Error(), "status": st})
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
