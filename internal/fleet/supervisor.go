// Package fleet is the self-healing supervisor over a crowdd fleet
// (DESIGN §12). Given a declared layout — one primary plus warm
// standbys per shard — the supervisor probes every node each
// interval: the primary's probe doubles as a mutation-lease renewal
// (POST /api/v1/replication/lease), standbys answer /readyz with
// their replication lag. When the primary misses SuspectAfter
// consecutive probes AND its lease has provably lapsed, the
// supervisor runs a verified failover:
//
//  1. pick the most caught-up reachable standby (highest applied
//     sequence; one that already reports role primary wins outright —
//     a previous failover that died halfway resumes, not restarts),
//  2. promote it (idempotent; the promotion bumps the fencing epoch),
//  3. fence the old primary with the new epoch — retried every tick
//     until the node acknowledges, since the partition that caused
//     the failover usually hides it,
//  4. push the epoch-bumped topology to every reachable node so
//     Router/Multi clients follow.
//
// Split-brain safety does not depend on step 3 landing, but it does
// depend on the lease discipline. A renewal whose request reaches the
// primary but whose response is lost still re-arms the lease
// server-side, so a missed response must never be read as "the lease
// is running out". The supervisor therefore renews only on proven
// connectivity: a suspect primary (any missed probe) gets
// side-effect-free /readyz probes instead, and renewals resume only
// after one answers. Failover is gated twice — SuspectAfter missed
// probes, and LeaseTTL+ProbeTimeout elapsed since the START of the
// last renewal attempt. The ProbeTimeout margin covers the worst
// case: a renewal sent at T whose request crawled into the primary
// just before the attempt timed out at T+ProbeTimeout re-armed a
// lease that lives until T+ProbeTimeout+LeaseTTL. Past the gate the
// deposed primary has sealed itself (409 fenced) whatever happened to
// the responses; the fence order merely tells it who won.
//
// Probing is concurrent at both levels — shards tick in parallel, and
// within a shard the primary's renewal, the standby probes and the
// pending fence retry fan out together — so one slow or unreachable
// node cannot delay another primary's renewal past its TTL. Status()
// never waits on the network.
//
// Drain is the operator path for rolling restarts: draining a standby
// just drops it from the probe set; draining a primary seals it first
// (a reversible lease step-down), re-reads the now-frozen head,
// verifies a standby holds every record of it, and only then promotes
// — so a mutation acked in the middle of the handoff cannot be lost.
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
	// ProbeTimeout bounds one probe (default ProbeInterval).
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

// shardState is the supervisor's live view of one shard. Mutable
// fields are guarded by the supervisor's mu; opMu serializes the
// network operations (one tick or drain at a time per shard) and is
// the only lock held across I/O.
type shardState struct {
	opMu sync.Mutex // serializes tick/drain per shard; never held with mu

	spec      ShardFleet
	misses    int
	lastLease time.Time // start of the most recent lease-renewal ATTEMPT
	state     string    // healthy | suspect | failover | no_candidate
	history   string
	epoch     uint64

	applied   map[string]int64  // node URL → applied seq at last probe
	reachable map[string]bool   // node URL → last probe answered
	roles     map[string]string // node URL → last reported role
	unsafe    map[string]string // node URL → why it must not be promoted (diverged, scrub-failed)

	pending *fenceOrder
	fenced  []Node // deposed, not yet re-pointed (still being fenced or awaiting restart)
	drained []Node
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

	mu      sync.Mutex // guards shard fields and the client map; never held across network I/O
	shards  []*shardState
	clients map[string]*crowdclient.Client

	ticks      atomic.Int64
	failovers  atomic.Int64
	promotions atomic.Int64
	fences     atomic.Int64
}

// errNodeDeposed marks a primary whose readiness probe reported an
// epoch seal: it is reachable but no longer the primary.
var errNodeDeposed = errors.New("fleet: node reports an epoch seal")

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
		st := &shardState{
			spec:      sh,
			state:     "healthy",
			applied:   make(map[string]int64),
			reachable: make(map[string]bool),
			roles:     make(map[string]string),
			unsafe:    make(map[string]string),
		}
		s.shards = append(s.shards, st)
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
	// Retries: -1 is none: a missed probe must count as missed, not be
	// papered over.
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
	s.mu.Lock()
	shards := append([]*shardState(nil), s.shards...)
	s.mu.Unlock()
	for _, sh := range shards {
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

func (s *Supervisor) tickShard(ctx context.Context, sh *shardState) {
	s.mu.Lock()
	primary := sh.spec.Primary
	standbys := append([]Node(nil), sh.spec.Standbys...)
	suspect := sh.misses > 0
	s.mu.Unlock()

	// Fan out: the primary's probe, every standby probe and the pending
	// fence retry run concurrently, so the slowest answer bounds the
	// tick, not the sum.
	var wg sync.WaitGroup
	var pst crowddb.ReadyzResponse
	var perr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		pst, perr = s.probePrimary(ctx, sh, primary, suspect)
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.probeStandbys(ctx, sh, standbys)
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.retryFence(ctx, sh)
	}()
	wg.Wait()

	switch {
	case perr == nil:
		s.mu.Lock()
		sh.misses = 0
		sh.state = "healthy"
		sh.reachable[primary.URL] = true
		sh.roles[primary.URL] = pst.Role
		if pst.Replication != nil {
			sh.applied[primary.URL] = pst.Replication.AppliedSeq
			sh.history = pst.Replication.History
		}
		if pst.FencingEpoch > sh.epoch {
			sh.epoch = pst.FencingEpoch
		}
		s.mu.Unlock()
	case errors.Is(perr, crowddb.ErrFenced) || errors.Is(perr, errNodeDeposed):
		// The declared primary is already deposed (a failover this
		// supervisor no longer remembers, or another supervisor's).
		// Reconcile now rather than waiting out the miss budget.
		s.mu.Lock()
		sh.reachable[primary.URL] = true
		sh.roles[primary.URL] = crowddb.RoleFenced
		s.mu.Unlock()
		s.opts.Logf("fleet: shard %d: declared primary %s is fenced; reconciling", sh.spec.Shard, primary.URL)
		s.failover(ctx, sh)
	default:
		s.mu.Lock()
		sh.misses++
		sh.reachable[primary.URL] = false
		misses := sh.misses
		leaseAge := s.opts.Clock.Now().Sub(sh.lastLease)
		armed := !sh.lastLease.IsZero()
		s.mu.Unlock()
		if misses < s.opts.SuspectAfter {
			s.setState(sh, "suspect")
			s.opts.Logf("fleet: shard %d: primary %s missed probe %d/%d: %v",
				sh.spec.Shard, primary.URL, misses, s.opts.SuspectAfter, perr)
			return
		}
		// Second gate: the lease must provably have lapsed. The last
		// renewal attempt started at lastLease; its request can have
		// reached the primary any time before the attempt timed out, so
		// the lease it (re-)armed lives until lastLease + ProbeTimeout +
		// LeaseTTL. A primary this supervisor never renewed (lastLease
		// zero) holds no lease to wait out.
		if wait := s.opts.LeaseTTL + s.opts.ProbeTimeout; armed && leaseAge <= wait {
			s.setState(sh, "suspect")
			s.opts.Logf("fleet: shard %d: primary %s suspected dead (%d missed probes); holding failover until its lease provably lapses (%v of %v)",
				sh.spec.Shard, primary.URL, misses, leaseAge.Round(time.Millisecond), wait)
			return
		}
		s.opts.Logf("fleet: shard %d: primary %s suspected dead after %d missed probes and a lapsed lease; failing over",
			sh.spec.Shard, primary.URL, misses)
		s.failover(ctx, sh)
	}
}

func (s *Supervisor) setState(sh *shardState, state string) {
	s.mu.Lock()
	sh.state = state
	s.mu.Unlock()
}

// probePrimary is the primary's half of a tick. A healthy primary
// gets a lease renewal. A suspect one gets a side-effect-free /readyz
// probe instead: a renewal whose response is lost still re-arms the
// lease server-side, so once a response has gone missing the
// supervisor must stop pushing the lease forward or the lapse
// deadline it is waiting for never arrives. Renewals resume the
// moment a probe proves the node reachable again.
func (s *Supervisor) probePrimary(ctx context.Context, sh *shardState, primary Node, suspect bool) (crowddb.ReadyzResponse, error) {
	if !suspect {
		return s.renewLease(ctx, sh, primary)
	}
	st, err := s.ready(ctx, primary.URL)
	if err != nil {
		return st, err
	}
	if st.Fencing != nil && st.Fencing.SealedBy == "epoch" {
		return st, errNodeDeposed
	}
	return s.renewLease(ctx, sh, primary)
}

// ready probes url's /readyz within one ProbeTimeout.
func (s *Supervisor) ready(ctx context.Context, url string) (crowddb.ReadyzResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, s.opts.ProbeTimeout)
	defer cancel()
	return s.client(url).ReadyStatus(ctx)
}

// renewLease sends one lease renewal, recording the attempt's start
// time first — the failover gate reasons about when a request COULD
// have re-armed the lease, which is any time before the attempt's
// timeout, regardless of whether a response came back.
func (s *Supervisor) renewLease(ctx context.Context, sh *shardState, primary Node) (crowddb.ReadyzResponse, error) {
	s.mu.Lock()
	sh.lastLease = s.opts.Clock.Now()
	s.mu.Unlock()
	pctx, cancel := context.WithTimeout(ctx, s.opts.ProbeTimeout)
	st, err := s.client(primary.URL).RenewLease(pctx, s.opts.Holder, s.opts.LeaseTTL)
	cancel()
	return st, err
}

func (s *Supervisor) probeStandbys(ctx context.Context, sh *shardState, standbys []Node) {
	var wg sync.WaitGroup
	for _, n := range standbys {
		wg.Add(1)
		go func(n Node) {
			defer wg.Done()
			st, err := s.ready(ctx, n.URL)
			s.mu.Lock()
			defer s.mu.Unlock()
			if err != nil {
				sh.reachable[n.URL] = false
				return
			}
			sh.reachable[n.URL] = true
			sh.roles[n.URL] = st.Role
			if st.Replication != nil {
				sh.applied[n.URL] = st.Replication.AppliedSeq
			}
			if st.FencingEpoch > sh.epoch {
				sh.epoch = st.FencingEpoch
			}
			// Integrity gate (DESIGN §14): a standby that disagrees with
			// the primary's digest or failed its own at-rest scrub holds
			// state that must never be promoted to the source of truth.
			switch {
			case st.Replication != nil && st.Replication.Diverged:
				sh.unsafe[n.URL] = "diverged"
			case st.Integrity != nil && st.Integrity.ScrubFailed:
				sh.unsafe[n.URL] = "scrub_failed"
			default:
				delete(sh.unsafe, n.URL)
			}
		}(n)
	}
	wg.Wait()
}

// failover promotes the best standby and reshapes the shard. Called
// with the shard's opMu held (never with s.mu). Idempotent per tick:
// every step that can fail is retried on the next tick from the
// updated state.
func (s *Supervisor) failover(ctx context.Context, sh *shardState) {
	s.setState(sh, "failover")
	s.mu.Lock()
	target, ok := s.pickCandidate(sh)
	s.mu.Unlock()
	if !ok {
		s.setState(sh, "no_candidate")
		s.opts.Logf("fleet: shard %d: no reachable standby to promote; will retry", sh.spec.Shard)
		return
	}
	pctx, cancel := context.WithTimeout(ctx, max(10*s.opts.ProbeTimeout, 5*time.Second))
	st, err := s.client(target.URL).Promote(pctx)
	cancel()
	if err != nil {
		s.opts.Logf("fleet: shard %d: promote %s: %v; will retry", sh.spec.Shard, target.URL, err)
		return
	}
	s.promotions.Add(1)
	s.failovers.Add(1)

	s.mu.Lock()
	old := sh.spec.Primary
	sh.history = st.History
	if st.FencingEpoch > sh.epoch {
		sh.epoch = st.FencingEpoch
	}
	// Reshape: the winner leads, the loser leaves the probe set until
	// an operator re-points it as a follower and re-declares it.
	standbys := make([]Node, 0, len(sh.spec.Standbys))
	for _, n := range sh.spec.Standbys {
		if n.URL != target.URL {
			standbys = append(standbys, n)
		}
	}
	sh.spec.Primary = target
	sh.spec.Standbys = standbys
	sh.misses = 0
	sh.lastLease = time.Time{} // the new primary has its own lease clock
	sh.state = "healthy"
	sh.fenced = append(sh.fenced, old)
	sh.pending = &fenceOrder{Target: old, History: sh.history, Epoch: sh.epoch, NewPrimary: target.URL}
	s.mu.Unlock()

	s.opts.Logf("fleet: shard %d: promoted %s at record %d (fencing epoch %d); fencing %s",
		sh.spec.Shard, target.URL, st.AppliedSeq, st.FencingEpoch, old.URL)
	s.retryFence(ctx, sh)
	s.pushTopology(ctx, sh)
}

// pickCandidate chooses the promotion target: a standby already
// reporting role primary (resume a half-finished failover), else the
// reachable standby with the highest applied sequence. Standbys the
// integrity gate marked unsafe — diverged from the primary's digest,
// or sitting on at-rest corruption their scrubber found — are never
// candidates, however caught-up they look: their applied seq counts
// records, not correctness. Called with s.mu held.
func (s *Supervisor) pickCandidate(sh *shardState) (Node, bool) {
	var best Node
	bestSeq := int64(-1)
	found := false
	for _, n := range sh.spec.Standbys {
		if !sh.reachable[n.URL] {
			continue
		}
		if why, bad := sh.unsafe[n.URL]; bad {
			s.opts.Logf("fleet: shard %d: standby %s excluded from promotion: %s", sh.spec.Shard, n.URL, why)
			continue
		}
		if sh.roles[n.URL] == crowddb.RolePrimary {
			return n, true
		}
		if seq := sh.applied[n.URL]; seq > bestSeq {
			best, bestSeq, found = n, seq, true
		}
	}
	return best, found
}

// retryFence delivers the pending fence order, clearing it once the
// target confirms (Observed ≥ the fencing epoch). Safe to call with
// no order pending.
func (s *Supervisor) retryFence(ctx context.Context, sh *shardState) {
	s.mu.Lock()
	o := sh.pending
	s.mu.Unlock()
	if o == nil {
		return
	}
	pctx, cancel := context.WithTimeout(ctx, s.opts.ProbeTimeout)
	resp, err := s.client(o.Target.URL).FenceNode(pctx, o.History, o.Epoch, o.NewPrimary)
	cancel()
	if err != nil {
		return // unreachable (the usual case mid-partition); retried next tick
	}
	if resp.Fencing.Observed >= o.Epoch {
		s.fences.Add(1)
		s.mu.Lock()
		if sh.pending == o {
			sh.pending = nil
		}
		s.mu.Unlock()
		s.opts.Logf("fleet: shard %d: fenced %s at epoch %d (role %s)", sh.spec.Shard, o.Target.URL, o.Epoch, resp.Role)
	}
}

// pushTopology bumps the fleet-wide topology epoch and installs the
// new layout on every reachable node — concurrently, so one
// unreachable node costs one probe timeout, not one per node. Nodes
// that miss the push learn the document from the next client or
// operator that carries it (topology installs are idempotent per
// epoch).
func (s *Supervisor) pushTopology(ctx context.Context, sh *shardState) {
	doc := s.buildTopology(ctx)
	s.mu.Lock()
	var nodes []Node
	for _, st := range s.shards {
		nodes = append(nodes, append([]Node{st.spec.Primary}, st.spec.Standbys...)...)
	}
	s.mu.Unlock()
	var pushed atomic.Int64
	var wg sync.WaitGroup
	for _, n := range nodes {
		wg.Add(1)
		go func(n Node) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, s.opts.ProbeTimeout)
			_, err := s.client(n.URL).PushTopology(pctx, doc)
			cancel()
			if err == nil {
				pushed.Add(1)
			}
		}(n)
	}
	wg.Wait()
	s.opts.Logf("fleet: pushed topology epoch %d to %d nodes", doc.Epoch, pushed.Load())
}

// buildTopology assembles the layout document from the supervisor's
// current view, one epoch past the highest epoch any node reported.
func (s *Supervisor) buildTopology(ctx context.Context) crowddb.Topology {
	s.mu.Lock()
	primaries := make([]Node, 0, len(s.shards))
	for _, st := range s.shards {
		primaries = append(primaries, st.spec.Primary)
	}
	s.mu.Unlock()
	var mu sync.Mutex
	var maxEpoch uint64
	var wg sync.WaitGroup
	for _, p := range primaries {
		wg.Add(1)
		go func(p Node) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, s.opts.ProbeTimeout)
			doc, err := s.client(p.URL).Topology(pctx)
			cancel()
			if err == nil {
				mu.Lock()
				if doc.Epoch > maxEpoch {
					maxEpoch = doc.Epoch
				}
				mu.Unlock()
			}
		}(p)
	}
	wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	doc := crowddb.Topology{Epoch: maxEpoch + 1, Count: len(s.shards)}
	for i, st := range s.shards {
		addr := crowddb.ShardAddr{Index: i, URL: st.spec.Primary.URL}
		for _, n := range st.spec.Standbys {
			addr.Replicas = append(addr.Replicas, n.URL)
		}
		doc.Shards = append(doc.Shards, addr)
	}
	return doc
}

// Drain removes a node from the fleet for maintenance. A standby just
// leaves the probe set. A primary hands off: Drain seals it (a
// reversible lease step-down), verifies a standby holds every record
// of the frozen head, then runs the same promote/fence/topology
// sequence as a failover — with the old primary reachable, the fence
// lands immediately. The drained node is safe to stop once Drain
// returns.
func (s *Supervisor) Drain(ctx context.Context, nodeURL string) (Status, error) {
	s.mu.Lock()
	var target *shardState
	for _, sh := range s.shards {
		for i, n := range sh.spec.Standbys {
			if n.URL == nodeURL {
				sh.spec.Standbys = append(sh.spec.Standbys[:i:i], sh.spec.Standbys[i+1:]...)
				sh.drained = append(sh.drained, n)
				st := s.statusLocked()
				s.mu.Unlock()
				s.opts.Logf("fleet: shard %d: drained standby %s", sh.spec.Shard, n.URL)
				return st, nil
			}
		}
		if sh.spec.Primary.URL == nodeURL {
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
	stillPrimary := target.spec.Primary.URL == nodeURL
	s.mu.Unlock()
	if !stillPrimary {
		return s.Status(), fmt.Errorf("fleet: node %s is no longer the shard's primary; re-check and retry", nodeURL)
	}
	err := s.drainPrimary(ctx, target)
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
//     and 2, is now on the candidate;
//  4. promote, fence, push topology (the failover path);
//  5. on any abort, un-seal with a plain renewal and report why.
func (s *Supervisor) drainPrimary(ctx context.Context, sh *shardState) error {
	s.mu.Lock()
	primary := sh.spec.Primary
	standbys := append([]Node(nil), sh.spec.Standbys...)
	s.mu.Unlock()

	st, err := s.ready(ctx, primary.URL)
	if err != nil {
		return fmt.Errorf("fleet: drain %s: primary unreachable (use failover, not drain): %w", primary.URL, err)
	}
	var head int64
	if st.Replication != nil {
		head = st.Replication.AppliedSeq
	}
	s.probeStandbys(ctx, sh, standbys)
	s.mu.Lock()
	target, ok := s.pickCandidate(sh)
	behind := int64(0)
	if ok {
		behind = head - sh.applied[target.URL]
	}
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
	// not the candidate when the roles swap.
	sctx, cancel := context.WithTimeout(ctx, s.opts.ProbeTimeout)
	_, err = s.client(primary.URL).SealLease(sctx, s.opts.Holder)
	cancel()
	// An epoch-sealed node refuses the seal: frozen harder than needed.
	if err != nil && !errors.Is(err, crowddb.ErrFenced) {
		return fmt.Errorf("fleet: drain %s: seal: %w", primary.URL, err)
	}
	unseal := func() {
		uctx, cancel := context.WithTimeout(ctx, s.opts.ProbeTimeout)
		_, err := s.client(primary.URL).RenewLease(uctx, s.opts.Holder, s.opts.LeaseTTL)
		cancel()
		if err != nil {
			s.opts.Logf("fleet: drain %s: un-seal after abort failed (%v); the next healthy tick renews", primary.URL, err)
		}
	}

	// The head re-read after the seal is the frozen one.
	st, err = s.ready(ctx, primary.URL)
	if err != nil {
		unseal()
		return fmt.Errorf("fleet: drain %s: re-reading sealed head: %w", primary.URL, err)
	}
	if st.Replication != nil {
		head = st.Replication.AppliedSeq
	}

	// Wait for the candidate to drain the sealed primary's tail.
	deadline := time.Now().Add(max(10*s.opts.ProbeTimeout, 5*time.Second))
	for {
		cst, cerr := s.ready(ctx, target.URL)
		if cerr == nil && cst.Replication != nil {
			s.mu.Lock()
			sh.applied[target.URL] = cst.Replication.AppliedSeq
			sh.reachable[target.URL] = true
			sh.roles[target.URL] = cst.Role
			s.mu.Unlock()
			if cst.Replication.AppliedSeq >= head {
				break
			}
		}
		if time.Now().After(deadline) {
			unseal()
			return fmt.Errorf("fleet: drain %s: standby %s did not reach the sealed head %d in time; primary un-sealed, retry later",
				primary.URL, target.URL, head)
		}
		if err := s.opts.Clock.Sleep(ctx, s.opts.ProbeInterval); err != nil {
			unseal()
			return err
		}
	}

	s.failover(ctx, sh)
	s.mu.Lock()
	swapped := sh.spec.Primary.URL != primary.URL
	s.mu.Unlock()
	if !swapped {
		unseal()
		return fmt.Errorf("fleet: drain %s: handoff did not complete; primary un-sealed, see supervisor log", primary.URL)
	}
	// Reclassify: the old primary was drained on purpose, not lost.
	s.mu.Lock()
	for i, n := range sh.fenced {
		if n.URL == primary.URL {
			sh.fenced = append(sh.fenced[:i:i], sh.fenced[i+1:]...)
			break
		}
	}
	sh.drained = append(sh.drained, primary)
	newPrimary := sh.spec.Primary.URL
	s.mu.Unlock()
	s.opts.Logf("fleet: shard %d: drained primary %s (handed off to %s)", sh.spec.Shard, primary.URL, newPrimary)
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
		Failovers:  s.failovers.Load(),
		Promotions: s.promotions.Load(),
		Fences:     s.fences.Load(),
	}
	for _, sh := range s.shards {
		row := ShardStatus{
			Shard:        sh.spec.Shard,
			State:        sh.state,
			Primary:      sh.spec.Primary,
			Standbys:     append([]Node(nil), sh.spec.Standbys...),
			Misses:       sh.misses,
			History:      sh.history,
			Epoch:        sh.epoch,
			Applied:      copyMap(sh.applied),
			Reachable:    copyMap(sh.reachable),
			Roles:        copyMap(sh.roles),
			Unsafe:       copyMap(sh.unsafe),
			PendingFence: sh.pending,
			Fenced:       append([]Node(nil), sh.fenced...),
			Drained:      append([]Node(nil), sh.drained...),
		}
		out.Shards = append(out.Shards, row)
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

func copyMap[K comparable, V any](m map[K]V) map[K]V {
	out := make(map[K]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
