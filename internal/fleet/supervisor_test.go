package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"crowdselect/internal/clock"
	"crowdselect/internal/crowddb"
	"crowdselect/internal/faultnet"
)

// fakeNode is a scriptable crowdd impostor speaking just enough of the
// fleet surface — /readyz, lease, promote, fence, topology — that the
// supervisor's whole state machine can be driven tick by tick without
// real replication stacks or timing dependence.
type fakeNode struct {
	ts *httptest.Server

	mu            sync.Mutex
	alive         bool
	swallow       bool // process requests but never deliver the response
	role          string
	history       string
	epoch         uint64 // own fencing epoch
	observed      uint64 // highest observed for history
	leaseSealed   bool   // stepped down; a plain renewal un-seals
	diverged      bool   // anti-entropy quarantine
	scrubFailed   bool   // at-rest corruption found by the scrubber
	applied       int64
	leaseRenewals int
	leaseHolder   string
	promotions    int
	fenceOrders   int
	topoPushes    int
	topo          crowddb.Topology
	onSeal        func(*fakeNode) // runs, under mu, when a lease step-down arrives
}

func newFakeNode(t *testing.T, role, history string, applied int64) *fakeNode {
	t.Helper()
	n := &fakeNode{alive: true, role: role, history: history, epoch: 1, observed: 1, applied: applied}
	n.ts = httptest.NewServer(http.HandlerFunc(n.serve))
	t.Cleanup(n.ts.Close)
	return n
}

func (n *fakeNode) url() string { return n.ts.URL }

func (n *fakeNode) roleNow() string {
	if n.observed > n.epoch || n.leaseSealed {
		return crowddb.RoleFenced
	}
	return n.role
}

func (n *fakeNode) readyz() crowddb.ReadyzResponse {
	sealedBy := ""
	if n.observed > n.epoch {
		sealedBy = "epoch"
	} else if n.leaseSealed {
		sealedBy = "lease"
	}
	return crowddb.ReadyzResponse{
		Status:       "ready",
		Role:         n.roleNow(),
		FencingEpoch: n.epoch,
		Fencing: &crowddb.FenceStatus{
			History: n.history, Epoch: n.epoch, Observed: n.observed,
			Sealed: sealedBy != "", SealedBy: sealedBy,
		},
		Replication: &crowddb.ReplicationStatus{
			Role: n.roleNow(), History: n.history, AppliedSeq: n.applied,
			Diverged: n.diverged,
		},
		Integrity: &crowddb.IntegritySnapshot{
			ScrubFailed: n.scrubFailed, Diverged: n.diverged,
		},
	}
}

// serve dispatches to serveInner; in swallow mode the request is still
// processed (its side effects land, exactly like a real node whose
// answers a partition eats) but the connection is torn down before a
// byte of response escapes.
func (n *fakeNode) serve(w http.ResponseWriter, r *http.Request) {
	n.mu.Lock()
	swallow := n.swallow
	n.mu.Unlock()
	if swallow {
		n.serveInner(httptest.NewRecorder(), r)
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
			}
		}
		return
	}
	n.serveInner(w, r)
}

func (n *fakeNode) serveInner(w http.ResponseWriter, r *http.Request) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		http.Error(w, "down", http.StatusServiceUnavailable)
		return
	}
	writeBody := func(status int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(v)
	}
	switch r.URL.Path {
	case "/readyz":
		writeBody(http.StatusOK, n.readyz())
	case "/api/v1/replication/lease":
		if n.observed > n.epoch {
			writeBody(http.StatusConflict, crowddb.ErrorEnvelope{
				Error: crowddb.ErrorBody{Code: "fenced", Message: "node is fenced"},
			})
			return
		}
		var req crowddb.LeaseRequest
		json.NewDecoder(r.Body).Decode(&req)
		if req.Seal {
			n.leaseSealed = true
			if n.onSeal != nil {
				n.onSeal(n)
			}
			writeBody(http.StatusOK, n.readyz())
			return
		}
		n.leaseRenewals++
		n.leaseHolder = req.Holder
		n.leaseSealed = false // a plain renewal un-seals a step-down
		writeBody(http.StatusOK, n.readyz())
	case "/api/v1/replication/promote":
		n.promotions++
		n.role = crowddb.RolePrimary
		n.leaseSealed = false
		if n.observed > n.epoch {
			n.epoch = n.observed
		}
		n.epoch++
		n.observed = n.epoch
		writeBody(http.StatusOK, crowddb.ReplicationStatus{
			Role: n.role, History: n.history, AppliedSeq: n.applied, FencingEpoch: n.epoch,
		})
	case "/api/v1/replication/fence":
		var req crowddb.FenceRequest
		json.NewDecoder(r.Body).Decode(&req)
		n.fenceOrders++
		if req.History == n.history && req.Epoch > n.observed {
			n.observed = req.Epoch
		}
		writeBody(http.StatusOK, crowddb.FenceResponse{
			Role: n.roleNow(),
			Fencing: crowddb.FenceStatus{
				History: n.history, Epoch: n.epoch, Observed: n.observed,
				Sealed: n.observed > n.epoch, NewPrimary: req.NewPrimary,
			},
		})
	case "/api/v1/topology":
		if r.Method == http.MethodPost {
			json.NewDecoder(r.Body).Decode(&n.topo)
			n.topoPushes++
		}
		writeBody(http.StatusOK, n.topo)
	default:
		http.NotFound(w, r)
	}
}

func (n *fakeNode) set(fn func(*fakeNode)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	fn(n)
}

func (n *fakeNode) snapshot() fakeNode {
	n.mu.Lock()
	defer n.mu.Unlock()
	return fakeNode{
		alive: n.alive, role: n.role, history: n.history, epoch: n.epoch,
		observed: n.observed, leaseSealed: n.leaseSealed, applied: n.applied,
		leaseRenewals: n.leaseRenewals, leaseHolder: n.leaseHolder,
		promotions: n.promotions, fenceOrders: n.fenceOrders,
		topoPushes: n.topoPushes, topo: n.topo,
	}
}

func testOptions() Options {
	return Options{
		ProbeInterval: 10 * time.Millisecond,
		// Also the failover gate's margin (LeaseTTL+ProbeTimeout since
		// the last renewal attempt), so tests that wait out the gate
		// stay quick. Local probes answer in microseconds.
		ProbeTimeout: 250 * time.Millisecond,
		SuspectAfter: 3,
		LeaseTTL:     20 * time.Millisecond,
		Holder:       "test-supervisor",
		Clock:        new(clock.Manual),
	}
}

// tickUntil drives the supervisor until cond holds, one probe interval
// of its clock between ticks, as Run paces them — the lease-lapse gate
// makes the exact number of ticks to a failover timing-dependent by
// design.
func tickUntil(t *testing.T, sup *Supervisor, cond func() bool) {
	t.Helper()
	ctx := context.Background()
	for ticks := 0; !cond(); ticks++ {
		if ticks == 1000 {
			t.Fatal("condition not reached within 1000 ticks")
		}
		sup.Tick(ctx)
		sup.opts.Clock.Sleep(ctx, sup.opts.ProbeInterval)
	}
}

func newTestFleet(t *testing.T, primary *fakeNode, standbys ...*fakeNode) (*Supervisor, Spec) {
	t.Helper()
	sh := ShardFleet{Shard: 0, Primary: Node{Name: "p", URL: primary.url()}}
	for _, s := range standbys {
		sh.Standbys = append(sh.Standbys, Node{URL: s.url()})
	}
	spec := Spec{Shards: []ShardFleet{sh}}
	sup, err := New(spec, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	return sup, spec
}

func TestSupervisorOptionCoherence(t *testing.T) {
	n := newFakeNode(t, crowddb.RolePrimary, "h", 0)
	spec := Spec{Shards: []ShardFleet{{Primary: Node{URL: n.url()}}}}

	opts := testOptions()
	opts.LeaseTTL = 30 * time.Millisecond // == SuspectAfter × ProbeInterval
	if _, err := New(spec, opts); err == nil {
		t.Fatal("lease ttl at the suspicion bound accepted: a deposed primary could still be acking when its successor is promoted")
	}
	if _, err := New(Spec{}, testOptions()); err == nil {
		t.Fatal("empty spec accepted")
	}
	dup := Spec{Shards: []ShardFleet{{Primary: Node{URL: n.url()}, Standbys: []Node{{URL: n.url()}}}}}
	if _, err := New(dup, testOptions()); err == nil {
		t.Fatal("duplicate node accepted")
	}
}

func TestSupervisorHealthyTickRenewsLease(t *testing.T) {
	primary := newFakeNode(t, crowddb.RolePrimary, "h1", 10)
	standby := newFakeNode(t, crowddb.RoleReplica, "h1", 10)
	sup, _ := newTestFleet(t, primary, standby)

	sup.Tick(context.Background())
	p := primary.snapshot()
	if p.leaseRenewals != 1 || p.leaseHolder != "test-supervisor" {
		t.Fatalf("primary lease: renewals=%d holder=%q", p.leaseRenewals, p.leaseHolder)
	}
	st := sup.Status()
	if len(st.Shards) != 1 || st.Shards[0].State != "healthy" || st.Shards[0].Misses != 0 {
		t.Fatalf("status = %+v", st.Shards)
	}
	if got := st.Shards[0].Applied[standby.url()]; got != 10 {
		t.Fatalf("standby applied = %d, want 10", got)
	}
	if st.Failovers != 0 || primary.snapshot().promotions != 0 {
		t.Fatal("healthy fleet triggered a failover")
	}
}

// TestSupervisorFailoverPromotesMostCaughtUp is the core loop: K
// missed probes, the standby with the highest applied sequence wins,
// the topology follows, and the fence order keeps retrying until the
// partitioned loser finally hears it.
func TestSupervisorFailoverPromotesMostCaughtUp(t *testing.T) {
	primary := newFakeNode(t, crowddb.RolePrimary, "h1", 20)
	lagging := newFakeNode(t, crowddb.RoleReplica, "h1", 5)
	caught := newFakeNode(t, crowddb.RoleReplica, "h1", 20)
	sup, _ := newTestFleet(t, primary, lagging, caught)
	ctx := context.Background()

	sup.Tick(ctx) // healthy baseline
	primary.set(func(n *fakeNode) { n.alive = false })

	sup.Tick(ctx)
	sup.Tick(ctx)
	if st := sup.Status(); st.Shards[0].State != "suspect" || st.Shards[0].Misses != 2 {
		t.Fatalf("after 2 misses: %+v", st.Shards[0])
	}
	if caught.snapshot().promotions != 0 {
		t.Fatal("promoted before the miss budget ran out")
	}

	// The third miss exhausts the budget, but failover also waits for
	// the lease to provably lapse (LeaseTTL + ProbeTimeout after the
	// last renewal attempt) — keep ticking until it fires.
	tickUntil(t, sup, func() bool { return caught.snapshot().promotions > 0 })
	if got := caught.snapshot().promotions; got != 1 {
		t.Fatalf("caught-up standby promotions = %d, want 1", got)
	}
	if got := lagging.snapshot().promotions; got != 0 {
		t.Fatalf("lagging standby was promoted (%d)", got)
	}
	st := sup.Status()
	row := st.Shards[0]
	if row.Primary.URL != caught.url() || row.State != "healthy" || st.Failovers != 1 {
		t.Fatalf("post-failover status = %+v (failovers %d)", row, st.Failovers)
	}
	if row.PendingFence == nil || row.PendingFence.Target.URL != primary.url() || row.PendingFence.Epoch != 2 {
		t.Fatalf("pending fence = %+v, want old primary at epoch 2", row.PendingFence)
	}
	if st.Fences != 0 {
		t.Fatal("fence counted as acknowledged while the target is unreachable")
	}
	// The survivors already learned the new layout.
	if caught.snapshot().topoPushes == 0 || lagging.snapshot().topoPushes == 0 {
		t.Fatal("topology not pushed to reachable nodes")
	}
	if topo := caught.snapshot().topo; len(topo.Shards) != 1 || topo.Shards[0].URL != caught.url() {
		t.Fatalf("pushed topology = %+v, want the new primary leading shard 0", topo)
	}

	// The new primary is under lease from the same tick onward.
	sup.Tick(ctx)
	if got := caught.snapshot().leaseRenewals; got == 0 {
		t.Fatal("new primary never got a lease renewal")
	}

	// Partition heals: the retried fence order finally lands and seals
	// the deposed primary.
	primary.set(func(n *fakeNode) { n.alive = true })
	sup.Tick(ctx)
	p := primary.snapshot()
	if p.observed != 2 || p.roleNow() != crowddb.RoleFenced {
		t.Fatalf("old primary after heal: observed=%d role=%s, want fenced at 2", p.observed, p.roleNow())
	}
	st = sup.Status()
	if st.Fences != 1 || st.Shards[0].PendingFence != nil {
		t.Fatalf("fence not acknowledged after heal: fences=%d pending=%+v", st.Fences, st.Shards[0].PendingFence)
	}
}

// TestSupervisorReconcilesFencedPrimary: a supervisor that comes up
// pointing at an already-deposed primary (its lease probe answers 409
// fenced) reconciles immediately instead of waiting out the miss
// budget — the primary is reachable, just no longer the primary.
func TestSupervisorReconcilesFencedPrimary(t *testing.T) {
	deposed := newFakeNode(t, crowddb.RolePrimary, "h1", 20)
	deposed.set(func(n *fakeNode) { n.observed = 5 }) // sealed by epoch
	standby := newFakeNode(t, crowddb.RoleReplica, "h1", 20)
	sup, _ := newTestFleet(t, deposed, standby)

	sup.Tick(context.Background())
	if got := standby.snapshot().promotions; got != 1 {
		t.Fatalf("standby promotions = %d, want 1 (immediate reconcile)", got)
	}
	if st := sup.Status(); st.Shards[0].Primary.URL != standby.url() {
		t.Fatalf("shard primary = %s, want the standby", st.Shards[0].Primary.URL)
	}
}

// TestSupervisorResumesHalfFinishedFailover: a standby that already
// reports role primary (a previous supervisor died between promote and
// topology push) wins candidate selection outright, even when another
// standby has a higher applied sequence — re-promoting the winner is
// idempotent, promoting anyone else would fork history.
func TestSupervisorResumesHalfFinishedFailover(t *testing.T) {
	dead := newFakeNode(t, crowddb.RolePrimary, "h1", 20)
	winner := newFakeNode(t, crowddb.RolePrimary, "h1", 15) // already promoted last time
	higher := newFakeNode(t, crowddb.RoleReplica, "h1", 20)
	sup, _ := newTestFleet(t, dead, winner, higher)
	dead.set(func(n *fakeNode) { n.alive = false })

	tickUntil(t, sup, func() bool { return winner.snapshot().promotions > 0 })
	if got := winner.snapshot().promotions; got != 1 {
		t.Fatalf("half-promoted standby promotions = %d, want 1 (resume)", got)
	}
	if got := higher.snapshot().promotions; got != 0 {
		t.Fatalf("other standby promoted (%d): history forked", got)
	}
}

func TestSupervisorDrain(t *testing.T) {
	t.Run("standby leaves the probe set", func(t *testing.T) {
		primary := newFakeNode(t, crowddb.RolePrimary, "h1", 9)
		standby := newFakeNode(t, crowddb.RoleReplica, "h1", 9)
		sup, _ := newTestFleet(t, primary, standby)
		st, err := sup.Drain(context.Background(), standby.url())
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Shards[0].Standbys) != 0 || len(st.Shards[0].Drained) != 1 {
			t.Fatalf("after standby drain: %+v", st.Shards[0])
		}
	})
	t.Run("primary hands off to a caught-up standby", func(t *testing.T) {
		primary := newFakeNode(t, crowddb.RolePrimary, "h1", 9)
		standby := newFakeNode(t, crowddb.RoleReplica, "h1", 9)
		sup, _ := newTestFleet(t, primary, standby)
		st, err := sup.Drain(context.Background(), primary.url())
		if err != nil {
			t.Fatal(err)
		}
		if standby.snapshot().promotions != 1 {
			t.Fatal("drain did not promote the standby")
		}
		row := st.Shards[0]
		if row.Primary.URL != standby.url() || len(row.Drained) != 1 || len(row.Fenced) != 0 {
			t.Fatalf("after primary drain: %+v", row)
		}
		// The old primary was reachable, so the fence landed in-line:
		// it is sealed before Drain even returns.
		if p := primary.snapshot(); p.roleNow() != crowddb.RoleFenced {
			t.Fatalf("drained primary role = %s, want fenced", p.roleNow())
		}
	})
	t.Run("primary drain refused while the standby lags", func(t *testing.T) {
		primary := newFakeNode(t, crowddb.RolePrimary, "h1", 9)
		standby := newFakeNode(t, crowddb.RoleReplica, "h1", 4)
		sup, _ := newTestFleet(t, primary, standby)
		_, err := sup.Drain(context.Background(), primary.url())
		if err == nil || !strings.Contains(err.Error(), "behind") {
			t.Fatalf("drain with lagging standby = %v, want a lag refusal", err)
		}
		if standby.snapshot().promotions != 0 {
			t.Fatal("refused drain still promoted")
		}
		// The lag pre-check fails fast, BEFORE the seal: a refused drain
		// must leave the primary serving.
		if primary.snapshot().leaseSealed {
			t.Fatal("refused drain left the primary sealed")
		}
	})
	t.Run("primary drain times out on the supervisor clock", func(t *testing.T) {
		// A mutation acked just before the seal leaves the standby one
		// record short of the sealed head for good. The catch-up wait
		// is timed on the supervisor's manual clock, so Drain answers
		// without waiting out its deadline on the wall clock.
		primary := newFakeNode(t, crowddb.RolePrimary, "h1", 9)
		primary.set(func(n *fakeNode) { n.onSeal = func(n *fakeNode) { n.applied++ } })
		standby := newFakeNode(t, crowddb.RoleReplica, "h1", 9)
		sup, _ := newTestFleet(t, primary, standby)
		start := time.Now()
		_, err := sup.Drain(context.Background(), primary.url())
		if err == nil || !strings.Contains(err.Error(), "did not reach the sealed head") {
			t.Fatalf("drain with a standby short of the sealed head = %v", err)
		}
		if d := time.Since(start); d >= time.Second {
			t.Fatalf("drain took %v of wall time to give up, want well under 1s", d)
		}
		if standby.snapshot().promotions != 0 || primary.snapshot().leaseSealed {
			t.Fatal("timed-out drain promoted or left the primary sealed")
		}
	})
	t.Run("unknown node refused", func(t *testing.T) {
		primary := newFakeNode(t, crowddb.RolePrimary, "h1", 9)
		sup, _ := newTestFleet(t, primary)
		if _, err := sup.Drain(context.Background(), "http://nobody.example"); err == nil {
			t.Fatal("drain of an undeclared node accepted")
		}
	})
}

// TestSupervisorLostRenewalResponsesStopTheLease is the dual-primary
// regression: a partition that delivers requests but eats responses
// used to let every "missed" probe re-arm the primary's lease
// server-side, so the supervisor promoted a successor while the old
// primary still held a live lease and kept acking. The supervisor must
// stop sending renewals the moment one goes unanswered, and must not
// promote until the last renewal it attempted has provably lapsed.
func TestSupervisorLostRenewalResponsesStopTheLease(t *testing.T) {
	primary := newFakeNode(t, crowddb.RolePrimary, "h1", 20)
	standby := newFakeNode(t, crowddb.RoleReplica, "h1", 20)
	sup, _ := newTestFleet(t, primary, standby)
	ctx := context.Background()
	opts := testOptions()

	sup.Tick(ctx) // healthy baseline: renewal 1
	primary.set(func(n *fakeNode) { n.swallow = true })

	// This renewal's request arrives and re-arms the lease; its
	// response is eaten, so the supervisor records a miss.
	lastAttempt := sup.opts.Clock.Now()
	sup.Tick(ctx)
	afterLoss := primary.snapshot().leaseRenewals
	if afterLoss < 2 {
		t.Fatalf("renewals after lost-response tick = %d, want the request to have arrived", afterLoss)
	}
	if st := sup.Status(); st.Shards[0].Misses != 1 {
		t.Fatalf("lost response not counted as a miss: %+v", st.Shards[0])
	}

	tickUntil(t, sup, func() bool { return standby.snapshot().promotions > 0 })
	promotedAt := sup.opts.Clock.Now()

	// A suspect primary gets side-effect-free probes, never renewals:
	// the count must not have moved since the lost response.
	if got := primary.snapshot().leaseRenewals; got != afterLoss {
		t.Fatalf("supervisor kept renewing a suspect primary's lease: %d → %d renewals", afterLoss, got)
	}
	// And the promotion waited out the lease the lost-response renewal
	// could have re-armed.
	if elapsed := promotedAt.Sub(lastAttempt); elapsed <= opts.LeaseTTL {
		t.Fatalf("promoted %v after the last renewal attempt, inside its %v lease", elapsed, opts.LeaseTTL)
	}
}

// TestSupervisorStatusDoesNotBlockOnSlowProbes: Status (the admin
// /status endpoint) must answer from the state lock alone — a probe
// stuck in the network for a full ProbeTimeout cannot stall it.
func TestSupervisorStatusDoesNotBlockOnSlowProbes(t *testing.T) {
	release, arrived := make(chan struct{}), make(chan struct{}, 1)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case arrived <- struct{}{}:
		default:
		}
		select {
		case <-release:
		case <-r.Context().Done():
		}
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer slow.Close()

	opts := testOptions()
	opts.ProbeTimeout = 2 * time.Second
	sup, err := New(Spec{Shards: []ShardFleet{{Primary: Node{URL: slow.URL}}}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		sup.Tick(context.Background())
		close(done)
	}()
	<-arrived // the tick is now parked inside the probe
	start := time.Now()
	_ = sup.Status()
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("Status blocked %v behind an in-flight probe", d)
	}
	close(release)
	<-done
}

// TestSupervisorAdminHandler drives the admin surface the drain
// subcommand uses.
func TestSupervisorAdminHandler(t *testing.T) {
	primary := newFakeNode(t, crowddb.RolePrimary, "h1", 3)
	standby := newFakeNode(t, crowddb.RoleReplica, "h1", 3)
	sup, _ := newTestFleet(t, primary, standby)
	admin := httptest.NewServer(sup.AdminHandler())
	defer admin.Close()

	resp, err := http.Get(admin.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Holder != "test-supervisor" || len(st.Shards) != 1 {
		t.Fatalf("status = %+v", st)
	}

	resp, err = http.Post(admin.URL+"/drain", "application/json",
		strings.NewReader(`{"node": "`+standby.url()+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(st.Shards[0].Drained) != 1 {
		t.Fatalf("drain via admin = %s %+v", resp.Status, st.Shards[0])
	}

	// Draining a node that is no longer in the fleet is a 409 with the
	// error surfaced.
	resp, err = http.Post(admin.URL+"/drain", "application/json",
		strings.NewReader(`{"node": "`+standby.url()+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("double drain = %s, want 409", resp.Status)
	}
}

// TestSupervisorRefusesUnsafeStandby: the integrity gate. A diverged
// or scrub-failed standby must never win a failover, even when it is
// the most caught-up — the supervisor promotes the clean one and the
// Status surface names why the other was passed over.
func TestSupervisorRefusesUnsafeStandby(t *testing.T) {
	primary := newFakeNode(t, crowddb.RolePrimary, "h1", 20)
	rotten := newFakeNode(t, crowddb.RoleReplica, "h1", 20)
	rotten.set(func(n *fakeNode) { n.diverged = true })
	scarred := newFakeNode(t, crowddb.RoleReplica, "h1", 20)
	scarred.set(func(n *fakeNode) { n.scrubFailed = true })
	clean := newFakeNode(t, crowddb.RoleReplica, "h1", 5) // behind, but trustworthy
	sup, _ := newTestFleet(t, primary, rotten, scarred, clean)
	ctx := context.Background()

	sup.Tick(ctx)
	st := sup.Status()
	if got := st.Shards[0].Unsafe; got[rotten.url()] != "diverged" || got[scarred.url()] != "scrub_failed" {
		t.Fatalf("unsafe map = %+v", got)
	}
	if _, bad := st.Shards[0].Unsafe[clean.url()]; bad {
		t.Fatal("clean standby flagged unsafe")
	}

	primary.set(func(n *fakeNode) { n.alive = false })
	tickUntil(t, sup, func() bool { return clean.snapshot().promotions > 0 })
	if rotten.snapshot().promotions != 0 || scarred.snapshot().promotions != 0 {
		t.Fatalf("unsafe standby promoted: diverged=%d scrub_failed=%d",
			rotten.snapshot().promotions, scarred.snapshot().promotions)
	}
	if row := sup.Status().Shards[0]; row.Primary.URL != clean.url() {
		t.Fatalf("post-failover primary = %s, want the clean standby", row.Primary.URL)
	}
}

// TestSupervisorUnsafeFlagClears: a repaired follower comes back into
// the candidate pool on the next probe.
func TestSupervisorUnsafeFlagClears(t *testing.T) {
	primary := newFakeNode(t, crowddb.RolePrimary, "h1", 20)
	standby := newFakeNode(t, crowddb.RoleReplica, "h1", 20)
	standby.set(func(n *fakeNode) { n.diverged = true })
	sup, _ := newTestFleet(t, primary, standby)
	ctx := context.Background()

	sup.Tick(ctx)
	if got := sup.Status().Shards[0].Unsafe; got[standby.url()] != "diverged" {
		t.Fatalf("unsafe map = %+v", got)
	}
	standby.set(func(n *fakeNode) { n.diverged = false }) // re-bootstrap repaired it
	sup.Tick(ctx)
	if got := sup.Status().Shards[0].Unsafe; len(got) != 0 {
		t.Fatalf("unsafe flag survived the repair: %+v", got)
	}
}

// TestSupervisorDrainRefusesUnsafeStandby: the integrity gate holds on
// the drain path too. The standby passes the pre-check, then reports a
// divergence once the primary is sealed; the handoff must stop there —
// no promotion, the primary un-sealed, and an error naming the standby.
func TestSupervisorDrainRefusesUnsafeStandby(t *testing.T) {
	primary := newFakeNode(t, crowddb.RolePrimary, "h1", 9)
	standby := newFakeNode(t, crowddb.RoleReplica, "h1", 9)
	primary.set(func(n *fakeNode) {
		n.onSeal = func(*fakeNode) { standby.set(func(s *fakeNode) { s.diverged = true }) }
	})
	sup, _ := newTestFleet(t, primary, standby)
	st, err := sup.Drain(context.Background(), primary.url())
	if err == nil || !strings.Contains(err.Error(), standby.url()) {
		t.Fatalf("drain onto a diverged standby = %v, want an error naming %s", err, standby.url())
	}
	if got := standby.snapshot().promotions; got != 0 {
		t.Fatalf("diverged standby promoted %d times", got)
	}
	if primary.snapshot().leaseSealed {
		t.Fatal("refused drain left the primary sealed")
	}
	if row := st.Shards[0]; row.Primary.URL != primary.url() || row.Unsafe[standby.url()] != "diverged" {
		t.Fatalf("after the refused drain: %+v", row)
	}
}

// TestSupervisorBlackholedPrimaryOpensBreaker: a probe has one
// deadline, its client's Timeout, so a primary whose requests vanish
// fails each probe as a transport failure. After BreakerThreshold (5)
// such probes the client's breaker opens and later ticks fail fast
// instead of each waiting out ProbeTimeout.
func TestSupervisorBlackholedPrimaryOpensBreaker(t *testing.T) {
	primary := newFakeNode(t, crowddb.RolePrimary, "h1", 3)
	proxy, err := faultnet.Listen(primary.ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	opts := testOptions()
	opts.SuspectAfter = 100 // no failover: only the probes are under test
	sup, err := New(Spec{Shards: []ShardFleet{{Primary: Node{URL: proxy.URL()}}}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sup.Tick(ctx) // healthy baseline through the proxy
	proxy.Set(faultnet.Faults{DropUpstream: true})
	for i := 0; i < 5; i++ {
		sup.Tick(ctx)
	}
	if st := sup.client(proxy.URL()).ResilienceStats(); st.BreakerState != "open" || st.BreakerOpens != 1 {
		t.Fatalf("after 5 blackholed probes: breaker %+v, want open once", st)
	}
	start := time.Now()
	sup.Tick(ctx)
	if d := time.Since(start); d > opts.ProbeTimeout/5 {
		t.Fatalf("tick against an open breaker took %v, want far below the %v probe timeout", d, opts.ProbeTimeout)
	}
	if st := sup.Status(); st.Shards[0].Misses != 6 || st.Failovers != 0 {
		t.Fatalf("after 6 blackholed ticks: %+v", st.Shards[0])
	}
}
