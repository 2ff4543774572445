package crowddb

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestFenceEpochSemantics(t *testing.T) {
	f := NewFence(nil)
	if f.Epoch() != 1 || f.ObservedEpoch() != 1 {
		t.Fatalf("fresh fence epochs = %d/%d, want 1/1", f.Epoch(), f.ObservedEpoch())
	}
	if f.Sealed() {
		t.Fatal("fresh fence is sealed")
	}

	// Epochs from a different history are a different lineage: ignored.
	if f.Observe("some-other-history", 99, "http://elsewhere") {
		t.Fatal("foreign-history epoch sealed the node")
	}
	if f.Sealed() || f.ObservedEpoch() != 1 {
		t.Fatalf("foreign-history epoch leaked in: sealed=%v observed=%d", f.Sealed(), f.ObservedEpoch())
	}

	// A higher epoch for our own history seals, permanently, and the
	// hint is kept for refusals.
	if !f.Observe(f.History(), 3, "http://new-primary") {
		t.Fatal("own-history higher epoch did not seal")
	}
	if !f.Sealed() {
		t.Fatal("fence not sealed after observing higher epoch")
	}
	if _, by := f.sealedBy(); by != "epoch" {
		t.Fatalf("sealed by %q, want epoch", by)
	}
	if f.NewPrimary() != "http://new-primary" {
		t.Fatalf("new primary hint = %q", f.NewPrimary())
	}
	if err := f.Renew("sup", time.Second); !errors.Is(err, ErrFenced) {
		t.Fatalf("lease renewal on an epoch-sealed node = %v, want ErrFenced", err)
	}
	st := f.Status()
	if !st.Sealed || st.SealedBy != "epoch" || st.Observed != 3 || st.Epoch != 1 || st.Seals != 1 {
		t.Fatalf("sealed status = %+v", st)
	}

	// Observing a lower epoch never un-seals (monotone).
	f.Observe(f.History(), 2, "")
	if !f.Sealed() || f.ObservedEpoch() != 3 {
		t.Fatalf("lower epoch rewound the fence: sealed=%v observed=%d", f.Sealed(), f.ObservedEpoch())
	}
}

func TestFenceLeaseSealsLazilyAndRenewalUnseals(t *testing.T) {
	f := NewFence(nil)
	f.clock = testClock(t)
	advance := func(d time.Duration) { step(testClock(t), d) }

	// No supervisor has ever renewed: the lease never seals.
	advance(time.Hour)
	if f.Sealed() {
		t.Fatal("node with no lease armed sealed itself")
	}

	if err := f.Renew("sup-1", time.Second); err != nil {
		t.Fatal(err)
	}
	if f.Sealed() {
		t.Fatal("sealed under a live lease")
	}
	advance(2 * time.Second)
	if !f.Sealed() {
		t.Fatal("lapsed lease did not seal")
	}
	if _, by := f.sealedBy(); by != "lease" {
		t.Fatalf("sealed by %q, want lease", by)
	}

	// The seal is provisional: a renewal (supervisor restart, healed
	// partition) un-seals.
	if err := f.Renew("sup-2", time.Second); err != nil {
		t.Fatal(err)
	}
	if f.Sealed() {
		t.Fatal("renewal did not un-seal")
	}
	st := f.Status()
	if st.LeaseHolder != "sup-2" || st.LeaseTTLLeft <= 0 {
		t.Fatalf("lease status = %+v", st)
	}
	if err := f.Renew("sup-2", 0); err == nil {
		t.Fatal("zero-ttl renewal accepted")
	}
}

func TestFencingEpochPersistsAcrossReopen(t *testing.T) {
	d, model := trainedFixture(t)
	dir := t.TempDir()
	rig := openDurable(t, dir, d, model, Options{Sync: SyncAlways()})
	if got := rig.db.FencingEpoch(); got != 1 {
		t.Fatalf("fresh history epoch = %d, want 1", got)
	}
	rig.resolveOneTask(t, "a task so the journal has content", []float64{4, 2})

	// The node learns it was deposed (epoch 3 exists) — and the
	// knowledge must survive a restart, or a crashed deposed primary
	// would come back up accepting writes.
	if err := rig.db.ObserveFencingEpoch(3); err != nil {
		t.Fatal(err)
	}
	if err := rig.db.Close(); err != nil {
		t.Fatal(err)
	}

	rig2 := openDurable(t, dir, d, nil, Options{Sync: SyncAlways()})
	defer rig2.db.Close()
	if own, obs := rig2.db.FencingEpoch(), rig2.db.FencingObserved(); own != 1 || obs != 3 {
		t.Fatalf("reopened epochs = %d/%d, want 1/3", own, obs)
	}
	f := NewFence(rig2.db)
	if !f.Sealed() {
		t.Fatal("deposed node restarted unsealed")
	}

	// Promotion (epoch past the observed one) persists too.
	if err := rig2.db.SetFencingEpoch(4); err != nil {
		t.Fatal(err)
	}
	if err := rig2.db.Close(); err != nil {
		t.Fatal(err)
	}
	rig3 := openDurable(t, dir, d, nil, Options{Sync: SyncAlways()})
	defer rig3.db.Close()
	if own := rig3.db.FencingEpoch(); own != 4 {
		t.Fatalf("promoted epoch after reopen = %d, want 4", own)
	}
	if NewFence(rig3.db).Sealed() {
		t.Fatal("promoted node restarted sealed")
	}
}

// TestFencedByDefault: a server described without a Fence is fenced all
// the same, by the memory-only fence an in-memory node runs. It gossips
// its epoch and history, obeys a fence order for that history, and
// then refuses mutations with the typed 409.
func TestFencedByDefault(t *testing.T) {
	mgr, _ := managerFixture(t)
	api := httptest.NewServer(NewServer(mgr))
	defer api.Close()

	resp, err := http.Get(api.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	history := resp.Header.Get("X-Crowdd-History")
	if got := resp.Header.Get("X-Crowdd-Fencing-Epoch"); got != "1" || history == "" {
		t.Fatalf("bare server gossips epoch %q history %q, want epoch 1 and a history", got, history)
	}

	resp = postJSON(t, api.URL+"/api/v1/replication/fence", FenceRequest{History: history, Epoch: 2})
	if fr := decode[FenceResponse](t, resp); resp.StatusCode != http.StatusOK || fr.Role != RoleFenced || !fr.Fencing.Sealed {
		t.Fatalf("fence order on a bare server = %s %+v, want 200 fenced", resp.Status, fr)
	}
	resp = postJSON(t, api.URL+"/api/v1/tasks", SubmitRequest{Text: "a write after the deposition", K: 1})
	if env := decode[ErrorEnvelope](t, resp); resp.StatusCode != http.StatusConflict || env.Error.Code != "fenced" {
		t.Fatalf("mutation on a fenced bare server = %s %+v, want 409 %s", resp.Status, env, "fenced")
	}
}

// TestFencedServerGate drives the HTTP layer end to end: an explicit
// fence order seals a deposed primary (inbound gossip headers are
// untrusted and must NOT), mutations refuse with the typed 409 and
// the new-primary hint, reads keep serving, /readyz and /api/v1/metrics
// report the fenced role, and the replication stream goes dark.
func TestFencedServerGate(t *testing.T) {
	rig, src, ts := replPrimary(t)
	rig.resolveOneTask(t, "one committed task before the deposition", []float64{4, 2})

	fence := src.fence
	api := httptest.NewServer(newNode(t, TenantConfig{Manager: rig.mgr}, NodeConfig{Fence: fence}))
	defer api.Close()
	history := rig.db.ReplicationHistory()

	// Baseline: mutations accepted, every response gossips the epoch.
	resp, err := http.Post(api.URL+"/api/v1/tasks", "application/json", bytes.NewBufferString(`{"text":"accepted before the seal"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("pre-seal mutation got %s, want 201", resp.Status)
	}
	if got := resp.Header.Get("X-Crowdd-Fencing-Epoch"); got != "1" {
		t.Fatalf("gossiped epoch = %q, want 1", got)
	}
	if got := resp.Header.Get("X-Crowdd-History"); got != history {
		t.Fatalf("gossiped history = %q, want %q", got, history)
	}

	// A client that heard of epoch 2 echoes it on an ordinary request.
	// Request headers are untrusted — anyone who can reach the port can
	// set them — so the echo must NOT seal the node: a stray curl with
	// a large epoch would otherwise brick every primary it touches.
	req, _ := http.NewRequest(http.MethodGet, api.URL+"/readyz", nil)
	req.Header.Set("X-Crowdd-History", history)
	req.Header.Set("X-Crowdd-Fencing-Epoch", "2")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if fence.Sealed() {
		t.Fatal("inbound gossip headers sealed the node: request headers are untrusted input")
	}

	// The explicit fence order is the trusted path: it seals, raises
	// the observed epoch, and carries the hint.
	body, _ := json.Marshal(FenceRequest{History: history, Epoch: 3, NewPrimary: "http://new-primary.example"})
	resp, err = http.Post(api.URL+"/api/v1/replication/fence", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var fr FenceResponse
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || fr.Role != RoleFenced || !fr.Fencing.Sealed || fr.Fencing.Observed != 3 {
		t.Fatalf("fence order response = %s %+v, want 200 fenced observed 3", resp.Status, fr)
	}

	// Mutations now refuse with the typed 409 and the redirect hint.
	resp, err = http.Post(api.URL+"/api/v1/tasks", "application/json", bytes.NewBufferString(`{"text":"must be refused"}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mutation on fenced node got %s (%s), want 409", resp.Status, raw)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code != "fenced" {
		t.Fatalf("fenced refusal envelope = %s, want code %s", raw, "fenced")
	}
	if got := resp.Header.Get("X-Crowdd-Primary"); got != "http://new-primary.example" {
		t.Fatalf("X-Crowdd-Primary = %q, want the fence order's hint", got)
	}
	if got := resp.Header.Get("X-Crowdd-Fencing-Epoch"); got != "3" {
		t.Fatalf("refusal epoch header = %q, want 3", got)
	}

	// Reads keep serving: a fenced node is a read replica in all but name.
	resp, err = http.Post(api.URL+"/api/v1/selections", "application/json",
		bytes.NewBufferString(`{"tasks":[{"text":"classify this photograph"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("selections on fenced node got %s, want 200", resp.Status)
	}

	// /readyz and /api/v1/metrics both report the fenced role and epochs.
	resp, err = http.Get(api.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready ReadyzResponse
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ready.Role != RoleFenced || ready.Fencing == nil || !ready.Fencing.Sealed || ready.FencingEpoch != 1 {
		t.Fatalf("readyz on fenced node = %+v", ready)
	}
	resp, err = http.Get(api.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Fencing == nil || !snap.Fencing.Sealed || snap.Fencing.SealedBy != "epoch" {
		t.Fatalf("metrics fencing block = %+v", snap.Fencing)
	}

	// The replication source refuses too: a deposed primary must not
	// keep feeding followers a dead branch of history.
	resp, err = http.Get(fmt.Sprintf("%s/api/v1/replication/stream?from=0&history=%s", ts.URL, history))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stream from fenced source got %s, want 409", resp.Status)
	}

	// And promotion of a fenced node is refused: its history lost.
	resp, err = http.Post(api.URL+"/api/v1/replication/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("promote on fenced node got %s, want 409", resp.Status)
	}
}

// TestFleetTokenGatesControlSurface: with a fleet token configured,
// the replication control surface (fence, lease, promote, stream)
// demands the bearer token; probes and the public task API stay open.
// Without the gate, anyone who can reach the port could fence a
// primary or seal its lease — a one-request denial of service.
func TestFleetTokenGatesControlSurface(t *testing.T) {
	rig, _, _ := replPrimary(t)
	fence := NewFence(rig.db)
	api := httptest.NewServer(newNode(t, TenantConfig{Manager: rig.mgr}, NodeConfig{Fence: fence, FleetToken: "drill-token"}))
	defer api.Close()
	history := rig.db.ReplicationHistory()

	do := func(token, method, path, body string) int {
		t.Helper()
		var rd io.Reader
		if body != "" {
			rd = bytes.NewBufferString(body)
		}
		req, err := http.NewRequest(method, api.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	fenceBody := fmt.Sprintf(`{"history":%q,"epoch":9}`, history)
	if got := do("", http.MethodPost, "/api/v1/replication/fence", fenceBody); got != http.StatusForbidden {
		t.Fatalf("unauthenticated fence order got %d, want 403", got)
	}
	if got := do("wrong-token", http.MethodPost, "/api/v1/replication/fence", fenceBody); got != http.StatusForbidden {
		t.Fatalf("wrong-token fence order got %d, want 403", got)
	}
	if fence.Sealed() {
		t.Fatal("rejected fence order still sealed the node")
	}
	if got := do("", http.MethodPost, "/api/v1/replication/lease", `{"holder":"rogue","seal":true}`); got != http.StatusForbidden {
		t.Fatalf("unauthenticated lease seal got %d, want 403", got)
	}

	// The right token passes, and the rest of the node stays open.
	if got := do("drill-token", http.MethodPost, "/api/v1/replication/lease", `{"holder":"sup","ttl_ms":60000}`); got != http.StatusOK {
		t.Fatalf("authenticated lease renewal got %d, want 200", got)
	}
	if got := do("", http.MethodGet, "/readyz", ""); got != http.StatusOK {
		t.Fatalf("readyz behind a fleet token got %d, want 200 (probes stay open)", got)
	}
	if got := do("", http.MethodPost, "/api/v1/tasks", `{"text":"public api stays open"}`); got != http.StatusCreated {
		t.Fatalf("task submit behind a fleet token got %d, want 201", got)
	}
}

// TestLeaseEndpointSealsOnLapse exercises the supervisor-lease half
// over HTTP: renewals keep a primary accepting writes, a lapse seals
// it (zero acks while partitioned from the supervisor), and the next
// renewal un-seals.
func TestLeaseEndpointSealsOnLapse(t *testing.T) {
	rig, _, _ := replPrimary(t)
	fence := NewFence(rig.db)
	api := httptest.NewServer(newNode(t, TenantConfig{Manager: rig.mgr}, NodeConfig{Fence: fence}))
	defer api.Close()

	renew := func(ttlMs int64) *http.Response {
		t.Helper()
		body, _ := json.Marshal(LeaseRequest{Holder: "test-sup", TTLMs: ttlMs})
		resp, err := http.Post(api.URL+"/api/v1/replication/lease", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	mutate := func() int {
		t.Helper()
		resp, err := http.Post(api.URL+"/api/v1/tasks", "application/json", bytes.NewBufferString(`{"text":"lease gate probe"}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	resp := renew(50)
	var ready ReadyzResponse
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ready.Role != RolePrimary {
		t.Fatalf("lease renewal = %s role %q, want 200 primary", resp.Status, ready.Role)
	}
	if got := mutate(); got != http.StatusCreated {
		t.Fatalf("mutation under live lease got %d, want 201", got)
	}

	waitUntil(t, "lease lapse seals the node", func() bool {
		return mutate() == http.StatusConflict
	})
	if _, by := fence.sealedBy(); by != "lease" {
		t.Fatalf("sealed by %q, want lease", by)
	}

	// The supervisor comes back: one renewal restores service.
	resp = renew(60_000)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-lapse renewal got %s, want 200", resp.Status)
	}
	if got := mutate(); got != http.StatusCreated {
		t.Fatalf("mutation after renewal got %d, want 201", got)
	}
}

// TestLeaseAnswerCarriesTheFence holds the lease endpoint's answer and
// /readyz to one fence block: a supervisor sees sealed and sealed_by in
// the answer to its own seal, the renewal's answer shows the seal gone,
// and on both endpoints fencing_epoch is fencing.epoch.
func TestLeaseAnswerCarriesTheFence(t *testing.T) {
	rig, _, _ := replPrimary(t)
	api := httptest.NewServer(newNode(t, TenantConfig{Manager: rig.mgr}, NodeConfig{Fence: NewFence(rig.db)}))
	defer api.Close()

	answer := func(method, path, body string) ReadyzResponse {
		t.Helper()
		req, err := http.NewRequest(method, api.URL+path, bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ready ReadyzResponse
		if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s = %s", method, path, resp.Status)
		}
		if ready.Fencing == nil {
			t.Fatalf("%s %s: no fencing block", method, path)
		}
		if ready.Fencing.Epoch == 0 || ready.FencingEpoch != ready.Fencing.Epoch {
			t.Fatalf("%s %s: fencing_epoch %d, fencing.epoch %d", method, path, ready.FencingEpoch, ready.Fencing.Epoch)
		}
		return ready
	}

	sealed := answer(http.MethodPost, "/api/v1/replication/lease", `{"holder":"sup","seal":true}`)
	if !sealed.Fencing.Sealed || sealed.Fencing.SealedBy != "lease" {
		t.Fatalf("the seal's answer: sealed %v by %q, want true by lease", sealed.Fencing.Sealed, sealed.Fencing.SealedBy)
	}
	if probe := answer(http.MethodGet, "/readyz", ""); !probe.Fencing.Sealed {
		t.Fatal("/readyz after the seal: not sealed")
	}
	renewed := answer(http.MethodPost, "/api/v1/replication/lease", `{"holder":"sup","ttl_ms":60000}`)
	if renewed.Fencing.Sealed || renewed.Fencing.LeaseHolder != "sup" {
		t.Fatalf("the renewal's answer: sealed %v, lease holder %q", renewed.Fencing.Sealed, renewed.Fencing.LeaseHolder)
	}
	if probe := answer(http.MethodGet, "/readyz", ""); probe.Fencing.Sealed {
		t.Fatal("/readyz after the renewal: still sealed")
	}
}

// TestConcurrentPromotionSingleWinner races promotions at a blocked
// replica: exactly one caller runs the promotion, concurrent callers
// get the typed ErrPromotionInProgress mid-flight (409
// promotion_in_progress over HTTP), and late callers get the winner's
// result.
func TestConcurrentPromotionSingleWinner(t *testing.T) {
	rig, _, ts := replPrimary(t)
	rig.resolveOneTask(t, "the last committed task", []float64{4, 2})
	rep := startTestReplica(t, ts.URL, t.TempDir())
	defer rep.Close()
	waitCaughtUp(t, rig, rep)
	killPrimary(ts)

	rts := httptest.NewServer(newNode(t, TenantConfig{Manager: rep.mgr}, NodeConfig{
		Role: RoleReplica, Replication: rep.Status, Promoter: rep.Promote,
	}))
	defer rts.Close()

	// Block the winner mid-promotion (Promote compacts, compaction
	// quiesces) so the race window is held open deterministically.
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	rep.DB().SetQuiescer(func(fn func() error) error {
		once.Do(func() {
			close(entered)
			<-release
		})
		return rep.mgr.Quiesce(fn)
	})

	winner := make(chan error, 1)
	go func() { winner <- rep.Promote(context.Background()) }()
	<-entered

	// Mid-flight losers: typed error, both in-process and over HTTP.
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = rep.Promote(context.Background())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrPromotionInProgress) {
			t.Fatalf("loser %d: err = %v, want ErrPromotionInProgress", i, err)
		}
	}
	resp, err := http.Post(rts.URL+"/api/v1/replication/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var env ErrorEnvelope
	if resp.StatusCode != http.StatusConflict || json.Unmarshal(raw, &env) != nil || env.Error.Code != "promotion_in_progress" {
		t.Fatalf("HTTP loser got %s (%s), want 409 %s", resp.Status, raw, "promotion_in_progress")
	}

	close(release)
	if err := <-winner; err != nil {
		t.Fatalf("winner: %v", err)
	}
	if st := rep.Status(); st.Role != RolePrimary || st.FencingEpoch != 2 {
		t.Fatalf("after promotion: role %q epoch %d, want primary 2", st.Role, st.FencingEpoch)
	}
	// A caller arriving after completion gets the winner's result: the
	// promotion happened exactly once either way.
	if err := rep.Promote(context.Background()); err != nil {
		t.Fatalf("late caller: %v", err)
	}
}

// TestPromotionFailureIsRetryable: a promotion that dies mid-flight
// (here: the checkpoint fails) must not latch the replica into a
// half-promoted state — the flip is released, the role stays replica,
// and a later call retries the whole sequence and succeeds.
func TestPromotionFailureIsRetryable(t *testing.T) {
	rig, _, ts := replPrimary(t)
	rig.resolveOneTask(t, "the last committed task", []float64{4, 2})
	rep := startTestReplica(t, ts.URL, t.TempDir())
	defer rep.Close()
	waitCaughtUp(t, rig, rep)
	killPrimary(ts)

	var mu sync.Mutex
	boom := true
	rep.DB().SetQuiescer(func(fn func() error) error {
		mu.Lock()
		b := boom
		boom = false
		mu.Unlock()
		if b {
			return errors.New("boom: checkpoint died mid-promotion")
		}
		return rep.mgr.Quiesce(fn)
	})

	if err := rep.Promote(context.Background()); err == nil {
		t.Fatal("promotion with a failing checkpoint reported success")
	}
	if st := rep.Status(); st.Role == RolePrimary {
		t.Fatalf("failed promotion still flipped the role: %+v", st)
	}

	if err := rep.Promote(context.Background()); err != nil {
		t.Fatalf("retry after a failed promotion: %v", err)
	}
	st := rep.Status()
	if st.Role != RolePrimary {
		t.Fatalf("after retry: role %q, want primary", st.Role)
	}
	// The failed attempt burned epoch 2 (the epoch write landed before
	// the checkpoint died); the retry claims the next one. Both are
	// past every observed epoch, which is all fencing needs.
	if st.FencingEpoch != 3 {
		t.Fatalf("after retry: fencing epoch %d, want 3", st.FencingEpoch)
	}
}
