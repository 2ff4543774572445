package chaos

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"crowdselect/internal/clock"
	"crowdselect/internal/core"
	"crowdselect/internal/corpus"
	"crowdselect/internal/crowdclient"
	"crowdselect/internal/crowddb"
	"crowdselect/internal/faultnet"
)

// replRig is a full primary stack wired for replication: durable DB,
// manager, concurrent model, HTTP server with the journal stream
// endpoint exposed.
type replRig struct {
	db    *crowddb.DB
	mgr   *crowddb.Manager
	cm    *core.ConcurrentModel
	d     *corpus.Dataset
	ts    *httptest.Server
	fence *crowddb.Fence
	sl    *crowddb.Tenant
}

// newReplPrimary boots a durable primary whose dataset is persisted
// (followers bootstrap from it) and whose server streams the journal.
func newReplPrimary(t *testing.T) *replRig {
	t.Helper()
	r := openReplPrimary(t)
	r.start(t)
	return r
}

// openReplPrimary opens newReplPrimary's durable slice, not yet served.
func openReplPrimary(t *testing.T) *replRig {
	t.Helper()
	d, m := drillSeed(t, 11)
	sl := openTenant(t, crowddb.SliceConfig{
		Dir:  t.TempDir(),
		DB:   crowddb.Options{Sync: crowddb.SyncAlways(), ScrubInterval: pollStep, Clock: testClock(t)},
		Seed: seedOf(d, m),
	})
	return &replRig{db: sl.DB, mgr: sl.Manager, cm: sl.Model, d: d, sl: sl}
}

// start describes the rig's node — its slice as the default tenant, the
// named slices beside it — and serves it.
func (r *replRig) start(t *testing.T, named ...*crowddb.Tenant) {
	t.Helper()
	node := r.sl.Node(named...)
	r.ts, r.fence = serve(t, node), node.Fence
}

// follower is a warm standby a drill started, beside the serving stack
// its slice holds: the manager it serves and the model it keeps
// current.
type follower struct {
	*crowddb.Replica
	mgr *crowddb.Manager
	cm  *core.ConcurrentModel
}

// startReplica opens a follower slice of name under shard sp, streaming
// from primaryURL into dir.
func startReplica(t *testing.T, primaryURL, name, dir string, sp crowddb.ShardSpec) (*follower, *crowddb.Tenant) {
	t.Helper()
	sl := openTenant(t, crowddb.SliceConfig{
		Name:      name,
		Dir:       dir,
		ReplicaOf: primaryURL,
		Shard:     sp,
		DB:        crowddb.Options{Sync: crowddb.SyncAlways(), Clock: testClock(t)},
	})
	return &follower{Replica: sl.Replica, mgr: sl.Manager, cm: sl.Model}, sl
}

// startFollower runs a warm standby streaming from primaryURL, served
// read-only over httptest with promotion wired, as cmd/crowdd's replica
// mode serves it.
func startFollower(t *testing.T, primaryURL string) (*follower, *httptest.Server) {
	t.Helper()
	return startFollowerDir(t, primaryURL, t.TempDir())
}

// startFollowerDir is startFollower with a caller-owned data
// directory, so drills can stop a follower, damage its at-rest files,
// and restart it over the same state. A promoted standby feeds
// followers of its own: the healed fleet re-converges by re-pointing at
// the winner.
func startFollowerDir(t *testing.T, primaryURL, dir string) (*follower, *httptest.Server) {
	t.Helper()
	rep, sl := startReplica(t, primaryURL, crowddb.DefaultTenant, dir, crowddb.ShardSpec{})
	return rep, serve(t, sl.Node())
}

// clocks holds each top-level test's manual clock (testClock).
var clocks sync.Map // test name → *clock.Manual

// testClock is t's manual clock, one per top-level test and shared by
// its subtests. The DBs, fences, transfer sources and replicas a drill
// builds run on it, so the drill's time moves only in waitFor's steps.
func testClock(t *testing.T) *clock.Manual {
	root, _, _ := strings.Cut(t.Name(), "/")
	c, _ := clocks.LoadOrStore(root, new(clock.Manual))
	return c.(*clock.Manual)
}

// pollStep is how far waitFor moves the test's clock between polls:
// the split-brain drill's probe interval, under its lease.
const pollStep = 25 * time.Millisecond

// waitFor polls cond, stepping t's clock by pollStep between polls, so
// heartbeats, reconnects, heal probes, scrubs and breaker cooldowns
// come due while the drill waits.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		testClock(t).Sleep(context.Background(), pollStep)
		time.Sleep(2 * time.Millisecond)
	}
}

// modelBytes snapshots a concurrent model's full serialized state.
func modelBytes(t *testing.T, cm *core.ConcurrentModel) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := cm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// resolveVia pushes one task end to end through the Multi client so
// the mutation path (submit, answers, feedback) exercises routing.
func resolveVia(t *testing.T, ctx context.Context, multi *crowdclient.Multi, text string) int {
	t.Helper()
	sub, err := multi.SubmitTask(ctx, text, 2)
	if err != nil {
		t.Fatalf("submit %q: %v", text, err)
	}
	scores := make(map[int]float64, len(sub.Workers))
	for i, w := range sub.Workers {
		if err := multi.Answer(ctx, sub.TaskID, w, fmt.Sprintf("answer %d", i)); err != nil {
			t.Fatalf("answer task %d: %v", sub.TaskID, err)
		}
		scores[w] = float64(1 + i%5)
	}
	if _, err := multi.Feedback(ctx, sub.TaskID, scores); err != nil {
		t.Fatalf("feedback task %d: %v", sub.TaskID, err)
	}
	return sub.TaskID
}

// TestChaosReplicationFailover is the end-to-end failover drill: a
// primary/follower pair with the replication link running through a
// faultnet proxy, live mutation traffic through the multi-endpoint
// client, a partition that the follower rides out and catches up from,
// then primary death and a verified promotion — no acked mutation
// lost or double-applied, and the promoted model byte-identical to the
// primary's last committed state.
func TestChaosReplicationFailover(t *testing.T) {
	primary := newReplPrimary(t)

	// The follower reaches the primary only through the chaos proxy.
	proxy, err := faultnet.Listen(primary.ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	rep, followerTS := startFollower(t, proxy.URL())

	multi, err := crowdclient.NewMulti([]string{primary.ts.URL, followerTS.URL}, crowdclient.Options{
		Timeout: 2 * time.Second,
		Retries: 2,
		Backoff: time.Millisecond,
		Clock:   new(clock.Manual),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	caughtUp := func() bool {
		pseq := primary.db.ReplicationHead()
		// AppliedSeq includes the record's side effects, so model
		// comparisons after this wait see a settled follower.
		return rep.Status().AppliedSeq == pseq
	}

	// Phase 1: live traffic with the link healthy. The follower tracks
	// the primary and a caught-up follower ranks identically.
	acked := make(map[int]string)
	for i := 0; i < 12; i++ {
		text := fmt.Sprintf("failover drill question %d about query planning", i)
		acked[resolveVia(t, ctx, multi, text)] = text
	}
	waitFor(t, "follower caught up after phase 1", caughtUp)
	if st := rep.Status(); st.Lag == nil || st.Lag.Records != 0 {
		t.Fatalf("caught-up follower reports lag %+v", st.Lag)
	}
	// The live tail must hold on one long-lived stream through the
	// server's middleware shell — catching up via a reconnect storm
	// (stream dropped after every replay) is a regression.
	if st := rep.Status(); st.Reconnects != 0 {
		t.Fatalf("follower reconnected %d times on a healthy link; live tail is broken", st.Reconnects)
	}
	selReq := []crowddb.TaskSubmission{{Text: "how are b+ tree pages split"}, {Text: "compare hash and merge joins"}}
	wantRank, err := primary.mgr.RankOnly(ctx, selReq)
	if err != nil {
		t.Fatal(err)
	}
	gotRank, err := rep.mgr.RankOnly(ctx, selReq)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantRank, gotRank) {
		t.Fatalf("caught-up follower ranks differently:\nprimary %v\nfollower %v", wantRank, gotRank)
	}

	// Phase 2: partition the replication link mid-load. The primary
	// keeps acking; the follower falls behind, reconnects through the
	// healed link and catches up without a re-bootstrap.
	proxy.Set(faultnet.Faults{Blackhole: true})
	proxy.CutActive()
	for i := 0; i < 8; i++ {
		text := fmt.Sprintf("partition-era question %d about write amplification", i)
		acked[resolveVia(t, ctx, multi, text)] = text
	}
	proxy.Heal()
	proxy.CutActive() // blackholed streams are swallowed; force fresh dials
	waitFor(t, "follower caught up after the partition healed", caughtUp)

	// Phase 3: quiesce writes, confirm lag zero, then kill the primary
	// and promote. Zero loss is guaranteed because promotion targets a
	// caught-up follower — the documented failover procedure.
	waitFor(t, "lag zero before failover", func() bool {
		st := rep.Status()
		return st.Lag != nil && st.Lag.Records == 0 && caughtUp()
	})
	wantModel := modelBytes(t, primary.cm)
	wantTasks := primary.db.Store().NumTasks()

	primary.ts.CloseClientConnections()
	primary.ts.Close() // the primary dies

	followerCli := crowdclient.New(followerTS.URL, crowdclient.Options{Timeout: 5 * time.Second})
	st, err := followerCli.Promote(ctx)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if st.Role != crowddb.RolePrimary {
		t.Fatalf("promoted follower reports role %q", st.Role)
	}

	// Verified failover: the promoted store holds every acked mutation
	// exactly once, and the model equals the dead primary's last
	// committed posteriors byte for byte.
	store := rep.DB().Store()
	if got := store.NumTasks(); got != wantTasks {
		t.Fatalf("promoted store has %d tasks, primary had %d", got, wantTasks)
	}
	textCount := make(map[string]int)
	for _, status := range []crowddb.TaskStatus{crowddb.TaskOpen, crowddb.TaskAssigned, crowddb.TaskResolved} {
		for _, rec := range store.ListTasks(status) {
			textCount[rec.Text]++
		}
	}
	for id, text := range acked {
		switch textCount[text] {
		case 1:
		case 0:
			t.Fatalf("acked task %d (%q) lost across failover", id, text)
		default:
			t.Fatalf("acked task %d (%q) applied %d times", id, text, textCount[text])
		}
	}
	if got := modelBytes(t, rep.cm); !bytes.Equal(got, wantModel) {
		t.Fatalf("promoted model diverges from the primary's last committed state (%d vs %d bytes)", len(got), len(wantModel))
	}

	// The new primary accepts traffic: the multi client fails over off
	// the dead endpoint and lands writes on the promoted node.
	text := "life after failover: a question about recovery points"
	id := resolveVia(t, ctx, multi, text)
	if multi.Primary() != followerTS.URL {
		t.Fatalf("multi client believes primary is %q, want %q", multi.Primary(), followerTS.URL)
	}
	if multi.Failovers() == 0 {
		t.Fatal("multi client reports no failovers after the primary died")
	}
	rec, err := multi.GetTask(ctx, id)
	if err != nil || rec.Text != text {
		t.Fatalf("post-failover task = (%+v, %v), want text %q", rec, err, text)
	}

	// Reads kept an answer available throughout: a selection against
	// the promoted model still serves.
	if _, err := multi.Selections(ctx, []crowddb.SubmitRequest{{Text: "one more selection", K: 2}}); err != nil {
		t.Fatalf("selection after failover: %v", err)
	}
}
