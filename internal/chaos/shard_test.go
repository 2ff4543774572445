package chaos

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"crowdselect/internal/clock"
	"crowdselect/internal/core"
	"crowdselect/internal/corpus"
	"crowdselect/internal/crowdclient"
	"crowdselect/internal/crowddb"
)

// shardRig is one durable sharded primary: its own journal directory,
// its own copy of the trained model, shard identity set before the
// first journal record so replay and replication filter identically.
type shardRig struct {
	db  *crowddb.DB
	mgr *crowddb.Manager
	cm  *core.ConcurrentModel
	ts  *httptest.Server
}

// newShardFleet boots one dataset/model pair and count durable sharded
// primaries over it, topology epoch 1 installed on every node.
func newShardFleet(t *testing.T, count int) (*corpus.Dataset, []*shardRig) {
	t.Helper()
	p := corpus.Quora().Scaled(0.03)
	p.Seed = 23
	d := corpus.MustGenerate(p)
	var tasks []core.ResolvedTask
	for _, task := range d.Tasks {
		rt := core.ResolvedTask{Bag: task.Bag(d.Vocab)}
		for _, r := range task.Responses {
			rt.Responses = append(rt.Responses, core.Scored{Worker: r.Worker, Score: r.Score})
		}
		tasks = append(tasks, rt)
	}
	cfg := core.NewConfig(5)
	cfg.MaxIter = 5
	trained, _, err := core.Train(tasks, len(d.Workers), d.Vocab.Size(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	rigs := make([]*shardRig, count)
	doc := crowddb.Topology{Epoch: 1, Count: count}
	for i := 0; i < count; i++ {
		var buf bytes.Buffer
		if err := trained.Save(&buf); err != nil {
			t.Fatal(err)
		}
		m, err := core.LoadModel(&buf)
		if err != nil {
			t.Fatal(err)
		}
		db, err := crowddb.Open(t.TempDir(), crowddb.Options{Sync: crowddb.SyncAlways(), Clock: testClock(t)})
		if err != nil {
			t.Fatal(err)
		}
		for w := range d.Workers {
			if _, err := db.Store().AddWorker(w, fmt.Sprintf("w%d", w)); err != nil {
				t.Fatal(err)
			}
		}
		cm := core.NewConcurrentModel(m)
		mgr, err := crowddb.NewManager(db.Store(), d.Vocab, cm, 2)
		if err != nil {
			t.Fatal(err)
		}
		mgr.SetShard(crowddb.ShardSpec{Index: i, Count: count})
		db.SetModelSnapshotter(cm.Save)
		db.SetQuiescer(mgr.Quiesce)
		if err := d.SaveFile(db.DatasetPath()); err != nil {
			t.Fatal(err)
		}
		if err := db.Begin(); err != nil {
			t.Fatal(err)
		}
		fence := crowddb.NewFence(db)
		src := crowddb.NewTransferSource(db, fence, crowddb.NewDigestCutter(db, mgr).Func(), crowddb.TransferSourceOptions{})
		ts := httptest.NewServer(newNode(t,
			crowddb.TenantConfig{Manager: mgr, Degraded: db.Degraded, ReplicationSource: src.Stream()},
			crowddb.NodeConfig{Durability: db.Stats, Fence: fence, Replication: src.Status}))
		rig := &shardRig{db: db, mgr: mgr, cm: cm, ts: ts}
		rigs[i] = rig
		doc.Shards = append(doc.Shards, crowddb.ShardAddr{Index: i, URL: ts.URL})
		t.Cleanup(func() {
			ts.CloseClientConnections()
			ts.Close()
			db.Close()
		})
	}
	for i, rig := range rigs {
		setter := crowdclient.New(rig.ts.URL, crowdclient.Options{Timeout: 5 * time.Second})
		if _, err := setter.PushTopology(context.Background(), doc); err != nil {
			t.Fatalf("seed topology on shard %d: %v", i, err)
		}
	}
	return d, rigs
}

// startShardFollower runs a warm standby for one shard, applying the
// replicated journal — including cross-shard skills:feedback frames —
// under the same shard filter as its primary.
func startShardFollower(t *testing.T, primaryURL string, sp crowddb.ShardSpec) (*follower, *httptest.Server) {
	t.Helper()
	rep := startReplica(t, crowddb.ReplicaOptions{
		Primary: primaryURL,
		Dir:     t.TempDir(),
		DB:      crowddb.Options{Sync: crowddb.SyncAlways(), Clock: testClock(t)},
	}, sp)
	ts := httptest.NewServer(newNode(t, crowddb.TenantConfig{Manager: rep.mgr}, crowddb.NodeConfig{
		Role: crowddb.RoleReplica, Durability: rep.DB().Stats, Replication: rep.Status, Promoter: rep.Promote,
	}))
	t.Cleanup(func() {
		ts.CloseClientConnections()
		ts.Close()
		rep.Close()
	})
	return rep, ts
}

// resolveViaRouter drives one task end to end through the shard-aware
// Router: scatter-gather submit, answers from the assigned crowd,
// feedback with cross-shard posterior forwarding.
func resolveViaRouter(t *testing.T, ctx context.Context, r *crowdclient.Router, text string) int {
	t.Helper()
	sub, err := r.SubmitTask(ctx, text, 2)
	if err != nil {
		t.Fatalf("submit %q: %v", text, err)
	}
	scores := make(map[int]float64, len(sub.Workers))
	for i, w := range sub.Workers {
		if err := r.Answer(ctx, sub.TaskID, w, fmt.Sprintf("answer %d", i)); err != nil {
			t.Fatalf("answer task %d: %v", sub.TaskID, err)
		}
		scores[w] = float64(1 + i%5)
	}
	if _, err := r.Feedback(ctx, sub.TaskID, scores); err != nil {
		t.Fatalf("feedback task %d: %v", sub.TaskID, err)
	}
	return sub.TaskID
}

// TestChaosShardKillAndRebalance is the sharded-fleet failure drill: a
// two-shard durable fleet with a warm standby behind shard 1 takes
// Router traffic; shard 1's primary is killed mid-traffic; selections
// degrade to the surviving shard's candidates; the standby is promoted
// and a topology epoch bump re-points the fleet at it. No acked
// feedback is lost — every resolved task survives exactly once — and
// the promoted shard's model is byte-identical to the dead primary's
// last committed posteriors, proving the replicated skills:feedback
// frames were folded under the same ownership filter.
func TestChaosShardKillAndRebalance(t *testing.T) {
	d, rigs := newShardFleet(t, 2)
	_ = d
	rep, standbyTS := startShardFollower(t, rigs[1].ts.URL, crowddb.ShardSpec{Index: 1, Count: 2})

	ctx := context.Background()
	router, err := crowdclient.NewRouter(ctx, []string{rigs[0].ts.URL}, crowdclient.Options{
		Timeout: 2 * time.Second,
		Retries: 2,
		Backoff: time.Millisecond,
		Clock:   new(clock.Manual),
	})
	if err != nil {
		t.Fatal(err)
	}

	caughtUp := func() bool {
		pseq := rigs[1].db.ReplicationHead()
		return rep.Status().AppliedSeq == pseq
	}

	// Phase 1: healthy fleet under load. Every round exercises the
	// scatter-gather submit and the cross-shard feedback forwarding.
	acked := make(map[int]string)
	for i := 0; i < 12; i++ {
		text := fmt.Sprintf("shard drill question %d about index maintenance", i)
		acked[resolveViaRouter(t, ctx, router, text)] = text
	}
	waitFor(t, "standby caught up behind shard 1", caughtUp)
	wantModel := modelBytes(t, rigs[1].cm)
	wantShard1Tasks := rigs[1].db.Store().NumTasks()

	// Phase 2: shard 1's primary dies. Selections must keep answering
	// from shard 0's candidates alone.
	rigs[1].ts.CloseClientConnections()
	rigs[1].ts.Close()
	sel, err := router.Selections(ctx, []crowddb.SubmitRequest{{Text: "query planning during an outage", K: 4}})
	if err != nil {
		t.Fatalf("selection during shard outage: %v", err)
	}
	if len(sel.Results[0].Workers) == 0 {
		t.Fatal("no survivors selected during outage")
	}
	for _, w := range sel.Results[0].Workers {
		if crowddb.ShardOfWorker(w, 2) != 0 {
			t.Errorf("worker %d from the dead shard selected during outage", w)
		}
	}
	if router.Partials() == 0 {
		t.Error("router did not count the dead scatter leg")
	}

	// Phase 3: promote the standby and bump the topology epoch so the
	// fleet re-points shard 1 at it.
	standbyCli := crowdclient.New(standbyTS.URL, crowdclient.Options{Timeout: 5 * time.Second})
	st, err := standbyCli.Promote(ctx)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if st.Role != crowddb.RolePrimary {
		t.Fatalf("promoted standby reports role %q", st.Role)
	}
	doc2 := crowddb.Topology{Epoch: 2, Count: 2, Shards: []crowddb.ShardAddr{
		{Index: 0, URL: rigs[0].ts.URL},
		{Index: 1, URL: standbyTS.URL},
	}}
	for _, target := range []string{rigs[0].ts.URL, standbyTS.URL} {
		cli := crowdclient.New(target, crowdclient.Options{Timeout: 5 * time.Second})
		if _, err := cli.PushTopology(ctx, doc2); err != nil {
			t.Fatalf("push epoch 2 to %s: %v", target, err)
		}
	}
	if err := router.Refresh(ctx); err != nil {
		t.Fatalf("router refresh: %v", err)
	}
	if got := router.Topology(); got.Epoch != 2 || got.URLOf(1) != standbyTS.URL {
		t.Fatalf("router did not adopt epoch 2: %+v", got)
	}

	// Phase 4: verified rebalance. The promoted shard holds every acked
	// shard-1 task exactly once and its model matches the dead primary's
	// last committed bytes.
	if got := rep.DB().Store().NumTasks(); got != wantShard1Tasks {
		t.Fatalf("promoted shard has %d tasks, primary had %d", got, wantShard1Tasks)
	}
	if got := modelBytes(t, rep.cm); !bytes.Equal(got, wantModel) {
		t.Fatalf("promoted shard model diverges from the dead primary's committed state (%d vs %d bytes)", len(got), len(wantModel))
	}
	textCount := make(map[string]int)
	for _, store := range []*crowddb.Store{rigs[0].db.Store(), rep.DB().Store()} {
		for _, status := range []crowddb.TaskStatus{crowddb.TaskOpen, crowddb.TaskAssigned, crowddb.TaskResolved} {
			for _, rec := range store.ListTasks(status) {
				textCount[rec.Text]++
			}
		}
	}
	for id, text := range acked {
		switch textCount[text] {
		case 1:
		case 0:
			t.Fatalf("acked task %d (%q) lost across the shard failover", id, text)
		default:
			t.Fatalf("acked task %d (%q) applied %d times", id, text, textCount[text])
		}
	}

	// Phase 5: full fleet traffic resumes through the promoted shard —
	// selections cover both shards again and new feedback lands.
	sel, err = router.Selections(ctx, []crowddb.SubmitRequest{{Text: "selection after the rebalance", K: 6}})
	if err != nil {
		t.Fatal(err)
	}
	owners := map[int]bool{}
	for _, w := range sel.Results[0].Workers {
		owners[crowddb.ShardOfWorker(w, 2)] = true
	}
	if !owners[0] || !owners[1] {
		t.Fatalf("post-rebalance selection does not span both shards: %v", sel.Results[0].Workers)
	}
	text := "life after the shard rebalance"
	id := resolveViaRouter(t, ctx, router, text)
	rec, err := router.GetTask(ctx, id)
	if err != nil || rec.Text != text {
		t.Fatalf("post-rebalance task = (%+v, %v), want text %q", rec, err, text)
	}
}
