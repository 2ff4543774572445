package chaos

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"crowdselect/internal/clock"
	"crowdselect/internal/core"
	"crowdselect/internal/corpus"
	"crowdselect/internal/crowdclient"
	"crowdselect/internal/crowddb"
	"crowdselect/internal/faultfs"
	"crowdselect/internal/faultnet"
)

// rig is one full crowdd stack: durable DB, manager, HTTP server.
type rig struct {
	db  *crowddb.DB
	mgr *crowddb.Manager
	ts  *httptest.Server
}

// newRig boots the stack in a temp data directory with the given
// durability options and serves it over httptest.
func newRig(t *testing.T, opts crowddb.Options) *rig {
	t.Helper()
	p := corpus.Quora().Scaled(0.03)
	p.Seed = 11
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
	m, _, err := core.Train(tasks, len(d.Workers), d.Vocab.Size(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	opts.Clock = testClock(t)
	db, err := crowddb.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Workers {
		if _, err := db.Store().AddWorker(i, fmt.Sprintf("w%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	cm := core.NewConcurrentModel(m)
	mgr, err := crowddb.NewManager(db.Store(), d.Vocab, cm, 2)
	if err != nil {
		t.Fatal(err)
	}
	db.SetModelSnapshotter(cm.Save)
	db.SetQuiescer(mgr.Quiesce)
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newNode(t, crowddb.TenantConfig{Manager: mgr, Degraded: db.Degraded}, crowddb.NodeConfig{Durability: db.Stats}))
	t.Cleanup(func() {
		ts.Close()
		db.Close()
	})
	return &rig{db: db, mgr: mgr, ts: ts}
}

// newNode is crowddb.New for the drills: def is the default tenant (its
// name filled in), cfg the rest of the node. A refused description
// fails the test.
func newNode(t *testing.T, def crowddb.TenantConfig, cfg crowddb.NodeConfig) *crowddb.Server {
	t.Helper()
	def.Name = crowddb.DefaultTenant
	cfg.Tenants = append([]crowddb.TenantConfig{def}, cfg.Tenants...)
	srv, err := crowddb.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// allTasks gathers every task row regardless of status.
func (r *rig) allTasks() []crowddb.TaskRecord {
	var all []crowddb.TaskRecord
	for _, st := range []crowddb.TaskStatus{crowddb.TaskOpen, crowddb.TaskAssigned, crowddb.TaskResolved} {
		all = append(all, r.db.Store().ListTasks(st)...)
	}
	return all
}

// TestChaosDegradedReadOnly drives the disk-failure story end to end
// through a real client: a faultfs byte budget kills the journal
// mid-run, mutations turn into 503 degraded_read_only, selections keep
// answering exactly what they answered before the fault, and once the
// "disk" heals the server compacts itself back to writable.
func TestChaosDegradedReadOnly(t *testing.T) {
	var healed atomic.Bool
	budget := faultfs.NewBudget(2048) // enough for bootstrap + a few acked mutations
	opts := crowddb.Options{
		Sync: crowddb.SyncAlways(),
		OpenJournalFile: func(path string) (crowddb.JournalFile, error) {
			if healed.Load() {
				return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			}
			return faultfs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644, budget)
		},
		Probe: func() error {
			if healed.Load() {
				return nil
			}
			return errors.New("chaos: disk still gone")
		},
	}
	r := newRig(t, opts)
	cli := crowdclient.New(r.ts.URL, crowdclient.Options{
		Backoff: time.Millisecond,
		Clock:   new(clock.Manual),
	})
	ctx := context.Background()

	// Baseline selection before any fault.
	selReq := []crowddb.SubmitRequest{{Text: "how do b+ trees differ from b trees", K: 2}}
	before, err := cli.Selections(ctx, selReq)
	if err != nil {
		t.Fatal(err)
	}

	// Submit until the journal budget trips. Everything acked before the
	// trip must survive; the tripping request must fail with the stable
	// degraded code, never a silent half-apply that got acked.
	acked := make(map[int]string)
	var faultErr *crowdclient.APIError
	for i := 0; i < 200; i++ {
		text := fmt.Sprintf("chaos degraded question %d about join ordering", i)
		sub, err := cli.SubmitTask(ctx, text, 2)
		if err != nil {
			if !errors.As(err, &faultErr) {
				t.Fatalf("submission %d failed with %v, want *APIError", i, err)
			}
			break
		}
		acked[sub.TaskID] = text
	}
	if faultErr == nil {
		t.Fatal("journal budget never tripped; raise the submission count or lower the budget")
	}
	if faultErr.StatusCode != 503 || faultErr.Code != "degraded_read_only" {
		t.Fatalf("tripping request = %d [%s], want 503 [degraded_read_only]", faultErr.StatusCode, faultErr.Code)
	}
	if len(acked) == 0 {
		t.Fatal("no mutation acked before the fault; budget too small to prove anything")
	}
	if !r.db.Degraded() {
		t.Fatal("DB not degraded after the journal failure")
	}

	// Mutations now fail fast at the gate with the same stable code.
	var apiErr *crowdclient.APIError
	if _, err := cli.SubmitTask(ctx, "sealed out", 2); !errors.As(err, &apiErr) || apiErr.Code != "degraded_read_only" {
		t.Fatalf("mutation while degraded = %v, want degraded_read_only", err)
	}
	// Selections keep answering, with the pre-fault model.
	during, err := cli.Selections(ctx, selReq)
	if err != nil {
		t.Fatalf("selection while degraded: %v", err)
	}
	if !reflect.DeepEqual(before, during) {
		t.Fatalf("degraded selection = %+v, want pre-fault %+v", during, before)
	}
	// Reads of acked state still answer too.
	for id, text := range acked {
		rec, err := cli.GetTask(ctx, id)
		if err != nil {
			t.Fatalf("acked task %d unreadable while degraded: %v", id, err)
		}
		if rec.Text != text {
			t.Fatalf("task %d text = %q, want %q", id, rec.Text, text)
		}
	}
	// The server still reports ready: selections serve.
	if _, err := cli.ReadyStatus(ctx); err != nil {
		t.Fatalf("readyz while degraded: %v", err)
	}

	// Disk comes back: the probe loop heals by compaction and unseals.
	healed.Store(true)
	waitFor(t, "degraded mode to clear after the disk healed", func() bool { return !r.db.Degraded() })
	stats := r.db.Stats()
	if stats.DegradedEnters != 1 || stats.DegradedExits != 1 {
		t.Fatalf("degraded transitions = %d in, %d out; want 1, 1", stats.DegradedEnters, stats.DegradedExits)
	}
	// Mutations flow again, and nothing acked was lost across the whole
	// episode.
	sub, err := cli.SubmitTask(ctx, "post-heal question about hash joins", 2)
	if err != nil {
		t.Fatalf("mutation after heal: %v", err)
	}
	acked[sub.TaskID] = "post-heal question about hash joins"
	for id, text := range acked {
		rec, err := cli.GetTask(ctx, id)
		if err != nil || rec.Text != text {
			t.Fatalf("acked task %d after heal = (%v, %v), want text %q", id, rec, err, text)
		}
	}
	after, err := cli.Selections(ctx, selReq)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("post-heal selection = %+v, want %+v (no feedback happened)", after, before)
	}
}

// TestChaosResetsNoAckedMutationLost hammers mutations through a proxy
// that keeps resetting connections and asserts the two halves of the
// mutation contract: every acknowledged submission is durably present
// with the right content, and no submission was applied twice (the
// client never replays a POST that may have reached the server).
func TestChaosResetsNoAckedMutationLost(t *testing.T) {
	r := newRig(t, crowddb.Options{Sync: crowddb.SyncAlways()})
	proxy, err := faultnet.Listen(r.ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	cli := crowdclient.New(proxy.URL(), crowdclient.Options{
		Timeout: 2 * time.Second,
		Retries: 3,
		Backoff: time.Millisecond,
		Clock:   new(clock.Manual),
	})
	ctx := context.Background()

	// Connections die after a small per-connection byte budget, so the
	// fault lands at different points of different requests: during the
	// request, between request and response, during the response.
	proxy.Set(faultnet.Faults{ResetAfterBytes: 700})
	acked := make(map[int]string)
	var transportErrs int
	for i := 0; i < 60; i++ {
		if i%20 == 10 {
			proxy.CutActive() // also kill whatever is pooled mid-flight
		}
		text := fmt.Sprintf("chaos reset question %d about secondary indexes", i)
		sub, err := cli.SubmitTask(ctx, text, 2)
		if err != nil {
			transportErrs++
			continue
		}
		acked[sub.TaskID] = text
	}
	if transportErrs == 0 {
		t.Fatal("the reset plan never bit; the test proved nothing")
	}
	if len(acked) == 0 {
		t.Fatal("nothing was acked through the chaos; the test proved nothing")
	}
	proxy.Heal()

	// Every acked submission exists with its exact text.
	rows := r.allTasks()
	byID := make(map[int]crowddb.TaskRecord, len(rows))
	textCount := make(map[string]int, len(rows))
	for _, rec := range rows {
		byID[rec.ID] = rec
		textCount[rec.Text]++
	}
	for id, text := range acked {
		rec, ok := byID[id]
		if !ok {
			t.Fatalf("acked task %d lost", id)
		}
		if rec.Text != text {
			t.Fatalf("acked task %d text = %q, want %q", id, rec.Text, text)
		}
	}
	// No double-apply: every submitted text — acked or not — appears at
	// most once. (Un-acked submissions may have reached the server; they
	// must still not be duplicated.)
	for text, n := range textCount {
		if n > 1 {
			t.Fatalf("text %q applied %d times", text, n)
		}
	}
	if stats := proxy.Stats(); stats.Resets == 0 {
		t.Error("proxy reports no resets; fault plan was not exercised")
	}
}

// TestChaosBreakerUnderBlackhole: when the network blackholes, the
// client's breaker opens after a handful of timeouts and turns the
// remaining calls into instant local failures — no new connections —
// then recovers on its own once the network heals.
func TestChaosBreakerUnderBlackhole(t *testing.T) {
	r := newRig(t, crowddb.Options{Sync: crowddb.SyncAlways()})
	proxy, err := faultnet.Listen(r.ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	cli := crowdclient.New(proxy.URL(), crowdclient.Options{
		Timeout:          150 * time.Millisecond, // blackholed calls fail by timeout
		Retries:          -1,                     // isolate the breaker from the retry loop
		BreakerThreshold: 3,
		Clock:            testClock(t), // the breaker half-opens as waitFor steps it
	})
	ctx := context.Background()

	// Healthy through the proxy.
	if _, err := cli.Stats(ctx); err != nil {
		t.Fatalf("through healthy proxy: %v", err)
	}

	// The network goes dark: blackhole new traffic and cut pooled
	// connections so the client has to re-dial into the void.
	proxy.Set(faultnet.Faults{Blackhole: true})
	proxy.CutActive()
	var sawOpen bool
	for i := 0; i < 10 && !sawOpen; i++ {
		_, err := cli.Stats(ctx)
		if errors.Is(err, crowdclient.ErrCircuitOpen) {
			sawOpen = true
		}
	}
	if !sawOpen {
		t.Fatal("breaker never opened under blackhole")
	}
	// While open, calls fail fast without touching the network.
	accBefore := proxy.Stats().Accepted
	for i := 0; i < 5; i++ {
		if _, err := cli.Stats(ctx); !errors.Is(err, crowdclient.ErrCircuitOpen) {
			t.Fatalf("call %d while open = %v, want ErrCircuitOpen", i, err)
		}
	}
	if accAfter := proxy.Stats().Accepted; accAfter != accBefore {
		t.Fatalf("fast-failing calls opened %d new connections; want 0", accAfter-accBefore)
	}
	rs := cli.ResilienceStats()
	if rs.BreakerState != "open" || rs.BreakerOpens == 0 || rs.BreakerFastFails < 5 {
		t.Fatalf("breaker stats under blackhole = %+v", rs)
	}

	// The network heals; the swallowed connections are cut so fresh
	// dials reach the backend, and the breaker's half-open trial closes
	// it again without any outside intervention.
	proxy.Heal()
	proxy.CutActive()
	waitFor(t, "the client to recover after the network healed", func() bool {
		_, err := cli.Stats(ctx)
		return err == nil
	})
	if st := cli.ResilienceStats(); st.BreakerState != "closed" {
		t.Fatalf("breaker after heal = %q, want closed", st.BreakerState)
	}
}
