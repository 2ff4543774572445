package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"crowdselect/internal/clock"
	"crowdselect/internal/crowdclient"
	"crowdselect/internal/crowddb"
	"crowdselect/internal/faultnet"
	"crowdselect/internal/fleet"
)

// drillLog collects supervisor notices thread-safely so a goroutine
// cannot call t.Logf after the test ends; the log is dumped only on
// failure.
type drillLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *drillLog) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *drillLog) dump(t *testing.T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		t.Log(line)
	}
}

// TestChaosSplitBrainFencedFailover is the headline fencing drill: an
// asymmetric partition cuts the primary off from its supervisor and
// follower while ordinary clients still reach it directly — the
// classic split-brain setup. The invariants:
//
//   - zero dual-primary acks: the old primary's lapsed lease seals it
//     (409 fenced) before the supervisor is allowed to promote, so no
//     mutation is ever acknowledged by two primaries;
//   - zero acked-mutation loss: every task acked before and during the
//     partition is in the promoted store exactly once;
//   - the promoted model is byte-identical to the deposed primary's
//     last committed state, and after the heal a follower re-pointed
//     at the winner converges byte-identically too;
//   - the supervisor's fence order, retried across the partition,
//     lands once the network heals and pins the loser at the new
//     epoch with a redirect hint.
//
// The drill runs under both partition shapes, because they fail
// differently: "requests swallowed" starves the primary of renewals
// outright, while "responses swallowed" is the nastier one — every
// renewal the supervisor counts as missed still ARRIVES and re-arms
// the lease, so the invariants only hold because the supervisor stops
// renewing a suspect primary and waits out the lease it may have
// armed.
//
// The drill is the supervisor's clock: it drives Tick itself, once per
// poll of waitFor, which steps the clock the primary's fence, the
// follower and the supervisor share by one probe interval between
// polls. The lease can lapse only while the drill waits, never under a
// loaded host's scheduling.
func TestChaosSplitBrainFencedFailover(t *testing.T) {
	t.Run("requests swallowed", func(t *testing.T) {
		runSplitBrainDrill(t, faultnet.Faults{DropUpstream: true})
	})
	t.Run("responses swallowed", func(t *testing.T) {
		runSplitBrainDrill(t, faultnet.Faults{DropDownstream: true})
	})
}

func runSplitBrainDrill(t *testing.T, fault faultnet.Faults) {
	primary := newReplPrimary(t)

	// The supervisor and the follower reach the primary only through
	// the chaos proxy; the Multi client gets a direct line.
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

	log := &drillLog{}
	sup, err := fleet.New(fleet.Spec{Shards: []fleet.ShardFleet{{
		Shard:    0,
		Primary:  fleet.Node{Name: "p0", URL: proxy.URL()},
		Standbys: []fleet.Node{{Name: "s0", URL: followerTS.URL}},
	}}}, fleet.Options{
		ProbeInterval: pollStep,
		ProbeTimeout:  250 * time.Millisecond,
		SuspectAfter:  4,
		LeaseTTL:      60 * time.Millisecond, // < 4 × 25ms: sealed before promotable
		Holder:        "drill-supervisor",
		Logf:          log.logf,
		Clock:         testClock(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	// tickFor waits for cond with the supervisor ticking once a poll.
	tickFor := func(what string, cond func() bool) {
		t.Helper()
		waitFor(t, what, func() bool {
			sup.Tick(ctx)
			return cond()
		})
	}
	defer func() {
		if t.Failed() {
			log.dump(t)
		}
	}()

	caughtUp := func() bool {
		pseq := primary.db.ReplicationHead()
		return rep.Status().AppliedSeq == pseq
	}

	// Phase 1: live traffic under supervision. The primary comes under
	// lease, the follower tracks it to lag zero.
	acked := make(map[int]string)
	for i := 0; i < 10; i++ {
		text := fmt.Sprintf("split-brain drill question %d about isolation levels", i)
		acked[resolveVia(t, ctx, multi, text)] = text
	}
	tickFor("primary under supervisor lease", func() bool {
		return primary.fence.Status().LeaseHolder == "drill-supervisor"
	})
	tickFor("follower at lag zero before the partition", func() bool {
		st := rep.Status()
		return caughtUp() && st.Lag != nil && st.Lag.Records == 0
	})
	wantModel := modelBytes(t, primary.cm)
	wantTasks := primary.db.Store().NumTasks()

	// Phase 2: asymmetric partition. Depending on the shape, either the
	// requests toward the primary or the responses out of it are
	// swallowed — both kill the supervisor's view of the primary and
	// the replication stream, while ordinary clients still reach it.
	proxy.Set(fault)
	proxy.CutActive()

	// The lease lapses and the primary seals itself — before the
	// supervisor's miss budget can possibly run out. A renewal sent
	// before the cut can still land and re-arm the lease, so first wait
	// for the supervisor to count a miss: its ticks run one after
	// another, the attempt it last sent counts only after ProbeTimeout,
	// and it sends no renewal to a primary whose /readyz goes
	// unanswered. Only a seal after that holds.
	tickFor("supervisor counts a missed probe", func() bool {
		return sup.Status().Shards[0].Misses >= 1
	})
	tickFor("deposed primary seals on lease lapse", func() bool {
		return primary.fence.Sealed()
	})

	// Zero dual-primary acks: every direct write to the sealed primary
	// is refused with the typed 409, applied nowhere.
	direct := crowdclient.New(primary.ts.URL, crowdclient.Options{Timeout: 2 * time.Second})
	for i := 0; i < 3; i++ {
		_, err := direct.SubmitTask(ctx, fmt.Sprintf("must not be acked %d", i), 2)
		var ae *crowdclient.APIError
		if !errors.As(err, &ae) || ae.Code != "fenced" {
			t.Fatalf("write %d to sealed primary = %v, want 409 fenced", i, err)
		}
	}
	if got := primary.db.Store().NumTasks(); got != wantTasks {
		t.Fatalf("sealed primary store grew %d -> %d: a dual-primary ack", wantTasks, got)
	}

	// The supervisor waits out the miss budget and promotes the
	// follower — the only candidate, and a fully caught-up one.
	tickFor("supervisor promotes the follower", func() bool {
		return sup.Status().Failovers >= 1 && rep.Status().Role == crowddb.RolePrimary
	})
	st := sup.Status()
	if got := st.Shards[0].Primary.URL; got != followerTS.URL {
		t.Fatalf("supervisor believes primary is %s, want the follower", got)
	}
	if rep.DB().FencingEpoch() != 2 {
		t.Fatalf("promoted epoch = %d, want 2", rep.DB().FencingEpoch())
	}

	// Zero acked-mutation loss at the moment of promotion: the store
	// holds every acked task exactly once, the model is byte-identical
	// to the deposed primary's last committed state.
	if got := rep.DB().Store().NumTasks(); got != wantTasks {
		t.Fatalf("promoted store has %d tasks, primary had %d", got, wantTasks)
	}
	if got := modelBytes(t, rep.cm); !bytes.Equal(got, wantModel) {
		t.Fatalf("promoted model diverges from the deposed primary's last committed state (%d vs %d bytes)", len(got), len(wantModel))
	}

	// Client traffic continues: the Multi's write hits the sealed
	// primary, gets the typed refusal, forgets it, and lands on the
	// winner — no operator in the loop.
	for i := 0; i < 4; i++ {
		text := fmt.Sprintf("partition-era question %d routed by fencing", i)
		acked[resolveVia(t, ctx, multi, text)] = text
	}
	if multi.Primary() != followerTS.URL {
		t.Fatalf("multi client believes primary is %q, want %q", multi.Primary(), followerTS.URL)
	}
	if multi.Failovers() == 0 {
		t.Fatal("multi client reports no failovers across the partition")
	}

	// Phase 3: heal. The supervisor's retried fence order finally lands
	// on the old primary and pins it at the new epoch with the hint.
	proxy.Heal()
	tickFor("fence order acknowledged after heal", func() bool {
		return sup.Status().Fences >= 1
	})
	fs := primary.fence.Status()
	if !fs.Sealed || fs.SealedBy != "epoch" || fs.Observed != 2 {
		t.Fatalf("healed old primary fence = %+v, want sealed by epoch at 2", fs)
	}
	if fs.NewPrimary != followerTS.URL {
		t.Fatalf("fence hint = %q, want %q", fs.NewPrimary, followerTS.URL)
	}
	// The hint now rides every refusal, so even a client that only
	// knows the old address is redirected.
	_, err = direct.SubmitTask(ctx, "one more refused write", 2)
	var ae *crowdclient.APIError
	if !errors.As(err, &ae) || ae.Code != "fenced" || ae.Primary != followerTS.URL {
		t.Fatalf("post-heal refusal = %v (primary hint %q), want fenced with hint", err, ae.Primary)
	}

	// Byte-identical convergence after the heal: a follower re-pointed
	// at the winner replays its way to the same model, and every acked
	// task — pre-partition and partition-era — is there exactly once.
	rep2, _ := startFollower(t, followerTS.URL)
	tickFor("re-pointed follower caught up to the new primary", func() bool {
		pseq := rep.DB().ReplicationHead()
		return rep2.Status().AppliedSeq == pseq && pseq > 0
	})
	if got, want := modelBytes(t, rep2.cm), modelBytes(t, rep.cm); !bytes.Equal(got, want) {
		t.Fatalf("healed fleet models diverge (%d vs %d bytes)", len(got), len(want))
	}
	for _, store := range []*crowddb.Store{rep.DB().Store(), rep2.DB().Store()} {
		textCount := make(map[string]int)
		for _, status := range []crowddb.TaskStatus{crowddb.TaskOpen, crowddb.TaskAssigned, crowddb.TaskResolved} {
			for _, rec := range store.ListTasks(status) {
				textCount[rec.Text]++
			}
		}
		for id, text := range acked {
			if textCount[text] != 1 {
				t.Fatalf("acked task %d (%q) applied %d times, want exactly once", id, text, textCount[text])
			}
		}
	}
}
