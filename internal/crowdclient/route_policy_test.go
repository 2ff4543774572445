package crowdclient

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"crowdselect/internal/clock"
	"crowdselect/internal/crowddb"
	"crowdselect/internal/selcodec"
)

// policyNode fakes one copy of a crowdd for the route-policy contract.
// It logs every request; a replica refuses a write with the replica
// gate's 421 not_primary, and otherwise the node answers per mode: "ok"
// an empty JSON object, "5xx" a 503, "hangup" a connection closed
// before any response.
type policyNode struct {
	*httptest.Server
	mu   sync.Mutex
	seen []string // "METHOD path", in arrival order
}

func newPolicyNode(t *testing.T, mode string, replicaOf *policyNode, write bool) *policyNode {
	n := &policyNode{}
	n.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		n.seen = append(n.seen, r.Method+" "+r.URL.Path)
		n.mu.Unlock()
		switch {
		case replicaOf != nil && write:
			notPrimaryHandler(new(int32), replicaOf.URL).ServeHTTP(w, r)
		case mode == "5xx":
			http.Error(w, "down", http.StatusServiceUnavailable)
		case mode == "hangup":
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
		default:
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, `{}`)
		}
	}))
	t.Cleanup(n.Close)
	return n
}

func (n *policyNode) requests() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]string(nil), n.seen...)
}

// TestMultiRoutePolicyMatchesRouteTable is the contract between the
// route table and the typed surface Client and Multi share. For every
// call on that surface, the row crowddb.RouteOf finds for the request it
// sends must say what the policy column below says, and a Multi over a
// primary and a replica must behave so: a read is served by either copy
// and repeated on a 5xx; any other request reaches only the primary and
// is not repeated after a mid-request transport error.
func TestMultiRoutePolicyMatchesRouteTable(t *testing.T) {
	ctx := context.Background()
	tasks := []crowddb.SubmitRequest{{Text: "route policy", K: 2}}
	scores := map[int]float64{1: 5}
	type row struct {
		name string
		read bool // any copy may serve it and it may be repeated
		do   func(m *Multi) error
	}
	calls := []row{
		{"SubmitTask", false, func(m *Multi) error { _, err := m.SubmitTask(ctx, "t", 2); return err }},
		{"SubmitBatch", false, func(m *Multi) error { _, err := m.SubmitBatch(ctx, tasks); return err }},
		{"Selections", true, func(m *Multi) error { _, err := m.Selections(ctx, tasks); return err }},
		{"SelectionsScored", true, func(m *Multi) error { _, err := m.SelectionsScored(ctx, tasks); return err }},
		{"SkillFeedback", false, func(m *Multi) error { return m.SkillFeedback(ctx, 3, "t", scores) }},
		{"Topology", true, func(m *Multi) error { _, err := m.Topology(ctx); return err }},
		{"GetTask", true, func(m *Multi) error { _, err := m.GetTask(ctx, 3); return err }},
		{"Answer", false, func(m *Multi) error { return m.Answer(ctx, 3, 1, "a") }},
		{"Feedback", false, func(m *Multi) error { _, err := m.Feedback(ctx, 3, scores); return err }},
		{"GetWorker", true, func(m *Multi) error { _, err := m.GetWorker(ctx, 1); return err }},
		{"SetPresence", false, func(m *Multi) error { return m.SetPresence(ctx, 1, false) }},
		{"Stats", true, func(m *Multi) error { _, err := m.Stats(ctx); return err }},
		{"Query", false, func(m *Multi) error { _, err := m.Query(ctx, "SELECT 1"); return err }},
	}
	listed := make(map[string]bool, len(calls))
	for _, c := range calls {
		listed[c.name] = true
	}
	surface := reflect.TypeOf(api{})
	for i := 0; i < surface.NumMethod(); i++ {
		if name := surface.Method(i).Name; !listed[name] {
			t.Errorf("the shared surface's %s has no row in this contract", name)
		}
	}
	if surface.NumMethod() != len(calls) {
		t.Fatalf("the contract lists %d calls, the shared surface has %d", len(calls), surface.NumMethod())
	}

	// A Router's legs leave through Multi.leg, beside the shared surface,
	// on the same row.
	projecting := selcodec.AppendTextLeg(nil, []string{"route policy"}, []int{2}, true)
	scoreOnly, err := selcodec.AppendCategoryLeg(nil, []int{2}, []float64{1}, 1, "v")
	if err != nil {
		t.Fatal(err)
	}
	legs := []row{
		{"ProjectingLeg", true, func(m *Multi) error { return m.leg(ctx, projecting, new(leg)) }},
		{"ScoreOnlyLeg", true, func(m *Multi) error { return m.leg(ctx, scoreOnly, new(leg)) }},
	}

	pair := func(t *testing.T, mode string, write bool) (*Multi, *policyNode, *policyNode) {
		primary := newPolicyNode(t, mode, nil, write)
		replica := newPolicyNode(t, "ok", primary, write)
		m, err := NewMulti([]string{primary.URL, replica.URL}, Options{
			Timeout: 5 * time.Second, Retries: 1, Backoff: time.Millisecond, Clock: new(clock.Manual),
			BreakerThreshold: -1, RetryBudget: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m, primary, replica
	}
	for _, c := range append(calls, legs...) {
		t.Run(c.name, func(t *testing.T) {
			m, primary, replica := pair(t, "ok", !c.read)
			for i := 0; i < 2; i++ {
				if err := c.do(m); err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
			}
			sent := append(primary.requests(), replica.requests()...)
			var method, path string
			fmt.Sscan(sent[0], &method, &path)
			if read, _, _ := crowddb.RouteOf(method, path); read != c.read {
				t.Fatalf("the row of %s says read=%v, the policy %v", sent[0], read, c.read)
			}
			p, r := len(primary.requests()), len(replica.requests())
			if c.read {
				if p != 1 || r != 1 {
					t.Errorf("two reads reached the primary %d and the replica %d times, want once each", p, r)
				}
				m, primary, _ = pair(t, "5xx", false)
				if err := c.do(m); err != nil {
					t.Fatalf("read with the primary answering 503: %v", err)
				}
				if got := len(primary.requests()); got != 2 {
					t.Errorf("a 503 read reached the primary %d times, want 2 (repeated once)", got)
				}
				return
			}
			if p != 2 || r != 0 {
				t.Errorf("two writes reached the primary %d and the replica %d times, want 2 and 0", p, r)
			}
			m, primary, replica = pair(t, "hangup", true)
			if err := c.do(m); err == nil {
				t.Fatal("a write through a mid-request hangup returned nil")
			}
			if p, r := len(primary.requests()), len(replica.requests()); p != 1 || r != 0 {
				t.Errorf("a hung-up write reached the primary %d and the replica %d times, want 1 and 0", p, r)
			}
		})
	}
}

// TestRouterRoutesByRowKey: the Router aims each {id}-keyed call at the
// shard its route-table row's key names — a worker by the hash ring, a
// task by its stride — so on a current layout no call meets a
// wrong_shard refusal and none needs the refresh-and-retry.
func TestRouterRoutesByRowKey(t *testing.T) {
	f := newFleet(t, 2)
	r := f.router(t)
	ctx := context.Background()
	for id := 0; id < 8; id++ {
		if err := r.SetPresence(ctx, id, true); err != nil {
			t.Fatalf("presence of worker %d: %v", id, err)
		}
		if _, err := r.GetWorker(ctx, id); err != nil {
			t.Fatalf("worker %d: %v", id, err)
		}
	}
	for _, text := range f.texts(2) { // the home shard rotates: one task each
		sub, err := r.SubmitTask(ctx, text, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Answer(ctx, sub.TaskID, sub.Workers[0], "a"); err != nil {
			t.Fatal(err)
		}
		if _, err := r.GetTask(ctx, sub.TaskID); err != nil {
			t.Fatal(err)
		}
	}
	if n := r.Refreshes(); n != 0 {
		t.Errorf("%d topology refreshes: some call went to a shard that does not own its id", n)
	}
}
