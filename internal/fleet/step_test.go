package fleet

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"
	"time"

	"crowdselect/internal/crowddb"
	"crowdselect/internal/race"
)

// world is one state of the small-scope model: the supervisor's view of
// a shard of three nodes (p leads, a and b stand by), the time, and
// the facts the view can only learn by probing — each node's applied
// seq and integrity, when a lease renewal was last sent to it, whether
// it ever reported an epoch seal, and the primary's run of misses.
type world struct {
	v       view
	now     time.Duration
	seq     [3]int64
	bad     [3]bool
	sent    [3]time.Duration
	armed   [3]bool // a renewal was ever sent
	deposed [3]bool
	streak  int
}

var nodes = [3]string{"p", "a", "b"}

func index(url string) int {
	for i, n := range nodes {
		if n == url {
			return i
		}
	}
	panic(url)
}

// The alphabet of the model. The four primary outcomes are each one
// tick; the rest change the world between ticks.
const (
	answered = iota // the primary answers
	missed          // no request arrives
	lost            // the renewal lands, its answer is lost
	deposed         // the primary reports an epoch seal (409 fenced)
	seqA            // a standby applies one more record
	seqB
	unsafeA // a standby's integrity flag flips
	unsafeB
	later // time advances one probe interval
	letters
)

var (
	t0        = time.Date(2015, 3, 23, 9, 0, 0, 0, time.UTC)
	errMissed = errors.New("probe missed")
	// The lease gate (LeaseTTL + ProbeTimeout = 25ms) spans three probe
	// intervals, so a failover is reachable within a dozen letters; three
	// misses can come after it, so neither gate implies the other.
	smallOpts = Options{ProbeInterval: 10 * time.Millisecond, ProbeTimeout: 10 * time.Millisecond, SuspectAfter: 3, LeaseTTL: 15 * time.Millisecond}
	gate      = smallOpts.LeaseTTL + smallOpts.ProbeTimeout
)

// next applies one letter. A primary letter runs one tick as the shell
// does — probe, step, carry out the orders (every promotion succeeds,
// every fence stays unacknowledged) — and checks the decision.
func (w world) next(t *testing.T, letter int) world {
	switch letter {
	case seqA, seqB:
		w.seq[1+letter-seqA] = 1
		return w
	case unsafeA, unsafeB:
		w.bad[1+letter-unsafeA] = !w.bad[1+letter-unsafeA]
		return w
	case later:
		w.now += smallOpts.ProbeInterval
		return w
	}
	now := t0.Add(w.now)
	primary := index(w.v.spec.Primary.URL)
	o := obs{standbys: map[string]probe{}}
	for _, n := range w.v.spec.Standbys {
		p := probe{role: crowddb.RoleReplica, applied: w.seq[index(n.URL)], epoch: 1}
		if w.bad[index(n.URL)] {
			p.unsafe = "diverged"
		}
		o.standbys[n.URL] = p
	}
	// A healthy primary is sent a renewal; a suspect one a /readyz
	// probe first, and a renewal only if that answers.
	switch letter {
	case answered:
		o.leaseAt, o.primary = now, &probe{role: crowddb.RolePrimary, applied: w.seq[primary], epoch: w.v.epoch}
		w.streak = 0
	case missed:
		o.primary = &probe{err: errMissed}
		w.streak++
	case lost:
		o.leaseAt, o.primary = now, &probe{err: errMissed}
		w.streak++
	case deposed:
		o.primary = &probe{err: crowddb.ErrFenced, deposed: true}
		w.deposed[primary] = true
	}
	if w.v.misses == 0 {
		o.leaseAt = now
	}
	if !o.leaseAt.IsZero() {
		w.sent[primary], w.armed[primary] = w.now, true
	}
	v, orders := step(w.v, o, now, smallOpts)

	var target *Node
	for _, od := range orders {
		if od.kind == orderPromote {
			target = &od.node
		}
	}
	sent := w.sent[primary]
	lapsed := !w.armed[primary] || w.now > sent+gate
	safe := 0
	for _, n := range v.spec.Standbys {
		if !w.bad[index(n.URL)] {
			safe++
		}
	}
	if target != nil {
		// No promotion while a lease the supervisor may have armed can
		// still be live, nor before SuspectAfter misses in a row — unless
		// the primary reported an epoch seal, which is for good.
		if !w.deposed[primary] && (!lapsed || w.streak < smallOpts.SuspectAfter) {
			t.Fatalf("promote %s at %v: %d misses in a row, renewal last sent at %v", target.URL, w.now, w.streak, sent)
		}
		ti := index(target.URL)
		if w.bad[ti] {
			t.Fatalf("promote %s, which reports itself unsafe", target.URL)
		}
		for _, n := range v.spec.Standbys {
			if i := index(n.URL); !w.bad[i] && w.seq[i] > w.seq[ti] {
				t.Fatalf("promote %s at seq %d over safe %s at seq %d", target.URL, w.seq[ti], n.URL, w.seq[i])
			}
		}
	}
	met := letter == deposed || letter != answered && w.streak >= smallOpts.SuspectAfter && lapsed
	if met && safe > 0 && target == nil {
		t.Fatalf("no failover at %v: %d misses in a row, renewal last sent at %v (armed %v), %d safe standbys",
			w.now, w.streak, sent, w.armed[primary], safe)
	}

	// Carry the orders out; what they observe goes back into step.
	for len(orders) > 0 {
		var back obs
		for _, od := range orders {
			if od.kind == orderPromote {
				st := crowddb.ReplicationStatus{History: "h", AppliedSeq: w.seq[index(od.node.URL)], FencingEpoch: v.epoch + 1}
				back.promoted = &promotion{target: od.node, st: st}
			}
		}
		v, orders = step(v, back, now, smallOpts)
	}
	if target != nil {
		if v.spec.Primary != *target {
			t.Fatalf("promoted %s, but the view leads with %s", target.URL, v.spec.Primary.URL)
		}
		w.streak = 0
	}
	w.v = v
	return w
}

// key names a world up to what the rest of the run can tell apart: times
// only relative to now and only up to the lease gate, counts of misses
// only up to SuspectAfter, a map entry only by its value.
func (w world) key() string {
	age := func(at time.Duration, ok bool) int64 {
		switch {
		case !ok:
			return -1
		case w.now-at > gate:
			return int64(gate + 1)
		}
		return int64(w.now - at)
	}
	v := w.v
	b := fmt.Appendf(nil, "%d %d %t %t %v %d %d %s %s %d %d %s", w.seq[1], w.seq[2], w.bad[1], w.bad[2], w.deposed,
		min(w.streak, smallOpts.SuspectAfter), min(v.misses, smallOpts.SuspectAfter),
		v.state, v.history, v.epoch, age(v.lastLease.Sub(t0), !v.lastLease.IsZero()), v.spec.Primary.URL)
	for _, n := range v.spec.Standbys {
		b = append(b, n.URL...)
	}
	for _, n := range v.fenced {
		b = append(append(b, '-'), n.URL...)
	}
	if o := v.pending; o != nil {
		b = fmt.Appendf(b, " %s %s %d %s", o.Target.URL, o.History, o.Epoch, o.NewPrimary)
	}
	for i, n := range nodes {
		b = fmt.Appendf(b, "|%d %d %t %s %s", age(w.sent[i], w.armed[i]), v.applied[n], v.reachable[n], v.roles[n], v.unsafe[n])
	}
	return string(b)
}

// TestSupervisorStepSmallScope searches, breadth first, every sequence
// of letters up to a fixed depth from a fresh shard, skipping worlds
// already visited, and checks each tick's decision against the world's
// facts: no promotion while the last renewal sent can still hold a
// lease (LeaseTTL + ProbeTimeout after it was sent) or before
// SuspectAfter misses in a row, unless the primary reported an epoch
// seal; never an unsafe standby and never one behind a safe one; and a
// failover in the first tick where both gates are met, or the primary
// reports a seal, and a safe standby exists.
func TestSupervisorStepSmallScope(t *testing.T) {
	// The search is one goroutine: the race detector has nothing to
	// find in it, so under -race a shallower search keeps make race quick.
	depth := 12
	if testing.Short() || race.Enabled {
		depth = 8
	}
	sup, err := New(Spec{Shards: []ShardFleet{{
		Primary:  Node{URL: "p"},
		Standbys: []Node{{URL: "a"}, {URL: "b"}},
	}}}, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	start := world{v: sup.shards[0].view}
	seen := map[string]bool{start.key(): true}
	frontier := []world{start}
	failovers := 0
	for d := 0; d < depth && len(frontier) > 0; d++ {
		var next []world
		for _, w := range frontier {
			for letter := 0; letter < letters; letter++ {
				n := w.next(t, letter)
				if k := n.key(); !seen[k] {
					seen[k] = true
					next = append(next, n)
					if n.v.spec.Primary != w.v.spec.Primary {
						failovers++
					}
				}
			}
		}
		frontier = next
	}
	t.Logf("depth %d: %d worlds visited, %d of them reached by a failover", depth, len(seen), failovers)
	if failovers == 0 {
		t.Fatal("the search reached no failover: the depth is too shallow for the lease gate")
	}
}

// TestSupervisorStepIsPure: step.go, where the decision lives, takes no
// lock, reads no clock and does no I/O.
func TestSupervisorStepIsPure(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "step.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		switch path, _ := strconv.Unquote(imp.Path.Value); path {
		case "sync", "sync/atomic", "context", "net/http", "crowdselect/internal/clock", "crowdselect/internal/crowdclient":
			t.Errorf("step.go imports %s", path)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == "time" && (sel.Sel.Name == "Now" || sel.Sel.Name == "Since") {
				t.Errorf("step.go reads the wall clock: time.%s", sel.Sel.Name)
			}
			if sel.Sel.Name == "Logf" {
				t.Error("step.go logs: its notices are orders")
			}
		}
		return true
	})
}
