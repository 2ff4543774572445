package fleet

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"crowdselect/internal/crowddb"
)

// view is the supervisor's picture of one shard: all that step reads
// and all that it writes. Status reports it as it stands.
type view struct {
	spec      ShardFleet
	misses    int
	lastLease time.Time // start of the most recent lease-renewal ATTEMPT
	state     string    // healthy | suspect | failover | no_candidate
	history   string
	epoch     uint64

	applied   map[string]int64  // node URL → applied seq at last probe
	reachable map[string]bool   // node URL → last probe answered
	roles     map[string]string // node URL → last reported role
	unsafe    map[string]string // node URL → why it must not be promoted (diverged, scrub_failed)

	pending *fenceOrder
	fenced  []Node // deposed, not yet re-pointed (still being fenced or awaiting restart)
	drained []Node
}

// clone copies v deeply enough that writing the copy leaves v as it was.
func (v view) clone() view {
	v.spec.Standbys = append([]Node(nil), v.spec.Standbys...)
	v.applied, v.reachable = maps.Clone(v.applied), maps.Clone(v.reachable)
	v.roles, v.unsafe = maps.Clone(v.roles), maps.Clone(v.unsafe)
	v.fenced, v.drained = append([]Node(nil), v.fenced...), append([]Node(nil), v.drained...)
	return v
}

// probe is one node's answer to one request.
type probe struct {
	err     error  // nil: the node answered
	deposed bool   // sealed by a higher epoch: reachable, no longer a primary
	role    string // the rest is read only from an answer
	history string
	epoch   uint64
	applied int64  // -1: the answer carried no replication block
	unsafe  string // why the integrity gate (DESIGN §14) bars it: diverged, scrub_failed or ""
}

// fold reads one /readyz or lease answer. It is the one reading of a
// node's answer, for the tick and the drain alike.
func fold(st crowddb.ReadyzResponse, err error) probe {
	p := probe{err: err, role: st.Role, epoch: st.FencingEpoch, applied: -1,
		deposed: errors.Is(err, crowddb.ErrFenced) || st.Fencing != nil && st.Fencing.SealedBy == "epoch"}
	if r := st.Replication; r != nil {
		p.history, p.applied = r.History, r.AppliedSeq
		if r.Diverged {
			p.unsafe = "diverged"
		}
	}
	if p.unsafe == "" && st.Integrity != nil && st.Integrity.ScrubFailed {
		p.unsafe = "scrub_failed"
	}
	return p
}

// obs is what one round of requests observed: a tick's probes, or what
// carrying out step's orders brought back.
type obs struct {
	leaseAt  time.Time        // start of a lease renewal sent to the primary; zero: none sent
	primary  *probe           // the primary's answer; nil: not probed
	standbys map[string]probe // standby answers by URL
	fenced   *fenceOrder      // a fence order its target acknowledged
	promoted *promotion       // a promotion that took
}

// promotion is a promote order's answer.
type promotion struct {
	target Node
	st     crowddb.ReplicationStatus
	drain  bool // an operator's handoff: the old primary is drained, not lost
}

type orderKind int

const (
	orderLog orderKind = iota
	orderPromote
	orderFence
	orderTopology
	orderRenew
)

// order is one act step asks of the shell.
type order struct {
	kind  orderKind
	node  Node // promote: the target; renew: the primary
	drain bool // promote: an operator's handoff
	fence fenceOrder
	msg   string // log
}

// step is the supervisor's decision for one shard. It folds o into v
// and returns the new view and the orders that follow, in the order
// they are to be carried out. It takes no lock, reads no clock and does
// no I/O: the shell gathers o, applies step under the supervisor's mu
// and carries the orders out, feeding what they observe back in.
func step(v view, o obs, now time.Time, opts Options) (view, []order) {
	v = v.clone()
	var out []order
	say := func(format string, args ...any) {
		msg := fmt.Sprintf("fleet: shard %d: "+format, append([]any{v.spec.Shard}, args...)...)
		out = append(out, order{kind: orderLog, msg: msg})
	}
	if !o.leaseAt.IsZero() {
		v.lastLease = o.leaseAt
	}
	for url, p := range o.standbys {
		if v.observe(url, p) {
			v.unsafe[url] = p.unsafe
			if p.unsafe == "" {
				delete(v.unsafe, url)
			}
		}
	}
	if f := o.fenced; f != nil && v.pending != nil && *v.pending == *f {
		v.pending = nil
	}
	if pr := o.promoted; pr != nil {
		// Reshape: the winner leads, the loser leaves the probe set until
		// an operator re-points it as a follower and re-declares it.
		old := v.spec.Primary
		v.history = pr.st.History
		v.epoch = max(v.epoch, pr.st.FencingEpoch)
		v.spec.Primary = pr.target
		v.spec.Standbys = slices.DeleteFunc(v.spec.Standbys, func(n Node) bool { return n.URL == pr.target.URL })
		v.misses, v.state = 0, "healthy"
		v.lastLease = time.Time{} // the new primary has its own lease clock
		if pr.drain {
			v.drained = append(v.drained, old)
		} else {
			v.fenced = append(v.fenced, old)
		}
		v.pending = &fenceOrder{Target: old, History: v.history, Epoch: v.epoch, NewPrimary: pr.target.URL}
		say("promoted %s at record %d (fencing epoch %d); fencing %s", pr.target.URL, pr.st.AppliedSeq, pr.st.FencingEpoch, old.URL)
		return v, append(out, order{kind: orderFence, fence: *v.pending}, order{kind: orderTopology})
	}
	p := o.primary
	if p == nil {
		return v, out
	}
	primary := v.spec.Primary.URL
	switch {
	case p.deposed:
		// The declared primary is already deposed (a failover this
		// supervisor no longer remembers, or another supervisor's).
		// Reconcile now rather than waiting out the miss budget.
		v.reachable[primary], v.roles[primary] = true, crowddb.RoleFenced
		say("declared primary %s is fenced; reconciling", primary)
	case p.err == nil:
		v.misses, v.state = 0, "healthy"
		v.observe(primary, *p)
		if p.applied >= 0 {
			v.history = p.history
		}
		return v, out
	default:
		v.misses++
		v.reachable[primary] = false
		v.state = "suspect"
		if v.misses < opts.SuspectAfter {
			say("primary %s missed probe %d/%d: %v", primary, v.misses, opts.SuspectAfter, p.err)
			return v, out
		}
		// Second gate: the lease must provably have lapsed. The last
		// renewal attempt started at lastLease; its request can have
		// reached the primary any time before the attempt timed out, so
		// the lease it (re-)armed lives until lastLease + ProbeTimeout +
		// LeaseTTL. A primary this supervisor never renewed (lastLease
		// zero) holds no lease to wait out.
		if wait, age := opts.LeaseTTL+opts.ProbeTimeout, now.Sub(v.lastLease); !v.lastLease.IsZero() && age <= wait {
			say("primary %s suspected dead (%d missed probes); holding failover until its lease provably lapses (%v of %v)",
				primary, v.misses, age.Round(time.Millisecond), wait)
			return v, out
		}
		say("primary %s suspected dead after %d missed probes and a lapsed lease; failing over", primary, v.misses)
	}
	for _, n := range v.spec.Standbys {
		if why, bad := v.unsafe[n.URL]; bad && v.reachable[n.URL] {
			say("standby %s excluded from promotion: %s", n.URL, why)
		}
	}
	target, ok := pickCandidate(v)
	if !ok {
		v.state = "no_candidate"
		say("no reachable standby to promote; will retry")
		return v, out
	}
	v.state = "failover"
	return v, append(out, order{kind: orderPromote, node: target})
}

// observe records one node's answer and reports whether it answered.
func (v *view) observe(url string, p probe) bool {
	v.reachable[url] = p.err == nil
	if p.err != nil {
		return false
	}
	v.roles[url] = p.role
	if p.applied >= 0 {
		v.applied[url] = p.applied
	}
	v.epoch = max(v.epoch, p.epoch)
	return true
}

// pickCandidate chooses the promotion target: a standby already
// reporting role primary (resume a half-finished failover), else the
// reachable standby with the highest applied sequence. Standbys the
// integrity gate marked unsafe — diverged from the primary's digest,
// or sitting on at-rest corruption their scrubber found — are never
// candidates, however caught-up they look: their applied seq counts
// records, not correctness.
func pickCandidate(v view) (Node, bool) {
	var best Node
	bestSeq, found := int64(-1), false
	for _, n := range v.spec.Standbys {
		if _, bad := v.unsafe[n.URL]; bad || !v.reachable[n.URL] {
			continue
		}
		if v.roles[n.URL] == crowddb.RolePrimary {
			return n, true
		}
		if seq := v.applied[n.URL]; seq > bestSeq {
			best, bestSeq, found = n, seq, true
		}
	}
	return best, found
}
