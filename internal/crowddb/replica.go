package crowddb

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"crowdselect/internal/core"
)

// ErrReplicaDiverged means the primary refused this follower's resume
// position: within the same history the follower claims records the
// primary never committed. That happens when the follower was itself
// promoted earlier, or the primary lost acked state; the replica stops
// streaming (still serving reads) and an operator must decide which
// lineage survives.
var ErrReplicaDiverged = errors.New("crowddb: replica diverged from primary")

// ErrPromotionInProgress is returned to the loser of a promotion
// race: another Promote call holds the flip and has not finished yet.
// Once the winner succeeds, further calls are idempotent and return
// nil; a failed attempt releases the flip so a later call can retry.
var ErrPromotionInProgress = errors.New("crowddb: promotion already in progress")

// Replica is a warm standby: it maintains a durable copy of the
// primary's crowd database and model by applying the replicated
// journal through the same paths boot recovery uses, serves read-only
// selections from the continuously updated model, and can be promoted
// to primary once caught up.
type Replica struct {
	cfg SliceConfig
	db  *DB
	mgr *Manager
	cm  *core.ConcurrentModel

	mu          sync.Mutex
	headSeq     int64 // primary's head, as last advertised
	appliedSeq  int64 // last record fully applied, side effects included
	lastContact time.Time
	connected   bool
	fatal       error // a refusal that stops streaming for good; set once, reported as Status().Stopped

	reconnects    atomic.Int64
	framesApplied atomic.Int64
	bootstraps    atomic.Int64

	// Divergence state machine (DESIGN §14): a heartbeat digest that
	// disagrees with ours at the same applied seq quarantines the
	// replica (diverged: refuses promotion) and forces the next dial to
	// request a bootstrap; a completed re-bootstrap is the repair.
	diverged    atomic.Bool
	divergences atomic.Int64
	repairs     atomic.Int64
	forceBoot   bool // next dial requests a bootstrap (guarded by mu)

	cutter *DigestCutter // set once the stack is built, before run starts

	promoted atomic.Bool // set only once a promotion SUCCEEDS
	promBusy bool        // a Promote call is in flight (guarded by mu)
	cancel   context.CancelFunc
	done     chan struct{}
}

// reconnectBackoff is the initial delay between connection attempts,
// doubling to a 5s cap.
const reconnectBackoff = 250 * time.Millisecond

// errDigestMismatch ends a consume loop after a heartbeat digest
// disagreed: the stream reconnects with a forced bootstrap. Internal —
// distinct from ErrReplicaDiverged, which is fatal on the dial path.
var errDigestMismatch = errors.New("crowddb: heartbeat digest mismatch")

// startReplica opens (or re-opens) the follower's data directory and
// starts streaming cfg.Name's journal from cfg.ReplicaOf. A fresh
// directory, or one whose newest generation Open refuses (*ScrubError),
// requires the primary to be reachable now — the bootstrap is
// synchronous (install), so a nil error means the replica is already
// serving real state. Either way the directory then boots like any
// restart (DB.boot) and catches up in the background, so a follower can
// restart while the primary is down. The stream dials
// /api/v1/t/{name}/replication/stream, the un-prefixed path for the
// default tenant; a multi-tenant follower runs one Replica per tenant,
// each with its own directory.
func startReplica(cfg SliceConfig) (*Replica, error) {
	r := &Replica{cfg: cfg, done: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	var st *replStream
	err := r.open()
	var rotten *ScrubError
	if errors.As(err, &rotten) {
		cfg.Logf("crowddb: replica: %v; bootstrapping from the primary", err)
	}
	if rotten != nil || err == nil && r.db.Fresh() {
		if st, err = r.dial(ctx, 0, "", true); err == nil {
			err = r.install(st)
		}
		if err != nil {
			err = fmt.Errorf("crowddb: replica bootstrap: %w", err)
		} else {
			// Boot the installed generation exactly as a restart would.
			if r.db != nil {
				r.db.Close()
			}
			err = r.open()
		}
	}
	if err == nil {
		r.mgr, r.cm, err = r.db.boot(cfg)
	}
	if err != nil {
		if st != nil {
			st.Close()
		}
		cancel()
		if r.db != nil {
			r.db.Close()
		}
		return nil, err
	}
	r.cutter = NewDigestCutter(r.db, r.mgr)
	// Recovery replayed the journal tail through the manager, so
	// everything in the local journal is fully applied.
	r.appliedSeq = r.db.ReplicationHead()
	if st != nil {
		r.bootstrapped(st.hello, r.appliedSeq)
	}
	go r.run(ctx, st)
	return r, nil
}

// open opens the follower's data directory.
func (r *Replica) open() error {
	db, err := Open(r.cfg.Dir, r.cfg.DB)
	if err != nil {
		return err
	}
	r.db = db
	return nil
}

// DB exposes the follower's durability layer (stats, compaction);
// Close closes it.
func (r *Replica) DB() *DB { return r.db }

// Digest computes the replica's digest cut at its applied position —
// the /api/v1/digest provider on a follower node.
func (r *Replica) Digest() (DigestCut, error) { return r.cutter.Cut() }

// markDiverged quarantines the replica and arms the forced-bootstrap
// repair.
func (r *Replica) markDiverged(seq int64, want, got string) {
	if r.diverged.CompareAndSwap(false, true) {
		r.divergences.Add(1)
	}
	r.mu.Lock()
	r.forceBoot = true
	r.mu.Unlock()
	r.cfg.Logf("crowddb: replica: digest mismatch at record %d (primary %s, local %s); quarantined, forcing re-bootstrap",
		seq, want, got)
}

// Status reports role, position and lag for /readyz and metrics.
func (r *Replica) Status() ReplicationStatus {
	r.mu.Lock()
	applied, head := r.appliedSeq, r.headSeq
	connected, lastContact, fatal := r.connected, r.lastContact, r.fatal
	r.mu.Unlock()
	if r.promoted.Load() {
		// A promoted node journals its own mutations; the journal head
		// is the applied position again.
		applied = r.db.ReplicationHead()
	}
	if applied > head {
		head = applied
	}
	role := RoleReplica
	if r.promoted.Load() {
		role = RolePrimary
	}
	lag := ReplicationLag{Records: head - applied}
	if !lastContact.IsZero() {
		lag.Seconds = r.db.opts.Clock.Now().Sub(lastContact).Seconds()
	}
	st := ReplicationStatus{
		Role:          role,
		FencingEpoch:  r.db.FencingEpoch(),
		Primary:       r.cfg.ReplicaOf,
		Connected:     connected,
		History:       r.db.ReplicationHistory(),
		AppliedSeq:    applied,
		HeadSeq:       head,
		Reconnects:    r.reconnects.Load(),
		FramesApplied: r.framesApplied.Load(),
		Bootstraps:    r.bootstraps.Load(),
		Lag:           &lag,
		Diverged:      r.diverged.Load(),
		Divergences:   r.divergences.Load(),
		Repairs:       r.repairs.Load(),
	}
	if fatal != nil {
		st.Stopped = fatal.Error()
	}
	return st
}

// Promote seals the stream and flips this node to primary: the stream
// is cancelled, the apply loop drains (every record read from the
// primary is applied inline, so drained means replayed to tail), the
// fencing epoch is bumped past every epoch this node has seen — the
// write that deposes the old primary (DESIGN §12) — and a fresh
// generation checkpoints the promoted state. The caller (server or
// daemon) flips the HTTP role afterwards.
//
// Exactly one caller runs a promotion at a time: concurrent calls
// receive ErrPromotionInProgress while an attempt is in flight, and
// nil once one has succeeded (idempotent thereafter). Only success is
// cached — a failed attempt (ctx deadline while draining, checkpoint
// error) releases the flip so a later Promote retries from scratch;
// the shard can still heal after one bad attempt.
func (r *Replica) Promote(ctx context.Context) error {
	if r.promoted.Load() {
		return nil
	}
	if r.diverged.Load() {
		// A quarantined replica's state is known-wrong: promoting it
		// would crown the divergence. Repair (re-bootstrap) clears this.
		return fmt.Errorf("%w: digest mismatch with primary, awaiting re-bootstrap repair", ErrReplicaDiverged)
	}
	r.mu.Lock()
	if r.promBusy {
		r.mu.Unlock()
		return ErrPromotionInProgress
	}
	r.promBusy = true
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.promBusy = false
		r.mu.Unlock()
	}()
	if r.promoted.Load() {
		return nil
	}
	if err := r.promote(ctx); err != nil {
		return err
	}
	r.promoted.Store(true)
	return nil
}

func (r *Replica) promote(ctx context.Context) error {
	r.cancel()
	select {
	case <-r.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	epoch := max(r.db.FencingEpoch(), r.db.FencingObserved()) + 1
	if err := r.db.SetFencingEpoch(epoch); err != nil {
		return fmt.Errorf("crowddb: promote fencing epoch: %w", err)
	}
	if err := r.db.Compact(); err != nil {
		return fmt.Errorf("crowddb: promote checkpoint: %w", err)
	}
	applied := r.db.ReplicationHead()
	r.cfg.Logf("crowddb: replica promoted to primary at record %d (history %s, fencing epoch %d)",
		applied, r.db.ReplicationHistory(), epoch)
	return nil
}

// Stop cancels streaming and waits for the apply loop to exit. It does
// not close the DB; pair with DB().Close().
func (r *Replica) Stop() {
	r.cancel()
	<-r.done
}

// Close stops streaming and closes the follower's data directory.
func (r *Replica) Close() error {
	r.Stop()
	return r.db.Close()
}

// replStream is one open stream: the response body, a frame cursor
// over it, and the primary's hello.
type replStream struct {
	io.Closer // the response body
	frameReader
	hello replHello
}

// dial opens the stream and reads the hello frame.
func (r *Replica) dial(ctx context.Context, from int64, history string, boot bool) (*replStream, error) {
	q := url.Values{}
	q.Set("from", fmt.Sprintf("%d", from))
	if history != "" {
		q.Set("history", history)
		// Carry our fencing knowledge: a source that has been deposed
		// (our observed epoch exceeds its own) seals itself on sight.
		q.Set("epoch", fmt.Sprintf("%d", max(r.db.FencingEpoch(), r.db.FencingObserved())))
	}
	if boot {
		q.Set("boot", "1")
	}
	path := "/api/v1/replication/stream"
	if r.cfg.Name != DefaultTenant {
		path = "/api/v1/t/" + r.cfg.Name + "/replication/stream"
	}
	u := r.cfg.ReplicaOf + path + "?" + q.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	if r.cfg.FleetToken != "" {
		req.Header.Set("Authorization", "Bearer "+r.cfg.FleetToken)
	}
	// No overall timeout: the stream is long-lived by design.
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		var env ErrorEnvelope
		_ = json.Unmarshal(body, &env)
		if errors.Is(ErrorFor(resp.StatusCode, env.Error.Code), ErrReplicaDiverged) {
			return nil, fmt.Errorf("%w: %s", ErrReplicaDiverged, env.Error.Message)
		}
		return nil, fmt.Errorf("crowddb: replication stream refused: %s (%s)", resp.Status, env.Error.Message)
	}
	st := &replStream{Closer: resp.Body, frameReader: frameReader{r: resp.Body}}
	typ, payload, err := st.next()
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("crowddb: replication hello: %w", err)
	}
	if typ != frameHello {
		st.Close()
		return nil, fmt.Errorf("crowddb: replication stream began with frame type %d, want hello", typ)
	}
	if err := json.Unmarshal(payload, &st.hello); err != nil {
		st.Close()
		return nil, fmt.Errorf("crowddb: replication hello: %w", err)
	}
	if err := checkOrigin(st.hello.Arch, st.hello.Kernel); err != nil {
		st.Close()
		return nil, err
	}
	return st, nil
}

// readGeneration consumes the dataset/model/snapshot frames at the head
// of st as the generation they make: the primary's bytes verbatim,
// under the hello's history and fencing epoch at the snapshot's
// position. A bootstrap without a model checkpoint cannot build a
// follower. Start-up (install) and the live re-bootstrap both write it.
func (r *Replica) readGeneration(st *replStream) (generation, error) {
	var dataset, model []byte
	for {
		typ, payload, err := st.next()
		if err != nil {
			return generation{}, err
		}
		switch typ {
		case frameDataset:
			dataset = payload
		case frameModel:
			model = payload
		case frameSnapshot:
			var snap replSnapshotMsg
			if err := json.Unmarshal(payload, &snap); err != nil {
				return generation{}, fmt.Errorf("bootstrap snapshot: %w", err)
			}
			if model == nil {
				return generation{}, errors.New("bootstrap stream carried no model checkpoint")
			}
			return generation{
				dataset: dataset, model: fromBytes(model), store: fromBytes(snap.file()),
				sidecar: adoptedSidecar(st.hello.History, snap.Seq, st.hello.FencingEpoch),
				tenant:  r.cfg.Name,
			}, nil
		default:
			return generation{}, fmt.Errorf("unexpected frame type %d during bootstrap", typ)
		}
	}
}

// install writes the bootstrap at the head of st through the one
// generation writer as the generation after every local one: nothing
// local is deleted before the primary has answered, and the next
// compaction sweeps a refused generation.
func (r *Replica) install(st *replStream) error {
	g, err := r.readGeneration(st)
	if err != nil {
		return err
	}
	gens, journals, err := listGenerations(r.cfg.Dir)
	if err != nil {
		return err
	}
	next := uint64(1)
	for n := range journals {
		next = max(next, n+1)
	}
	for _, n := range gens {
		next = max(next, n+1)
	}
	_, err = writeGeneration(r.cfg.Dir, next, g)
	return err
}

// rebootstrap is the live re-bootstrap of a serving follower that fell
// behind the primary's compaction or was found diverged: the switch
// compaction runs, to a generation holding the primary's state (DB.adopt).
// The store, the model and the replication position move in one quiesced
// step, so no digest cut sees the adopted store beside the old model at
// the old seq, and they move only once that generation is on disk.
func (r *Replica) rebootstrap(st *replStream) error {
	g, err := r.readGeneration(st)
	if err != nil {
		return err
	}
	if err := r.db.adopt(g, r.cm.Replace); err != nil {
		return err
	}
	r.bootstrapped(st.hello, g.sidecar.Seq)
	return nil
}

// bootstrapped records a completed bootstrap, applied through record seq.
func (r *Replica) bootstrapped(hello replHello, seq int64) {
	r.bootstraps.Add(1)
	r.mu.Lock()
	r.headSeq, r.appliedSeq = hello.Seq, seq
	r.lastContact = r.db.opts.Clock.Now()
	r.forceBoot = false
	r.mu.Unlock()
	if r.diverged.CompareAndSwap(true, false) {
		r.repairs.Add(1)
		r.cfg.Logf("crowddb: replica: divergence repaired by re-bootstrap at record %d", seq)
	}
	r.cfg.Logf("crowddb: replica bootstrapped at record %d of history %s (head %d)", seq, hello.History, hello.Seq)
}

// run is the streaming loop: consume the open stream, reconnect with
// backoff from the applied position, re-bootstrap when the primary
// says our position predates its oldest generation, stop on promotion
// or divergence.
func (r *Replica) run(ctx context.Context, st *replStream) {
	defer close(r.done)
	defer r.setConnected(false)
	backoff := reconnectBackoff
	for {
		if ctx.Err() != nil || r.promoted.Load() {
			if st != nil {
				st.Close()
			}
			return
		}
		if st == nil {
			applied := r.db.ReplicationHead()
			r.mu.Lock()
			boot := r.forceBoot
			r.mu.Unlock()
			var err error
			st, err = r.dial(ctx, applied, r.db.ReplicationHistory(), boot)
			if err != nil {
				if errors.Is(err, ErrReplicaDiverged) || errors.Is(err, ErrArchMismatch) || errors.Is(err, ErrKernelMismatch) {
					r.mu.Lock()
					r.fatal = err
					r.mu.Unlock()
					r.cfg.Logf("crowddb: replica: %v; streaming stopped (reads still served)", err)
					return
				}
				if ctx.Err() == nil {
					r.cfg.Logf("crowddb: replica: connect: %v (retrying in %s)", err, backoff)
				}
				backoff = r.backOff(ctx, backoff)
				continue
			}
			if st.hello.Bootstrap {
				if err := r.rebootstrap(st); err != nil {
					r.cfg.Logf("crowddb: replica: re-bootstrap: %v (retrying in %s)", err, backoff)
					st.Close()
					st = nil
					backoff = r.backOff(ctx, backoff)
					continue
				}
			} else {
				// Same history resume: refuse a deposed primary (its
				// epoch is below one we have observed — following it
				// would replay a fenced lineage), adopt a newer epoch.
				if st.hello.FencingEpoch < r.db.FencingObserved() {
					r.cfg.Logf("crowddb: replica: primary at fencing epoch %d is deposed (observed %d); not following",
						st.hello.FencingEpoch, r.db.FencingObserved())
					st.Close()
					st = nil
					backoff = r.backOff(ctx, backoff)
					continue
				}
				if st.hello.FencingEpoch > r.db.FencingEpoch() {
					_ = r.db.SetFencingEpoch(st.hello.FencingEpoch)
				}
			}
			// Only a stream the follower goes on to consume resets the
			// backoff: a dial whose bootstrap fails or whose primary is
			// refused counts as a failed attempt.
			backoff = reconnectBackoff
		}
		r.setConnected(true)
		r.observeHead(st.hello.Seq)
		err := r.consume(ctx, st)
		st.Close()
		st = nil
		r.setConnected(false)
		if ctx.Err() != nil || r.promoted.Load() {
			return
		}
		r.cfg.Logf("crowddb: replica: stream ended: %v; reconnecting", err)
		r.reconnects.Add(1)
		r.backOff(ctx, backoff)
	}
}

// consume applies frames until the stream errors or the context ends.
func (r *Replica) consume(ctx context.Context, st *replStream) error {
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		typ, payload, err := st.next()
		if err != nil {
			return err
		}
		switch typ {
		case frameRecord:
			var msg replRecordMsg
			if err := json.Unmarshal(payload, &msg); err != nil {
				return fmt.Errorf("record frame: %w", err)
			}
			applied := r.db.ReplicationHead()
			if msg.Seq <= applied {
				continue // overlap between the file replay and the live tail
			}
			if msg.Seq != applied+1 {
				return fmt.Errorf("record gap: applied %d, received %d", applied, msg.Seq)
			}
			var e event
			if err := json.Unmarshal(msg.Event, &e); err != nil {
				return fmt.Errorf("record %d: %w", msg.Seq, err)
			}
			if err := r.mgr.applyReplicatedEvent(e); err != nil {
				return fmt.Errorf("apply record %d: %w", msg.Seq, err)
			}
			r.framesApplied.Add(1)
			r.observeApplied(msg.Seq)
		case frameHeartbeat:
			var hb replHeartbeat
			if err := json.Unmarshal(payload, &hb); err != nil {
				return fmt.Errorf("heartbeat frame: %w", err)
			}
			r.observeHead(hb.Seq)
			if hb.Digest != "" && !r.promoted.Load() {
				// Compare only when fully applied to the heartbeat's cut:
				// this goroutine is the sole applier, so applied == hb.Seq
				// means our state claims to equal the primary's cut state.
				if r.db.ReplicationHead() == hb.Seq {
					cut, err := r.cutter.Cut()
					if err != nil {
						return fmt.Errorf("digest cut at record %d: %w", hb.Seq, err)
					}
					if cut.Digest != hb.Digest {
						r.markDiverged(hb.Seq, hb.Digest, cut.Digest)
						return errDigestMismatch
					}
				}
			}
		default:
			return fmt.Errorf("unexpected frame type %d mid-stream", typ)
		}
	}
}

func (r *Replica) observeApplied(seq int64) {
	r.mu.Lock()
	if seq > r.headSeq {
		r.headSeq = seq
	}
	r.appliedSeq = seq
	r.lastContact = r.db.opts.Clock.Now()
	r.mu.Unlock()
}

func (r *Replica) observeHead(seq int64) {
	r.mu.Lock()
	if seq > r.headSeq {
		r.headSeq = seq
	}
	r.lastContact = r.db.opts.Clock.Now()
	r.mu.Unlock()
}

func (r *Replica) setConnected(c bool) {
	r.mu.Lock()
	r.connected = c
	r.mu.Unlock()
}

// backOff waits d on the DB's clock, never stepping a manual one, or
// until ctx ends, and returns the next delay: d doubled, up to 5s.
func (r *Replica) backOff(ctx context.Context, d time.Duration) time.Duration {
	select {
	case <-ctx.Done():
	case <-r.db.opts.Clock.After(d):
	}
	return min(2*d, 5*time.Second)
}
