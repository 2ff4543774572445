package crowddb

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"crowdselect/internal/clock"
)

// Split-brain fencing (DESIGN §12): every node carries a monotone
// fencing epoch for its replication history. Promotion bumps the
// epoch, and any node that observes a higher epoch for its own
// history seals itself — mutations and replication serving refuse
// with 409 fenced (plus an X-Crowdd-Primary hint at the new primary
// when known) until the node is re-pointed as a follower. Both the
// node's own epoch and the highest epoch it has observed persist in
// the generation's repl-*.json sidecar, so a deposed primary restarts
// sealed.
//
// Epoch observation alone cannot fence a primary that is partitioned
// away from the fleet but still reachable by some clients — nobody
// who knows the new epoch can deliver it. The Fence therefore also
// holds a supervisor lease: once a supervisor has renewed the lease
// (POST /api/v1/replication/lease), the node provisionally seals
// itself whenever the lease lapses. The check is lazy — evaluated on
// the mutation path, no background goroutine — and a renewal at the
// node's own epoch un-seals it, so a supervisor restart does not
// permanently fence a healthy primary. A supervisor that waits out
// K missed probes with LeaseTTL < K×probe-interval is guaranteed the
// old primary stopped acking before the new one is promoted. Every
// server has a Fence (NewServer starts with a memory-only one), but the
// lease stays opt-in: nodes never granted a lease (no supervisor) are
// never lease-sealed, so a hand-operated fleet runs unsupervised.

// ErrFenced reports that a node is sealed: a higher fencing epoch
// exists for its history, or its supervisor lease lapsed.
var ErrFenced = errors.New("crowddb: node is fenced")

// FenceStatus is the fencing section of /readyz, /api/v1/metrics and
// the fence/lease endpoints.
type FenceStatus struct {
	History  string `json:"history,omitempty"`
	Epoch    uint64 `json:"epoch"`               // this node's own epoch
	Observed uint64 `json:"observed"`            // highest epoch seen for History
	Sealed   bool   `json:"sealed"`              // refusing mutations right now
	SealedBy string `json:"sealed_by,omitempty"` // "epoch" or "lease"

	// NewPrimary is the base URL of the primary that deposed this
	// node, when the fence order carried one — the redirect hint
	// clients receive on 409 fenced.
	NewPrimary string `json:"new_primary,omitempty"`

	LeaseHolder  string  `json:"lease_holder,omitempty"`
	LeaseTTLLeft float64 `json:"lease_ttl_left_seconds,omitempty"`

	Seals    int64 `json:"seals,omitempty"`    // epoch-seal transitions
	Refusals int64 `json:"refusals,omitempty"` // requests refused 409 fenced
}

// Fence is one node's fencing state. Backed by a durable DB the
// epochs persist in the replication sidecar; with db nil (an
// in-memory server, and every server described without a Fence) they
// live in the Fence itself. Its lease runs on db's clock. Safe for
// concurrent use.
type Fence struct {
	db    *DB // nil: memory-only epochs
	clock clock.Clock

	mu          sync.Mutex
	memHistory  string // used only when db == nil
	memEpoch    uint64
	memObserved uint64
	newPrimary  string
	leaseHolder string
	leaseExpiry time.Time // zero until the first renewal arms the lease

	seals    atomic.Int64
	refusals atomic.Int64
}

// NewFence builds the fencing state for one node. db may be nil for
// an in-memory server; a fresh lineage starts at epoch 1.
func NewFence(db *DB) *Fence {
	f := &Fence{db: db, clock: clock.Real}
	if db != nil {
		f.clock = db.opts.Clock
	} else {
		f.memHistory = newHistoryID()
		f.memEpoch, f.memObserved = 1, 1
	}
	return f
}

// History returns the replication history this fence guards.
func (f *Fence) History() string {
	if f.db != nil {
		return f.db.ReplicationHistory()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.memHistory
}

// Epoch returns the node's own fencing epoch.
func (f *Fence) Epoch() uint64 {
	if f.db != nil {
		return f.db.FencingEpoch()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.memEpoch
}

// ObservedEpoch returns the highest fencing epoch this node has seen
// for its history (always ≥ Epoch) — the value gossiped in the
// X-Crowdd-Fencing-Epoch response header.
func (f *Fence) ObservedEpoch() uint64 { return f.observed() }

func (f *Fence) observed() uint64 {
	if f.db != nil {
		return f.db.FencingObserved()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.memObserved
}

// Observe records that epoch e exists for history h, optionally with
// the new primary's base URL. When h is this node's history and e
// exceeds its own epoch the node seals — permanently, until it is
// re-pointed as a follower of the new primary. Epochs from other
// histories are ignored (they name a different lineage). Returns
// whether the node is sealed by epoch after the observation.
func (f *Fence) Observe(h string, e uint64, newPrimary string) bool {
	if h == "" || h != f.History() {
		return false
	}
	wasSealed := f.observed() > f.Epoch()
	if f.db != nil {
		_ = f.db.ObserveFencingEpoch(e)
	} else {
		f.mu.Lock()
		if e > f.memObserved {
			f.memObserved = e
		}
		f.mu.Unlock()
	}
	sealed := f.observed() > f.Epoch()
	if sealed && e > f.Epoch() && newPrimary != "" {
		f.mu.Lock()
		f.newPrimary = newPrimary
		f.mu.Unlock()
	}
	if sealed && !wasSealed {
		f.seals.Add(1)
	}
	return sealed
}

// Renew arms (or extends) the supervisor lease. A permanently sealed
// node refuses with ErrFenced so the supervisor learns the node is
// already deposed; otherwise the renewal also clears any provisional
// lease seal.
func (f *Fence) Renew(holder string, ttl time.Duration) error {
	if ttl <= 0 {
		return fmt.Errorf("crowddb: lease ttl must be positive, got %v", ttl)
	}
	if f.observed() > f.Epoch() {
		return ErrFenced
	}
	f.mu.Lock()
	f.leaseHolder = holder
	f.leaseExpiry = f.clock.Now().Add(ttl)
	f.mu.Unlock()
	return nil
}

// Sealed reports whether the node is refusing mutations right now:
// sealed by epoch (permanent) or by a lapsed supervisor lease
// (provisional — the next renewal un-seals). Evaluated lazily; no
// background goroutine.
func (f *Fence) Sealed() bool {
	s, _ := f.sealedBy()
	return s
}

// SealedByEpoch reports whether the node is permanently sealed: a
// higher fencing epoch exists for its history, so its lineage is dead.
// A lease seal does not count — a lease-sealed primary has stopped
// acking, but its committed tail is still the authoritative prefix and
// may keep draining to followers (the drain handoff depends on it).
func (f *Fence) SealedByEpoch() bool {
	return f.observed() > f.Epoch()
}

// StepDown seals the node provisionally, as if its supervisor lease
// had just lapsed: mutations refuse 409 fenced immediately, but a
// later Renew un-seals. The drain path uses it to freeze the
// primary's head before verifying the successor caught up — ordering
// the seal before the final lag check is what closes the lost-ack
// window. An epoch-sealed node refuses with ErrFenced.
func (f *Fence) StepDown(holder string) error {
	if f.SealedByEpoch() {
		return ErrFenced
	}
	f.mu.Lock()
	f.leaseHolder = holder
	f.leaseExpiry = f.clock.Now().Add(-time.Nanosecond) // armed, and already lapsed
	f.mu.Unlock()
	return nil
}

func (f *Fence) sealedBy() (bool, string) {
	if f.observed() > f.Epoch() {
		return true, "epoch"
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.leaseExpiry.IsZero() && f.clock.Now().After(f.leaseExpiry) {
		return true, "lease"
	}
	return false, ""
}

// NewPrimary returns the redirect hint carried by the fence order, if
// any.
func (f *Fence) NewPrimary() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.newPrimary
}

// Status snapshots the fence for /readyz, metrics and the fence/lease
// endpoints.
func (f *Fence) Status() FenceStatus {
	sealed, by := f.sealedBy()
	st := FenceStatus{
		History:  f.History(),
		Epoch:    f.Epoch(),
		Observed: f.observed(),
		Sealed:   sealed,
		SealedBy: by,
		Seals:    f.seals.Load(),
		Refusals: f.refusals.Load(),
	}
	f.mu.Lock()
	st.NewPrimary = f.newPrimary
	st.LeaseHolder = f.leaseHolder
	if !f.leaseExpiry.IsZero() {
		if left := f.leaseExpiry.Sub(f.clock.Now()).Seconds(); left > 0 {
			st.LeaseTTLLeft = left
		}
	}
	f.mu.Unlock()
	return st
}

// Refuse answers r with the typed 409 fenced refusal, stamping the new
// primary hint and this node's epoch so clients can re-resolve.
func (f *Fence) Refuse(w http.ResponseWriter, r *http.Request, err error) {
	f.refusals.Add(1)
	if p := f.NewPrimary(); p != "" {
		w.Header().Set("X-Crowdd-Primary", p)
	}
	w.Header().Set("X-Crowdd-Fencing-Epoch", strconv.FormatUint(f.observed(), 10))
	w.Header().Set("X-Crowdd-History", f.History())
	_, by := f.sealedBy()
	writeErr(w, r, refuse(ErrFenced, "node is fenced (sealed by %s: own epoch %d, observed %d): %v", by, f.Epoch(), f.observed(), err))
}
