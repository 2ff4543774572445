package crowddb

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"sync"
)

// Integrity digests (DESIGN.md §14). A digest is a deterministic
// SHA-256 fingerprint of everything the anti-entropy protocol must
// agree on at a replication position: the model's worker posteriors
// (the canonical Save bytes) and the store's snapshot (workers, tasks,
// applied-forward set), both bound to the tenant namespace. Two nodes
// of the same tenant at the same applied seq MUST produce the same
// combined digest — whether the state was reached live, by journal
// replay, by replication apply, or across a compaction — or one of
// them has silently diverged.

// digestPreimageVersion versions the combined-digest preimage; bump it
// if the hashed components or their framing ever change, so mixed
// fleets never compare digests computed under different rules.
const digestPreimageVersion = "crowd-digest/v1"

// combineDigest binds the model and store component digests to the
// tenant namespace under a versioned preimage.
func combineDigest(tenant, model, store string) string {
	h := sha256.New()
	io.WriteString(h, digestPreimageVersion+"\n")
	io.WriteString(h, tenant+"\n")
	io.WriteString(h, model+"\n")
	io.WriteString(h, store+"\n")
	return hex.EncodeToString(h.Sum(nil))
}

// DigestCut is one consistent integrity fingerprint: the combined
// digest, its components, and the exact replication position it was
// computed at. Serves as the GET /api/v1/digest response and as the
// payload replication heartbeats compare.
type DigestCut struct {
	Tenant string `json:"tenant"`
	Seq    int64  `json:"seq"`
	Digest string `json:"digest"`
	Model  string `json:"model_digest,omitempty"`
	Store  string `json:"store_digest,omitempty"`
}

// DigestFunc produces a consistent digest cut; the server's digest
// endpoint and the replication heartbeat both call through one.
type DigestFunc func() (DigestCut, error)

// DigestCutter computes digest cuts over a DB + Manager pair with a
// cache keyed on (generation, seq): while no records commit, repeated
// cuts (every idle heartbeat, every /api/v1/digest poll) cost one mutex
// hit, not a model serialization. A follower's re-bootstrap may adopt
// state at a seq already cut, but always in a new generation.
type DigestCutter struct {
	db  *DB
	mgr *Manager

	mu     sync.Mutex
	cached DigestCut
	gen    uint64 // the generation cached was cut in
	valid  bool
}

// NewDigestCutter builds a cutter over db and mgr (the manager whose
// selector carries the model state journaled into db).
func NewDigestCutter(db *DB, mgr *Manager) *DigestCutter {
	return &DigestCutter{db: db, mgr: mgr}
}

// Cut computes (or returns the cached) digest at the current applied
// position. The cut quiesces resolves and read-locks the store so the
// model hash, the store hash and the replication position all observe
// the same instant — the same cut discipline compaction uses.
func (c *DigestCutter) Cut() (DigestCut, error) {
	// The generation is read first and outside Quiesce (db.mu is never
	// taken inside it), so a cut is never cached under a newer one.
	gen := c.db.Generation()
	seq := c.db.ReplicationHead()
	c.mu.Lock()
	if c.valid && c.gen == gen && c.cached.Seq == seq {
		cut := c.cached
		c.mu.Unlock()
		return cut, nil
	}
	c.mu.Unlock()
	var cut DigestCut
	err := c.mgr.Quiesce(func() error {
		s := c.db.store
		s.mu.RLock()
		defer s.mu.RUnlock()
		cut.Seq = c.db.ReplicationHead()
		cut.Tenant = s.tenant
		if cut.Tenant == "" {
			cut.Tenant = DefaultTenant
		}
		var err error
		if cut.Model, err = c.mgr.sel.Digest(); err != nil {
			return err
		}
		h := sha256.New()
		if err := s.snapshotLocked(h); err != nil {
			return err
		}
		cut.Store = hex.EncodeToString(h.Sum(nil))
		cut.Digest = combineDigest(cut.Tenant, cut.Model, cut.Store)
		return nil
	})
	if err != nil {
		return DigestCut{}, err
	}
	c.mu.Lock()
	c.cached, c.gen, c.valid = cut, gen, true
	c.mu.Unlock()
	return cut, nil
}

// Func adapts the cutter to a DigestFunc.
func (c *DigestCutter) Func() DigestFunc { return c.Cut }

// handleDigest serves GET /api/v1/digest: the node's current digest
// cut for the request's tenant. 404 when the node has no digest
// provider wired (no durable store behind the server).
func (s *Server) handleDigest(w http.ResponseWriter, r *http.Request) {
	fn := s.tenantFor(r).Digest
	if fn == nil {
		writeErr(w, r, refuse(ErrNotFound, "no integrity digest available on this node"))
		return
	}
	cut, err := fn()
	if err != nil {
		writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, cut)
}
