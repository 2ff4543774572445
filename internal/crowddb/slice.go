package crowddb

import (
	"cmp"
	"context"
	"errors"
	"fmt"

	"crowdselect/internal/core"
	"crowdselect/internal/corpus"
	"crowdselect/internal/text"
)

// A tenant's slice (DESIGN §13) is the paper's Figure 1 once over: a
// crowd database, a TDPM model and the crowd manager over both, plus,
// when the slice is durable, its data directory, digest cut and
// transfer source. OpenTenant builds one whole, and Tenant.Node turns a
// node's slices into the description New serves.

// SliceConfig describes one tenant's slice for OpenTenant.
type SliceConfig struct {
	// Name is DefaultTenant ("" too) or a ValidTenantName.
	Name string
	// Dir is the slice's data directory; empty keeps it in memory.
	Dir string
	// ReplicaOf is a primary's base URL: the slice is a warm standby
	// following that primary's stream for Name (DESIGN §10). Needs Dir.
	ReplicaOf string
	// Shard is the node's shard identity (DESIGN §11).
	Shard ShardSpec
	// CrowdK is the default crowd size per task.
	CrowdK int
	// DB configures the data directory's durability layer and clock.
	DB Options
	// FleetToken authenticates a follower's stream dial when its
	// primary gates the fleet-control surface (NodeConfig.FleetToken).
	FleetToken string
	// Seed is a fresh slice's start: the dataset whose workers it
	// registers and whose vocabulary it selects over, and the trained
	// model. It is called only for an in-memory slice or a fresh
	// directory of a primary, which it is required for.
	Seed func() (*corpus.Dataset, *core.Model, error)
	// Logf receives lifecycle notices. nil is silent.
	Logf func(format string, args ...any)
}

// Tenant is one opened slice.
type Tenant struct {
	// Name is the tenant's name, DefaultTenant for the default one.
	Name string
	// Manager owns the slice's store, model and selection path.
	Manager *Manager
	// Model is the manager's concurrent model.
	Model *core.ConcurrentModel
	// DB is the slice's data directory; nil in memory.
	DB *DB
	// Digest is the slice's digest cut (DESIGN §14); nil in memory.
	Digest DigestFunc
	// Replica is the follower's stream; nil unless ReplicaOf was set.
	Replica *Replica

	logf func(format string, args ...any)
}

// OpenTenant opens one tenant's slice. A primary's written directory
// boots its newest generation (restoring its dataset and model
// checkpoint, replaying its journal); a fresh or in-memory slice starts
// from the seed and, when durable, writes generation 1. A replica's
// directory follows its primary's stream instead. It refuses an invalid
// name, a replica without a directory, and a fresh slice without a
// seed. On error nothing stays open.
func OpenTenant(cfg SliceConfig) (*Tenant, error) {
	cfg.Name = cmp.Or(cfg.Name, DefaultTenant)
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	switch {
	case !ValidTenantName(cfg.Name):
		return nil, fmt.Errorf("crowddb: invalid tenant name %q", cfg.Name)
	case cfg.ReplicaOf != "" && cfg.Dir == "":
		return nil, errors.New("crowddb: a replica needs a data directory")
	}
	t := &Tenant{Name: cfg.Name, logf: cfg.Logf}
	if cfg.ReplicaOf != "" {
		cfg.Logf("tenant %s: starting replica stream from %s", cfg.Name, cfg.ReplicaOf)
		rep, err := startReplica(cfg)
		if err != nil {
			return nil, err
		}
		// The follower's digest cut doubles as its own heartbeat payload
		// for chained standbys and as the verify endpoint's answer.
		t.Replica, t.DB, t.Manager, t.Model, t.Digest = rep, rep.DB(), rep.mgr, rep.cm, rep.Digest
		return t, nil
	}
	if cfg.Dir == "" {
		_, mgr, cm, err := cfg.seed(NewStore())
		if err != nil {
			return nil, err
		}
		t.Manager, t.Model = mgr, cm
		return t, nil
	}
	db, err := Open(cfg.Dir, cfg.DB)
	if err != nil {
		return nil, err
	}
	if db.Fresh() {
		t.Manager, t.Model, err = cfg.begin(db)
	} else {
		cfg.Logf("tenant %s: restoring generation %d from %s", cfg.Name, db.Generation(), cfg.Dir)
		t.Manager, t.Model, err = db.boot(cfg)
	}
	if err != nil {
		db.Close()
		return nil, err
	}
	t.DB = db
	// Heartbeats carry the digest so followers can anti-entropy check
	// themselves (DESIGN §14); the same cut serves GET /api/v1/digest
	// and stamps every backup archive (DESIGN §15).
	t.Digest = NewDigestCutter(db, t.Manager).Func()
	return t, nil
}

// stack builds the slice's serving stack over store. It is the one
// place the tenant and the shard are stamped, before any record is
// replayed or journaled: both shape replay.
func (cfg SliceConfig) stack(store *Store, vocab *text.Vocabulary, model *core.Model) (*Manager, *core.ConcurrentModel, error) {
	store.setTenant(cfg.Name)
	cm := core.NewConcurrentModel(model)
	mgr, err := NewManager(store, vocab, cm, cfg.CrowdK)
	if err != nil {
		return nil, nil, err
	}
	mgr.SetShard(cfg.Shard)
	return mgr, cm, nil
}

// seed starts a fresh slice over store: the seed's workers registered,
// its model behind the stack.
func (cfg SliceConfig) seed(store *Store) (*corpus.Dataset, *Manager, *core.ConcurrentModel, error) {
	if cfg.Seed == nil {
		return nil, nil, nil, errors.New("crowddb: a fresh slice needs a seed")
	}
	d, model, err := cfg.Seed()
	if err != nil {
		return nil, nil, nil, err
	}
	for _, w := range d.Workers {
		if _, err := store.AddWorker(w.ID, fmt.Sprintf("worker-%04d", w.ID)); err != nil {
			return nil, nil, nil, err
		}
	}
	mgr, cm, err := cfg.stack(store, d.Vocab, model)
	return d, mgr, cm, err
}

// begin seeds a fresh directory and writes its generation 1. The seed's
// dataset is the vocabulary source of every later boot, so it is
// persisted before the first snapshot commits the directory.
func (cfg SliceConfig) begin(db *DB) (*Manager, *core.ConcurrentModel, error) {
	d, mgr, cm, err := cfg.seed(db.store)
	if err != nil {
		return nil, nil, err
	}
	db.SetModelSnapshotter(cm.Save)
	db.SetQuiescer(mgr.Quiesce)
	if err := d.SaveFile(db.DatasetPath()); err != nil {
		return nil, nil, err
	}
	return mgr, cm, db.Begin()
}

// Close stops the slice's stream, compacts its directory, so the next
// boot restores without replay, and closes it. A failed compaction is
// logged; the close still runs.
func (t *Tenant) Close() error {
	if t.Replica != nil {
		t.Replica.Stop()
	}
	if t.DB == nil {
		return nil
	}
	if err := t.DB.Compact(); err != nil {
		t.logf("tenant %s: shutdown compaction failed: %v", t.Name, err)
	}
	return t.DB.Close()
}

// Node describes the node t and named make, t the default slice. The
// node's fence is over t's directory and seals every durable slice's
// transfer source; a durable slice can feed warm standbys and backups
// on a follower too, so after a promotion the remaining standbys
// re-point at it. The status sections read off t, and on a follower the
// promoter promotes every slice, the node's role flipping only once all
// succeed. The caller adds each tenant's Query and quota and the
// node-level settings.
func (t *Tenant) Node(named ...*Tenant) NodeConfig {
	fence := NewFence(t.DB)
	def, src := t.tenant(fence)
	tenants := []TenantConfig{def}
	for _, sl := range named {
		tc, _ := sl.tenant(fence)
		tenants = append(tenants, tc)
	}
	switch {
	case t.DB == nil:
		return NodeConfig{Tenants: tenants, Fence: fence, CacheStats: t.Model.CacheStats}
	case t.Replica == nil:
		return NodeConfig{Tenants: tenants, Fence: fence, CacheStats: t.Model.CacheStats,
			Durability: t.DB.Stats, Integrity: t.DB.ScrubStats, Replication: src.Status}
	}
	slices := append([]*Tenant{t}, named...)
	// A follower serves read-only behind the role gate, in the role its
	// stream reports (replica until promoted); its status sections merge
	// the stream's view with the local scrubber and the divergence state
	// machine.
	return NodeConfig{
		Tenants: tenants, Fence: fence, CacheStats: t.Model.CacheStats,
		Role: t.Replica.Status().Role, Durability: t.DB.Stats,
		Integrity: func() IntegritySnapshot {
			is := t.DB.ScrubStats()
			st := t.Replica.Status()
			is.Diverged, is.Divergences, is.Repairs = st.Diverged, st.Divergences, st.Repairs
			return is
		},
		Replication: func() ReplicationStatus {
			st := t.Replica.Status()
			st.Followers = src.Followers()
			return st
		},
		// Replica.Promote is idempotent on success, so a retried
		// promotion re-drives only the slices that failed.
		Promoter: func(ctx context.Context) error {
			for _, sl := range slices {
				if err := sl.Replica.Promote(ctx); err != nil {
					return fmt.Errorf("tenant %s: %w", sl.Name, err)
				}
			}
			return nil
		},
	}
}

// tenant is the slice's part of a node fenced by fence, and its
// transfer source, nil in memory.
func (t *Tenant) tenant(fence *Fence) (TenantConfig, *TransferSource) {
	if t.DB == nil {
		return TenantConfig{Name: t.Name, Manager: t.Manager}, nil
	}
	src := NewTransferSource(t.DB, fence, t.Digest, TransferSourceOptions{Logf: t.logf})
	return TenantConfig{Name: t.Name, Manager: t.Manager, Degraded: t.DB.Degraded, Digest: t.Digest,
		ReplicationSource: src.Stream(), Backup: src.Segment()}, src
}
