package chaos

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"crowdselect/internal/core"
	"crowdselect/internal/crowdclient"
	"crowdselect/internal/crowddb"
)

// tenantPrimary is a primary node hosting two tenants — default and
// acme — each with its own durable DB and replication source, sharing
// one server and one node-level fence, the same shape cmd/crowdd
// builds for -tenants.
type tenantPrimary struct {
	def  *replRig
	acme struct {
		db  *crowddb.DB
		mgr *crowddb.Manager
		cm  *core.ConcurrentModel
	}
}

// newTenantPrimary extends newReplPrimary's stack with an acme tenant:
// a second durable DB stamped "acme", seeded from a clone of the
// default tenant's trained model, registered on the same server.
func newTenantPrimary(t *testing.T) (*tenantPrimary, *httptest.Server) {
	t.Helper()
	p := &tenantPrimary{def: newReplPrimary(t)}
	d := p.def.d

	db, err := crowddb.Open(t.TempDir(), crowddb.Options{Sync: crowddb.SyncAlways()})
	if err != nil {
		t.Fatal(err)
	}
	db.Store().SetTenant("acme")
	for i := range d.Workers {
		if _, err := db.Store().AddWorker(i, fmt.Sprintf("w%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := p.def.cm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := core.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cm := core.NewConcurrentModel(m)
	mgr, err := crowddb.NewManager(db.Store(), d.Vocab, cm, 2)
	if err != nil {
		t.Fatal(err)
	}
	mgr.SetTenant("acme")
	db.SetModelSnapshotter(cm.Save)
	db.SetQuiescer(mgr.Quiesce)
	if err := d.SaveFile(db.DatasetPath()); err != nil {
		t.Fatal(err)
	}
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	// Fencing is node-level; tenants share it.
	src := crowddb.NewTransferSource(db, p.def.fence, crowddb.NewDigestCutter(db, mgr).Func(), crowddb.TransferSourceOptions{Heartbeat: 20 * time.Millisecond})

	// Rebuild the HTTP shell so both tenants hang off one listener —
	// newReplPrimary already started a server for the default tenant,
	// but a node is described whole, so serve a fresh one.
	defSrc := crowddb.NewTransferSource(p.def.db, p.def.fence, crowddb.NewDigestCutter(p.def.db, p.def.mgr).Func(), crowddb.TransferSourceOptions{Heartbeat: 20 * time.Millisecond})
	ts := httptest.NewServer(newNode(t,
		crowddb.TenantConfig{Manager: p.def.mgr, Degraded: p.def.db.Degraded, ReplicationSource: defSrc.Stream()},
		crowddb.NodeConfig{
			Durability: p.def.db.Stats, Replication: defSrc.Status, Fence: p.def.fence,
			Tenants: []crowddb.TenantConfig{{Name: "acme", Manager: mgr, Degraded: db.Degraded, ReplicationSource: src.Stream()}},
		}))
	t.Cleanup(func() {
		ts.CloseClientConnections()
		ts.Close()
		db.Close()
	})
	p.acme.db, p.acme.mgr, p.acme.cm = db, mgr, cm
	return p, ts
}

// startTenantFollower runs one warm standby per tenant — each replica
// streams its own tenant's journal from primaryURL — behind a single
// read-only server whose promoter promotes every tenant, mirroring
// cmd/crowdd's replica mode with -tenants.
func startTenantFollower(t *testing.T, primaryURL string) (def, acme *follower, ts *httptest.Server) {
	t.Helper()
	def = startReplica(t, crowddb.ReplicaOptions{
		Primary:          primaryURL,
		Dir:              t.TempDir(),
		DB:               crowddb.Options{Sync: crowddb.SyncAlways()},
		ReconnectBackoff: 10 * time.Millisecond,
	}, crowddb.ShardSpec{})
	acme = startReplica(t, crowddb.ReplicaOptions{
		Primary:          primaryURL,
		Tenant:           "acme",
		Dir:              t.TempDir(),
		DB:               crowddb.Options{Sync: crowddb.SyncAlways()},
		ReconnectBackoff: 10 * time.Millisecond,
	}, crowddb.ShardSpec{})
	fence := crowddb.NewFence(def.DB())
	defSrc := crowddb.NewTransferSource(def.DB(), fence, def.Digest, crowddb.TransferSourceOptions{Heartbeat: 20 * time.Millisecond})
	acmeSrc := crowddb.NewTransferSource(acme.DB(), fence, acme.Digest, crowddb.TransferSourceOptions{Heartbeat: 20 * time.Millisecond})
	ts = httptest.NewServer(newNode(t, crowddb.TenantConfig{Manager: def.mgr, ReplicationSource: defSrc.Stream()}, crowddb.NodeConfig{
		Role:        crowddb.RoleReplica,
		Durability:  def.DB().Stats,
		Replication: def.Status,
		Fence:       fence,
		Tenants:     []crowddb.TenantConfig{{Name: "acme", Manager: acme.mgr, ReplicationSource: acmeSrc.Stream()}},
		Promoter: func(ctx context.Context) error {
			// Promote every tenant; Replica.Promote caches only success,
			// so a retry after a partial failure re-drives just the rest.
			if err := def.Promote(ctx); err != nil {
				return fmt.Errorf("tenant default: %w", err)
			}
			if err := acme.Promote(ctx); err != nil {
				return fmt.Errorf("tenant acme: %w", err)
			}
			return nil
		},
	}))
	t.Cleanup(func() {
		ts.CloseClientConnections()
		ts.Close()
		def.Close()
		acme.Close()
	})
	return def, acme, ts
}

// TestChaosTenantFailover is the two-tenant failover drill: a primary
// hosting default and acme crowds with live interleaved traffic on
// both, per-tenant replication to one follower node, primary death,
// and a single promotion that flips every tenant — after which each
// tenant's store and posteriors on the new primary are byte-identical
// to the dead primary's last committed state, and both tenants keep
// accepting writes without bleeding into each other.
func TestChaosTenantFailover(t *testing.T) {
	primary, primaryTS := newTenantPrimary(t)
	defRep, acmeRep, followerTS := startTenantFollower(t, primaryTS.URL)

	multi, err := crowdclient.NewMulti([]string{primaryTS.URL, followerTS.URL}, crowdclient.Options{
		Timeout: 2 * time.Second,
		Retries: 2,
		Backoff: time.Millisecond,
		Sleep:   func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	acmeMulti := multi.ForTenant("acme")
	ctx := context.Background()

	caughtUp := func() bool {
		dseq := primary.def.db.ReplicationHead()
		aseq := primary.acme.db.ReplicationHead()
		return defRep.Status().AppliedSeq == dseq && acmeRep.Status().AppliedSeq == aseq
	}

	// Interleaved load on both tenants while both streams are live.
	ackedDef := make(map[int]string)
	ackedAcme := make(map[int]string)
	for i := 0; i < 10; i++ {
		dt := fmt.Sprintf("default drill question %d about query planning", i)
		ackedDef[resolveVia(t, ctx, multi, dt)] = dt
		at := fmt.Sprintf("acme drill question %d about vacuum scheduling", i)
		ackedAcme[resolveVia(t, ctx, acmeMulti, at)] = at
	}
	waitFor(t, "both tenants caught up under load", caughtUp)

	// Quiesce, snapshot the primary's committed state per tenant, then
	// kill it and promote the follower — one Promote call flips both.
	wantDefModel := modelBytes(t, primary.def.cm)
	wantAcmeModel := modelBytes(t, primary.acme.cm)
	wantDefTasks := primary.def.db.Store().NumTasks()
	wantAcmeTasks := primary.acme.db.Store().NumTasks()

	primaryTS.CloseClientConnections()
	primaryTS.Close() // the primary dies with both tenants on it

	followerCli := crowdclient.New(followerTS.URL, crowdclient.Options{Timeout: 5 * time.Second})
	st, err := followerCli.Promote(ctx)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if st.Role != crowddb.RolePrimary {
		t.Fatalf("promoted follower reports role %q", st.Role)
	}

	// Byte-identical per tenant: models and task counts match the dead
	// primary exactly, and neither tenant absorbed the other's tasks.
	if got := modelBytes(t, defRep.cm); !bytes.Equal(got, wantDefModel) {
		t.Fatal("promoted default-tenant model diverges from the primary's last committed state")
	}
	if got := modelBytes(t, acmeRep.cm); !bytes.Equal(got, wantAcmeModel) {
		t.Fatal("promoted acme-tenant model diverges from the primary's last committed state")
	}
	if got := defRep.DB().Store().NumTasks(); got != wantDefTasks {
		t.Fatalf("promoted default store has %d tasks, primary had %d", got, wantDefTasks)
	}
	if got := acmeRep.DB().Store().NumTasks(); got != wantAcmeTasks {
		t.Fatalf("promoted acme store has %d tasks, primary had %d", got, wantAcmeTasks)
	}
	defTexts := make(map[string]bool, len(ackedDef))
	for _, text := range ackedDef {
		defTexts[text] = true
	}
	for _, rec := range acmeRep.DB().Store().ListTasks(crowddb.TaskResolved) {
		if defTexts[rec.Text] {
			t.Fatalf("default-tenant task %q leaked into acme's replica", rec.Text)
		}
	}
	acmeTexts := make(map[string]bool, len(ackedAcme))
	for _, text := range ackedAcme {
		acmeTexts[text] = true
	}
	for _, rec := range defRep.DB().Store().ListTasks(crowddb.TaskResolved) {
		if acmeTexts[rec.Text] {
			t.Fatalf("acme-tenant task %q leaked into the default replica", rec.Text)
		}
	}

	// Both tenants accept traffic on the new primary, still isolated:
	// the task lands in its own tenant and 404s in the other.
	defText := "life after failover: default tenant resumes"
	defID := resolveVia(t, ctx, multi, defText)
	acmeText := "life after failover: acme tenant resumes"
	acmeID := resolveVia(t, ctx, acmeMulti, acmeText)
	if rec, err := multi.GetTask(ctx, defID); err != nil || rec.Text != defText {
		t.Fatalf("post-failover default task = (%+v, %v), want text %q", rec, err, defText)
	}
	if rec, err := acmeMulti.GetTask(ctx, acmeID); err != nil || rec.Text != acmeText {
		t.Fatalf("post-failover acme task = (%+v, %v), want text %q", rec, err, acmeText)
	}
	if rec, err := multi.GetTask(ctx, acmeID); err == nil && rec.Text == acmeText {
		t.Fatalf("acme task %d visible through the default tenant after failover", acmeID)
	}
}
