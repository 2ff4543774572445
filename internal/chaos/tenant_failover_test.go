package chaos

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"crowdselect/internal/clock"
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
// a second durable slice seeded from the default tenant's dataset and a
// clone of its trained model, served beside it by one server.
func newTenantPrimary(t *testing.T) (*tenantPrimary, *httptest.Server) {
	t.Helper()
	p := &tenantPrimary{def: newReplPrimary(t)}
	var buf bytes.Buffer
	if err := p.def.cm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := core.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	acme := openTenant(t, crowddb.SliceConfig{
		Name: "acme",
		Dir:  t.TempDir(),
		DB:   crowddb.Options{Sync: crowddb.SyncAlways(), Clock: testClock(t)},
		Seed: seedOf(p.def.d, m),
	})
	p.acme.db, p.acme.mgr, p.acme.cm = acme.DB, acme.Manager, acme.Model
	// newReplPrimary already serves the default tenant alone, but a node
	// is described whole, so serve a fresh one over both slices.
	return p, serve(t, p.def.sl.Node(acme))
}

// startTenantFollower runs one warm standby per tenant — each replica
// streams its own tenant's journal from primaryURL — behind a single
// read-only server whose promoter promotes every tenant, as cmd/crowdd's
// replica mode with -tenants does.
func startTenantFollower(t *testing.T, primaryURL string) (def, acme *follower, ts *httptest.Server) {
	t.Helper()
	def, defSlice := startReplica(t, primaryURL, crowddb.DefaultTenant, t.TempDir(), crowddb.ShardSpec{})
	acme, acmeSlice := startReplica(t, primaryURL, "acme", t.TempDir(), crowddb.ShardSpec{})
	return def, acme, serve(t, defSlice.Node(acmeSlice))
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
		Clock:   new(clock.Manual),
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
