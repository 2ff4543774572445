package crowddb

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crowdselect/internal/core"
	"crowdselect/internal/corpus"
)

// openTenantDurable boots a durable pipeline of a tenant's slice: its
// store stamped with the namespace before anything journals or
// replays, as for crowdd's <data-dir>/tenants/<name>.
func openTenantDurable(t *testing.T, dir, tenant string, d *corpus.Dataset, fresh *core.Model, opts Options) (*durableRig, error) {
	t.Helper()
	return openRig(SliceConfig{Name: tenant, Dir: dir, DB: opts}, d, fresh)
}

// journalBytes concatenates every journal generation in dir.
func journalBytes(t *testing.T, dir string) []byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	return all
}

// TestDefaultJournalHasNoTenantStamps: the default tenant's journal is
// byte-compatible with pre-tenancy journals — no record carries a
// tenant field — which is exactly why a PR-7-era data directory
// replays as the default tenant with zero migration.
func TestDefaultJournalHasNoTenantStamps(t *testing.T) {
	d, model := trainedFixture(t)
	dir := t.TempDir()
	rig := openDurable(t, dir, d, cloneModel(t, model), Options{Sync: SyncAlways()})
	rig.resolveOneTask(t, "legacy era question about trees", []float64{4, 2})
	pre := cloneModel(t, rig.cm.Unwrap())
	if err := rig.db.Close(); err != nil {
		t.Fatal(err)
	}
	if b := journalBytes(t, dir); bytes.Contains(b, []byte(`"tenant"`)) {
		t.Fatal("default-tenant journal carries tenant stamps; pre-tenancy byte-compatibility broken")
	}

	// A store explicitly stamped "default" replays the un-stamped
	// journal unchanged — the upgrade path for pre-tenant directories.
	rec, err := openTenantDurable(t, dir, DefaultTenant, d, nil, Options{Sync: SyncAlways()})
	if err != nil {
		t.Fatalf("pre-tenant journal refused by default-stamped store: %v", err)
	}
	defer rec.db.Close()
	if got := rec.db.Store().tenant; got != DefaultTenant {
		t.Errorf("recovered store tenant = %q", got)
	}
	assertModelsEqual(t, pre, rec.cm.Unwrap())
	if n := rec.db.Store().NumTasks(); n != 1 {
		t.Errorf("recovered %d tasks, want 1", n)
	}
}

// TestTenantJournalStampedAndCrossTenantRefused: a named tenant's
// journal records carry the namespace, replay into the same tenant,
// and are refused — loudly, as corruption — by a store stamped with a
// different tenant. Mounting tenant A's directory as tenant B can
// therefore never silently mix crowds.
func TestTenantJournalStampedAndCrossTenantRefused(t *testing.T) {
	d, model := trainedFixture(t)
	dir := t.TempDir()
	rig, err := openTenantDurable(t, dir, "acme", d, cloneModel(t, model), Options{Sync: SyncAlways()})
	if err != nil {
		t.Fatal(err)
	}
	rig.resolveOneTask(t, "acme only question about indexes", []float64{5, 1})
	pre := cloneModel(t, rig.cm.Unwrap())
	if err := rig.db.Close(); err != nil {
		t.Fatal(err)
	}
	if b := journalBytes(t, dir); !bytes.Contains(b, []byte(`"tenant":"acme"`)) {
		t.Fatal("acme journal records carry no tenant stamp")
	}

	// Same tenant: replays cleanly.
	rec, err := openTenantDurable(t, dir, "acme", d, nil, Options{Sync: SyncAlways()})
	if err != nil {
		t.Fatal(err)
	}
	assertModelsEqual(t, pre, rec.cm.Unwrap())
	if err := rec.db.Close(); err != nil {
		t.Fatal(err)
	}

	// Wrong tenant: recovery refuses the foreign records.
	if _, err := openTenantDurable(t, dir, "globex", d, nil, Options{Sync: SyncAlways()}); err == nil {
		t.Fatal("tenant globex replayed acme's journal")
	} else if !strings.Contains(err.Error(), "tenant") {
		t.Fatalf("cross-tenant refusal does not name the tenant: %v", err)
	}
}
