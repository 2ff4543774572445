package crowddb

import (
	"path/filepath"
	"strings"
	"testing"

	"crowdselect/internal/core"
	"crowdselect/internal/corpus"
)

// TestOpenTenantRefuses: the constructor refuses, before anything is
// served, a slice it cannot open whole. A refused fresh directory stays
// fresh: opening it again with a seed writes its generation 1.
func TestOpenTenantRefuses(t *testing.T) {
	d, model := trainedFixture(t)
	seed := func() (*corpus.Dataset, *core.Model, error) { return d, model, nil }
	fresh := filepath.Join(t.TempDir(), "fresh")
	for name, tc := range map[string]struct {
		cfg  SliceConfig
		want string
	}{
		"fresh directory without a seed": {SliceConfig{Dir: fresh, CrowdK: 2}, "a fresh slice needs a seed"},
		"in memory without a seed":       {SliceConfig{CrowdK: 2}, "a fresh slice needs a seed"},
		"replica without a directory":    {SliceConfig{ReplicaOf: "http://127.0.0.1:1", CrowdK: 2, Seed: seed}, "a replica needs a data directory"},
		"invalid tenant name":            {SliceConfig{Name: "Has Space", CrowdK: 2, Seed: seed}, `invalid tenant name "Has Space"`},
	} {
		t.Run(name, func(t *testing.T) {
			sl, err := OpenTenant(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("OpenTenant = (%v, %v), want an error containing %q", sl, err, tc.want)
			}
		})
	}

	sl, err := OpenTenant(SliceConfig{Dir: fresh, CrowdK: 2, DB: Options{Clock: testClock(t)}, Seed: seed})
	if err != nil {
		t.Fatalf("reopening the refused directory with a seed: %v", err)
	}
	defer sl.Close()
	if got := sl.DB.Generation(); got != 1 {
		t.Fatalf("seeded directory at generation %d, want 1", got)
	}
	if got, want := sl.Manager.Store().NumWorkers(), len(d.Workers); got != want {
		t.Fatalf("seeded slice has %d workers, want the seed's %d", got, want)
	}
}
