package crowddb

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"crowdselect/internal/core"
	"crowdselect/internal/faultfs"
	"crowdselect/internal/linalg"
)

// Digest returns the hex SHA-256 of the store's canonical snapshot
// bytes (exactly what Snapshot writes): worker rows, task rows, next
// id and the applied-forward set, all in sorted order.
func (s *Store) Digest() (string, error) {
	h := sha256.New()
	if err := s.Snapshot(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// cutDigest computes a fresh digest cut over a rig — a new cutter per
// call, so nothing comes from a cache.
func cutDigest(t *testing.T, rig *durableRig) DigestCut {
	t.Helper()
	cut, err := NewDigestCutter(rig.db, rig.mgr).Cut()
	if err != nil {
		t.Fatal(err)
	}
	return cut
}

// TestDigestDeterministicAcrossReplayAndCompaction is the determinism
// property at the heart of anti-entropy (DESIGN §14): the digest of a
// state reached live must equal the digest of the same state reached
// by journal replay after a restart, and compaction — which rewrites
// every at-rest file — must not change it either.
func TestDigestDeterministicAcrossReplayAndCompaction(t *testing.T) {
	d, model := trainedFixture(t)
	dir := t.TempDir()
	rig := openDurable(t, dir, d, model, Options{Sync: SyncAlways()})
	rig.resolveOneTask(t, "classify this photograph of a cat", []float64{4, 2})
	rig.resolveOneTask(t, "translate this sentence into french", []float64{5, 3})
	rig.resolveOneTask(t, "is this review positive or negative", []float64{1, 4})

	live := cutDigest(t, rig)
	if live.Digest == "" || live.Model == "" || live.Store == "" {
		t.Fatalf("digest cut has empty components: %+v", live)
	}
	if live.Tenant != DefaultTenant {
		t.Fatalf("cut tenant = %q, want %q", live.Tenant, DefaultTenant)
	}
	if again := cutDigest(t, rig); again != live {
		t.Fatalf("recomputed cut differs:\n%+v\n%+v", again, live)
	}

	// Compaction rewrites the files but not the state.
	if err := rig.db.Compact(); err != nil {
		t.Fatal(err)
	}
	if post := cutDigest(t, rig); post != live {
		t.Fatalf("digest changed across compaction:\n%+v\n%+v", post, live)
	}

	// Interleave more feedback, remember the head cut, restart, replay.
	rig.resolveOneTask(t, "extract the city names from this text", []float64{3, 5})
	want := cutDigest(t, rig)
	if want.Digest == live.Digest {
		t.Fatal("digest did not change after new feedback")
	}
	if err := rig.db.Close(); err != nil {
		t.Fatal(err)
	}

	rig2 := openDurable(t, dir, d, nil, Options{Sync: SyncAlways()})
	defer rig2.db.Close()
	if got := cutDigest(t, rig2); got != want {
		t.Fatalf("replayed digest differs from live digest:\n%+v\n%+v", got, want)
	}
}

// TestDigestTenantBinding: the combined digest is bound to the tenant
// namespace — identical model and store bytes under different tenants
// must not collide.
func TestDigestTenantBinding(t *testing.T) {
	if combineDigest("blue", "m", "s") == combineDigest("green", "m", "s") {
		t.Fatal("combined digest ignores the tenant namespace")
	}
	if combineDigest("blue", "m", "s") == combineDigest("blue", "m2", "s") {
		t.Fatal("combined digest ignores the model component")
	}
	if combineDigest("blue", "m", "s") == combineDigest("blue", "m", "s2") {
		t.Fatal("combined digest ignores the store component")
	}
}

// TestDigestCutterCache: repeated cuts at an unchanged position are
// served from cache, and the cache drops the moment the position
// moves.
func TestDigestCutterCache(t *testing.T) {
	d, model := trainedFixture(t)
	rig := openDurable(t, t.TempDir(), d, model, Options{Sync: SyncAlways()})
	defer rig.db.Close()
	rig.resolveOneTask(t, "first task", []float64{4, 2})

	cutter := NewDigestCutter(rig.db, rig.mgr)
	first, err := cutter.Cut()
	if err != nil {
		t.Fatal(err)
	}
	second, err := cutter.Cut()
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("cached cut differs: %+v vs %+v", first, second)
	}

	rig.resolveOneTask(t, "second task", []float64{5, 1})
	moved, err := cutter.Cut()
	if err != nil {
		t.Fatal(err)
	}
	if moved.Seq == first.Seq || moved.Digest == first.Digest {
		t.Fatalf("cut did not move with the journal: %+v vs %+v", moved, first)
	}
}

// TestReplicatedDigestMatchesPrimary: a caught-up follower computes
// the same digest the primary does — the replication leg of the
// determinism property.
func TestReplicatedDigestMatchesPrimary(t *testing.T) {
	rig, _, ts := replPrimary(t)
	rig.resolveOneTask(t, "classify this photograph of a cat", []float64{4, 2})
	rep := startTestReplica(t, ts.URL, t.TempDir())
	defer rep.Close()
	rig.resolveOneTask(t, "translate this sentence into french", []float64{5, 3})
	waitCaughtUp(t, rig, rep)

	want := cutDigest(t, rig)
	got, err := rep.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("follower digest differs from primary at the same position:\nprimary %+v\nfollower %+v", want, got)
	}
}

// TestScrubCleanPass: a healthy directory scrubs clean and the
// counters move.
func TestScrubCleanPass(t *testing.T) {
	d, model := trainedFixture(t)
	rig := openDurable(t, t.TempDir(), d, model, Options{Sync: SyncAlways()})
	defer rig.db.Close()
	rig.resolveOneTask(t, "a committed task", []float64{4, 2})

	if err := rig.db.Scrub(); err != nil {
		t.Fatalf("clean scrub failed: %v", err)
	}
	st := rig.db.ScrubStats()
	if st.ScrubPasses != 1 || st.ScrubFailed || st.ScrubFailures != 0 {
		t.Fatalf("clean pass stats = %+v", st)
	}
	if st.ScrubFiles == 0 || st.ScrubRecords == 0 {
		t.Fatalf("clean pass verified nothing: %+v", st)
	}
}

// TestScrubDetectsJournalCorruption: a bit flipped inside a committed
// journal record (not the torn tail, which is a live append) must flip
// the node to degraded read-only with the typed scrub reason.
func TestScrubDetectsJournalCorruption(t *testing.T) {
	d, model := trainedFixture(t)
	rig := openDurable(t, t.TempDir(), d, model, Options{Sync: SyncAlways()})
	defer rig.db.Close()
	rig.resolveOneTask(t, "first committed task", []float64{4, 2})
	rig.resolveOneTask(t, "second committed task", []float64{5, 3})

	// Flip one payload bit of the FIRST record: mid-file damage, with
	// valid records after it.
	jpath := rig.db.journalPath(rig.db.Generation())
	if err := faultfs.FlipBit(jpath, int64(recordHeaderSize)+2, 3); err != nil {
		t.Fatal(err)
	}

	err := rig.db.Scrub()
	var se *ScrubError
	if !errors.As(err, &se) {
		t.Fatalf("scrub over corrupt journal = %v, want *ScrubError", err)
	}
	if se.Path != jpath {
		t.Fatalf("scrub blamed %s, want %s", se.Path, jpath)
	}
	if !rig.db.Degraded() {
		t.Fatal("scrub found corruption but the node is not degraded")
	}
	st := rig.db.ScrubStats()
	if !st.ScrubFailed || st.ScrubFailures != 1 || st.LastError == "" {
		t.Fatalf("failed pass stats = %+v", st)
	}
	// Mutations are sealed; the next resolve must refuse.
	if _, err := rig.mgr.SubmitTask(t.Context(), "refused while degraded", 2); !errors.Is(err, ErrDegraded) {
		t.Fatalf("mutation while scrub-degraded = %v, want ErrDegraded", err)
	}
}

// TestScrubTornTailTolerated: a checksum mismatch on the FINAL record
// is indistinguishable from a crash mid-append and must not degrade
// the node.
func TestScrubTornTailTolerated(t *testing.T) {
	d, model := trainedFixture(t)
	rig := openDurable(t, t.TempDir(), d, model, Options{Sync: SyncAlways()})
	defer rig.db.Close()
	rig.resolveOneTask(t, "one committed task", []float64{4, 2})

	jpath := rig.db.journalPath(rig.db.Generation())
	fi, err := os.Stat(jpath)
	if err != nil {
		t.Fatal(err)
	}
	// Damage the last byte: the tail record's checksum breaks, but the
	// mismatch sits exactly at EOF — a torn append.
	if err := faultfs.FlipBit(jpath, fi.Size()-1, 0); err != nil {
		t.Fatal(err)
	}
	if err := rig.db.Scrub(); err != nil {
		t.Fatalf("scrub treated a torn tail as corruption: %v", err)
	}
	if rig.db.Degraded() {
		t.Fatal("torn tail degraded the node")
	}
}

// TestScrubDetectsModelCheckpointCorruptionAndHeals: damage to the
// at-rest model checkpoint is caught against the sidecar's digest
// stamp, the node degrades, and the existing probe loop heals it by
// cutting a fresh generation from the intact in-memory state.
func TestScrubDetectsModelCheckpointCorruptionAndHeals(t *testing.T) {
	d, model := trainedFixture(t)
	rig := openDurable(t, t.TempDir(), d, model, Options{Sync: SyncAlways()})
	defer rig.db.Close()
	rig.resolveOneTask(t, "a committed task", []float64{4, 2})
	if err := rig.db.Compact(); err != nil { // stamp digests into the sidecar
		t.Fatal(err)
	}
	before := cutDigest(t, rig)

	gen := rig.db.Generation()
	mpath := filepath.Join(rig.db.dir, fmt.Sprintf(modelPattern, gen))
	// Swap one byte inside the checkpoint. The damaged file may still
	// parse — only the digest stamp catches it.
	if err := faultfs.OverwriteByte(mpath, 100, 'X'); err != nil {
		t.Fatal(err)
	}

	err := rig.db.Scrub()
	var se *ScrubError
	if !errors.As(err, &se) {
		t.Fatalf("scrub over corrupt model = %v, want *ScrubError", err)
	}
	if se.Path != mpath {
		t.Fatalf("scrub blamed %s, want %s", se.Path, mpath)
	}
	if !rig.db.Degraded() {
		t.Fatal("corrupt checkpoint did not degrade the node")
	}

	// The probe loop heals: a fresh generation is cut from memory, the
	// node unseals, and the next scrub passes with the same digest.
	waitUntil(t, "probe loop healed the corruption", func() bool { return !rig.db.Degraded() })
	if rig.db.Generation() <= gen {
		t.Fatalf("healing did not cut a new generation (still %d)", rig.db.Generation())
	}
	if err := rig.db.Scrub(); err != nil {
		t.Fatalf("scrub after heal: %v", err)
	}
	if rig.db.ScrubStats().ScrubFailed {
		t.Fatal("scrub-failed flag not cleared by the clean pass")
	}
	if after := cutDigest(t, rig); after != before {
		t.Fatalf("state digest changed across corruption+heal:\n%+v\n%+v", after, before)
	}
}

// TestScrubDetectsSnapshotCorruption: same for the store snapshot.
func TestScrubDetectsSnapshotCorruption(t *testing.T) {
	d, model := trainedFixture(t)
	rig := openDurable(t, t.TempDir(), d, model, Options{Sync: SyncAlways()})
	defer rig.db.Close()
	rig.resolveOneTask(t, "a committed task", []float64{4, 2})
	if err := rig.db.Compact(); err != nil {
		t.Fatal(err)
	}
	spath := filepath.Join(rig.db.dir, fmt.Sprintf(snapshotPattern, rig.db.Generation()))
	if err := faultfs.FlipBit(spath, 42, 5); err != nil {
		t.Fatal(err)
	}
	var se *ScrubError
	if err := rig.db.Scrub(); !errors.As(err, &se) || se.Path != spath {
		t.Fatalf("scrub over corrupt snapshot = %v, want *ScrubError on %s", err, spath)
	}
}

// TestScrubDetectsMissingFilesAndHeals: a live generation that lost a
// file it must hold at rest — the model checkpoint its sidecar stamps,
// its snapshot, its journal — fails the scrub naming that file and
// degrades the node, and the probe loop heals it with a new generation
// cut from memory.
func TestScrubDetectsMissingFilesAndHeals(t *testing.T) {
	for name, pattern := range map[string]string{"model": modelPattern, "snapshot": snapshotPattern, "journal": journalPattern} {
		t.Run(name, func(t *testing.T) {
			d, model := trainedFixture(t)
			rig := openDurable(t, t.TempDir(), d, model, Options{Sync: SyncAlways()})
			defer rig.db.Close()
			rig.resolveOneTask(t, "a committed task", []float64{4, 2})
			if err := rig.db.Compact(); err != nil {
				t.Fatal(err)
			}
			before := cutDigest(t, rig)
			gen := rig.db.Generation()
			path := filepath.Join(rig.db.dir, fmt.Sprintf(pattern, gen))
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}

			var se *ScrubError
			if err := rig.db.Scrub(); !errors.As(err, &se) || se.Path != path {
				t.Fatalf("scrub with %s gone = %v, want *ScrubError naming it", path, err)
			}
			if !rig.db.Degraded() {
				t.Fatal("a missing file did not degrade the node")
			}
			waitUntil(t, "probe loop healed the missing file", func() bool { return !rig.db.Degraded() })
			if rig.db.Generation() <= gen {
				t.Fatalf("healing did not cut a new generation (still %d)", rig.db.Generation())
			}
			if err := rig.db.Scrub(); err != nil {
				t.Fatalf("scrub after heal: %v", err)
			}
			if after := cutDigest(t, rig); after != before {
				t.Fatalf("state digest changed across the loss and the heal:\n%+v\n%+v", after, before)
			}
		})
	}
}

// TestBootRefusesCorruptModelCheckpoint: when the newest generation's
// model checkpoint is corrupt, the boot refuses naming it. The older
// generation a crash left behind before its sweep is not a fallback:
// booting it would drop the task acked in the newer one.
func TestBootRefusesCorruptModelCheckpoint(t *testing.T) {
	d, model := trainedFixture(t)
	dir := t.TempDir()
	rig := openDurable(t, dir, d, model, Options{Sync: SyncAlways()})
	rig.resolveOneTask(t, "task in generation one", []float64{4, 2})

	// Preserve generation 1's files, then compact past it (simulating
	// the sweep never running because the process died).
	gen1 := rig.db.Generation()
	saved := map[string][]byte{}
	for _, pat := range []string{snapshotPattern, modelPattern, journalPattern, replPattern} {
		p := filepath.Join(dir, fmt.Sprintf(pat, gen1))
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
		saved[p] = data
	}
	if err := rig.db.Compact(); err != nil {
		t.Fatal(err)
	}
	gen2 := rig.db.Generation()
	rig.resolveOneTask(t, "task in generation two", []float64{5, 3})
	if err := rig.db.Close(); err != nil {
		t.Fatal(err)
	}
	for p, data := range saved {
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mpath := filepath.Join(dir, fmt.Sprintf(modelPattern, gen2))
	if err := faultfs.OverwriteByte(mpath, 0, 'X'); err != nil {
		t.Fatal(err)
	}
	assertBootRefused(t, dir, mpath)
}

// flipModelDigit changes the first posterior digit of an at-rest model
// checkpoint, keeping the JSON parseable: only the digest stamp can
// tell the file is not the one written.
func flipModelDigit(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, []byte(`"lambda_w":[[`))
	if at < 0 {
		t.Fatalf("no lambda_w posteriors in %s", path)
	}
	for i := at; i < len(data); i++ {
		if c := data[i]; c >= '0' && c <= '8' {
			if err := faultfs.OverwriteByte(path, int64(i), c+1); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("no posterior digit in %s", path)
}

// TestBootRefusesParseableModelRot: a stamped model checkpoint whose
// bytes changed but still parse refuses the boot — the same finding
// the scrubber reports on the running node.
func TestBootRefusesParseableModelRot(t *testing.T) {
	d, model := trainedFixture(t)
	dir := t.TempDir()
	rig := openDurable(t, dir, d, model, Options{Sync: SyncAlways()})
	rig.resolveOneTask(t, "a committed task", []float64{4, 2})
	if err := rig.db.Compact(); err != nil {
		t.Fatal(err)
	}
	mpath := filepath.Join(dir, fmt.Sprintf(modelPattern, rig.db.Generation()))
	if err := rig.db.Close(); err != nil {
		t.Fatal(err)
	}
	flipModelDigit(t, mpath)
	rotten, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.LoadModel(bytes.NewReader(rotten)); err != nil {
		t.Fatalf("the rot must still parse: %v", err)
	}
	assertBootRefused(t, dir, mpath)
}

// TestBootRefusesRottenSidecarOfSealedNode: a deposed node's sidecar
// carries the epoch that seals it. Read as absent, the node would boot
// unsealed under a new history; so an unparseable sidecar refuses the
// boot instead.
func TestBootRefusesRottenSidecarOfSealedNode(t *testing.T) {
	d, model := trainedFixture(t)
	dir := t.TempDir()
	rig := openDurable(t, dir, d, model, Options{Sync: SyncAlways()})
	if err := rig.db.ObserveFencingEpoch(7); err != nil {
		t.Fatal(err)
	}
	if rig.db.FencingObserved() <= rig.db.FencingEpoch() {
		t.Fatal("observing epoch 7 did not seal the node")
	}
	if err := rig.db.Close(); err != nil {
		t.Fatal(err)
	}
	sidecar := filepath.Join(dir, fmt.Sprintf(replPattern, uint64(1)))
	if err := faultfs.OverwriteByte(sidecar, 0, 'X'); err != nil {
		t.Fatal(err)
	}
	assertBootRefused(t, dir, sidecar)
}

// TestReplicaBootstrapsPastRottenNewestGeneration: a follower whose
// newest generation fails verification re-bootstraps from its primary
// at start-up. The bootstrap lands as the next generation, so the
// rotten files stay until the next compaction sweeps them, and the
// follower serves the primary's state exactly.
func TestReplicaBootstrapsPastRottenNewestGeneration(t *testing.T) {
	rig, _, ts := replPrimary(t)
	rig.resolveOneTask(t, "acked before the follower stops", []float64{4, 2})
	dir := t.TempDir()
	rep := startTestReplica(t, ts.URL, dir)
	waitCaughtUp(t, rig, rep)
	gen := rep.DB().Generation()
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}
	rotten := filepath.Join(dir, fmt.Sprintf(modelPattern, gen))
	flipModelDigit(t, rotten)
	rig.resolveOneTask(t, "acked while the follower is down", []float64{5, 3})

	rep = startTestReplica(t, ts.URL, dir)
	defer rep.Close()
	if got := rep.DB().Generation(); got != gen+1 {
		t.Fatalf("follower came up at generation %d, want %d", got, gen+1)
	}
	if rep.Status().Bootstraps < 1 {
		t.Fatalf("follower did not bootstrap: %+v", rep.Status())
	}
	if _, err := os.Stat(rotten); err != nil {
		t.Fatalf("the rotten generation was deleted before the next compaction: %v", err)
	}
	waitCaughtUp(t, rig, rep)
	assertModelsEqual(t, rig.cm.Unwrap(), rep.cm.Unwrap())
	if got, want := rep.DB().Store().NumTasks(), rig.db.Store().NumTasks(); got != want {
		t.Fatalf("follower holds %d tasks, primary %d", got, want)
	}
	want := cutDigest(t, rig)
	if got, err := rep.Digest(); err != nil || got != want {
		t.Fatalf("follower digest %+v (err %v), primary %+v", got, err, want)
	}
	if err := rep.DB().Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(rotten); !os.IsNotExist(err) {
		t.Fatalf("compaction left the rotten generation behind: %v", err)
	}
}

// TestDigestEndpoint drives GET /api/v1/digest over HTTP: 404 without
// a provider, the cut JSON with one, and tenant scoping.
func TestDigestEndpoint(t *testing.T) {
	d, model := trainedFixture(t)
	rig := openDurable(t, t.TempDir(), d, model, Options{Sync: SyncAlways()})
	defer rig.db.Close()
	rig.resolveOneTask(t, "a committed task", []float64{4, 2})

	bare := httptest.NewServer(NewServer(rig.mgr))
	defer bare.Close()

	resp, err := http.Get(bare.URL + "/api/v1/digest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("digest without provider got %s, want 404", resp.Status)
	}

	// A tenant without its own provider answers 404 on its scoped path;
	// the default tenant's provider must not leak across namespaces.
	d2, model2 := trainedFixture(t)
	store2 := NewStore()
	store2.SetTenant("blue")
	mgr2, err := NewManager(store2, d2.Vocab, core.NewConcurrentModel(model2), 2)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newNode(t, TenantConfig{Manager: rig.mgr, Digest: NewDigestCutter(rig.db, rig.mgr).Func()},
		NodeConfig{Tenants: []TenantConfig{{Name: "blue", Manager: mgr2}}}))
	defer ts.Close()
	resp, err = http.Get(ts.URL + "/api/v1/digest")
	if err != nil {
		t.Fatal(err)
	}
	var cut DigestCut
	if err := json.NewDecoder(resp.Body).Decode(&cut); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("digest got %s, want 200", resp.Status)
	}
	if want := cutDigest(t, rig); cut != want {
		t.Fatalf("endpoint cut %+v, want %+v", cut, want)
	}

	resp, err = http.Get(ts.URL + "/api/v1/t/blue/digest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("tenant digest without provider got %s, want 404", resp.Status)
	}
}

// TestReadyzAndMetricsCarryIntegrity: the integrity section appears in
// both payloads once wired, with the scrub counters inside.
func TestReadyzAndMetricsCarryIntegrity(t *testing.T) {
	d, model := trainedFixture(t)
	rig := openDurable(t, t.TempDir(), d, model, Options{Sync: SyncAlways()})
	defer rig.db.Close()
	rig.resolveOneTask(t, "a committed task", []float64{4, 2})
	if err := rig.db.Scrub(); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(newNode(t, TenantConfig{Manager: rig.mgr}, NodeConfig{Integrity: rig.db.ScrubStats}))
	defer ts.Close()

	var ready ReadyzResponse
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ready.Integrity == nil || ready.Integrity.ScrubPasses != 1 {
		t.Fatalf("readyz integrity = %+v, want one clean pass", ready.Integrity)
	}

	var snap MetricsSnapshot
	resp, err = http.Get(ts.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Integrity == nil || snap.Integrity.ScrubPasses != 1 || snap.Integrity.ScrubFailed {
		t.Fatalf("metrics integrity = %+v, want one clean pass", snap.Integrity)
	}
}

// tamperReplicaModel folds made-up feedback into one posterior on the
// follower outside the replicated log — the "silently diverged state"
// the anti-entropy protocol exists to catch. It writes through the
// fold, which keeps the skill index exact (a write to LambdaW behind it
// would leave the index stale), and through Quiesce so it cannot race
// the apply path or a digest cut.
func tamperReplicaModel(t *testing.T, rep *Replica) {
	t.Helper()
	err := rep.mgr.Quiesce(func() error {
		k := rep.cm.Unwrap().K
		cat := core.TaskCategory{Lambda: make(linalg.Vector, k), Nu2: make(linalg.Vector, k)}
		cat.Lambda[0] = 1
		return rep.cm.UpdateWorkerSkill(0, []core.TaskCategory{cat}, []float64{4})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHeartbeatDigestDetectsDivergenceAndRepairs is the anti-entropy
// drill at package level: a follower whose model silently rots is
// quarantined within one heartbeat of reaching the primary's position,
// refuses promotion with the typed 409, forces a re-bootstrap on its
// next dial, and converges back byte-identical — divergence counted,
// repair counted, quarantine lifted.
func TestHeartbeatDigestDetectsDivergenceAndRepairs(t *testing.T) {
	rig, _, ts := replPrimary(t)
	rig.resolveOneTask(t, "seed task before the follower joins", []float64{4, 2})
	rep := startTestReplica(t, ts.URL, t.TempDir())
	defer rep.Close()
	waitCaughtUp(t, rig, rep)

	tamperReplicaModel(t, rep)

	// Advance the log so the follower computes a fresh cut over the
	// rotted state: the next heartbeat at matching positions catches it.
	rig.resolveOneTask(t, "the record that exposes the rot", []float64{5, 3})
	waitUntil(t, "divergence detected", func() bool { return rep.Status().Divergences >= 1 })

	// While quarantined, promotion is refused — locally and over HTTP.
	if rep.diverged.Load() {
		if err := rep.Promote(t.Context()); !errors.Is(err, ErrReplicaDiverged) {
			t.Fatalf("promote while diverged = %v, want ErrReplicaDiverged", err)
		}
		rts := httptest.NewServer(newNode(t, TenantConfig{Manager: rep.mgr}, NodeConfig{
			Role: RoleReplica, Replication: rep.Status, Promoter: rep.Promote,
		}))
		resp, err := http.Post(rts.URL+"/api/v1/replication/promote", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		var env ErrorEnvelope
		merr := json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		rts.Close()
		// The repair may have landed between the check and the POST; a
		// still-diverged node must answer the typed 409.
		if resp.StatusCode == http.StatusConflict {
			if merr != nil || env.Error.Code != "replica_diverged" {
				t.Fatalf("diverged promote envelope = %+v (err %v), want code %s", env, merr, "replica_diverged")
			}
		} else if !rep.Status().Diverged && resp.StatusCode == http.StatusOK {
			// repaired before the request landed — acceptable
		} else {
			t.Fatalf("promote while diverged got %s", resp.Status)
		}
	}

	// The forced re-bootstrap repairs it.
	waitUntil(t, "divergence repaired", func() bool {
		st := rep.Status()
		return st.Repairs >= 1 && !st.Diverged
	})
	waitCaughtUp(t, rig, rep)
	assertModelsEqual(t, rig.cm.Unwrap(), rep.cm.Unwrap())

	want := cutDigest(t, rig)
	got, err := rep.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("post-repair digest differs:\nprimary %+v\nfollower %+v", want, got)
	}

	// No acked mutation was lost across the quarantine/repair cycle.
	if got, want := rep.DB().Store().NumTasks(), rig.db.Store().NumTasks(); got != want {
		t.Fatalf("follower holds %d tasks after repair, primary %d", got, want)
	}
	if rep.Status().Divergences < 1 || rep.Status().Repairs < 1 {
		t.Fatalf("divergence counters never moved: %+v", rep.Status())
	}
}

// TestHeartbeatDigestIgnoredWhileLagging: a follower still behind the
// primary's head must NOT compare digests — its state legitimately
// differs until it catches up.
func TestHeartbeatDigestIgnoredWhileLagging(t *testing.T) {
	rig, _, ts := replPrimary(t)
	rep := startTestReplica(t, ts.URL, t.TempDir())
	defer rep.Close()
	waitCaughtUp(t, rig, rep)

	// Push records and immediately check across several heartbeats that
	// catching up never counts as a divergence.
	for i := 0; i < 3; i++ {
		rig.resolveOneTask(t, fmt.Sprintf("burst task %d", i), []float64{4, 2})
	}
	waitCaughtUp(t, rig, rep)
	for i := 0; i < 3; i++ { // a few heartbeats at matching positions
		since := testClock(t).Now()
		waitUntil(t, "a heartbeat", func() bool {
			rep.mu.Lock()
			defer rep.mu.Unlock()
			return rep.lastContact.After(since)
		})
	}
	if st := rep.Status(); st.Divergences != 0 || st.Diverged {
		t.Fatalf("healthy catch-up counted as divergence: %+v", st)
	}
}
