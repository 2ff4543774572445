package crowddb

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// replPrimary boots a durable primary (OpenTenant persists its
// dataset) with its replication source served over httptest, ready for
// followers.
func replPrimary(t *testing.T) (*durableRig, *TransferSource, *httptest.Server) {
	t.Helper()
	d, model := trainedFixture(t)
	rig := openDurable(t, t.TempDir(), d, model, Options{Sync: SyncAlways()})
	t.Cleanup(func() { rig.db.Close() })
	src := NewTransferSource(rig.db, NewFence(rig.db), NewDigestCutter(rig.db, rig.mgr).Func(), TransferSourceOptions{})
	ts := httptest.NewServer(src.Stream())
	t.Cleanup(ts.Close)
	return rig, src, ts
}

// openFollower opens a follower slice through OpenTenant, at crowd
// size 2, and returns its stream.
func openFollower(cfg SliceConfig) (*Replica, error) {
	cfg.CrowdK = 2
	sl, err := OpenTenant(cfg)
	if err != nil {
		return nil, err
	}
	return sl.Replica, nil
}

func startTestReplica(t *testing.T, primary, dir string) *Replica {
	t.Helper()
	rep, err := openFollower(SliceConfig{ReplicaOf: primary, Dir: dir, DB: Options{Sync: SyncAlways(), Clock: testClock(t)}})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// readSidecar decodes generation gen's replication sidecar in dir.
func readSidecar(t *testing.T, dir string, gen uint64) replSidecar {
	t.Helper()
	var sc replSidecar
	b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf(replPattern, gen)))
	if err == nil {
		err = json.Unmarshal(b, &sc)
	}
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// killPrimary is the primary's crash, as seen from a follower: live
// stream connections are severed before the listener shuts, because
// httptest's Close waits out in-flight handlers and a replication
// stream only ends when its connection does.
func killPrimary(ts *httptest.Server) {
	ts.CloseClientConnections()
	ts.Close()
}

// waitCaughtUp blocks until the replica's applied position equals the
// primary's committed head.
func waitCaughtUp(t *testing.T, rig *durableRig, rep *Replica) {
	t.Helper()
	waitUntil(t, "replica caught up", func() bool {
		pseq := rig.db.ReplicationHead()
		// Status().AppliedSeq advances only after a record's side
		// effects (model updates included) finish, so tests that
		// inspect the model after this wait are race-free.
		return rep.Status().AppliedSeq == pseq
	})
}

func TestReplicationFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte(`{"a":1}`), {}, bytes.Repeat([]byte("x"), 4096)}
	types := []byte{frameHello, frameRecord, frameSnapshot}
	for i, p := range payloads {
		if err := writeReplFrame(&buf, types[i], p); err != nil {
			t.Fatal(err)
		}
	}
	fr := &frameReader{r: bytes.NewReader(buf.Bytes())}
	for i, want := range payloads {
		typ, payload, err := fr.next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != types[i] || !bytes.Equal(payload, want) {
			t.Fatalf("frame %d: type %d payload %d bytes, want type %d %d bytes", i, typ, len(payload), types[i], len(want))
		}
	}
	if fr.off != int64(buf.Len()) || fr.frames != len(payloads) {
		t.Fatalf("reader at offset %d after %d frames, want %d after %d", fr.off, fr.frames, buf.Len(), len(payloads))
	}
	if _, _, err := fr.next(); err != io.EOF {
		t.Fatalf("tail read err = %v, want io.EOF", err)
	}
}

func TestReplicationFrameDecoderRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := writeReplFrame(&buf, frameRecord, []byte(`{"seq":1}`)); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()

	read := func(b []byte) error {
		_, _, err := (&frameReader{r: bytes.NewReader(b)}).next()
		return err
	}
	flip := append([]byte(nil), frame...)
	flip[len(flip)-1] ^= 0xff
	var ce *CorruptError
	if err := read(flip); !errors.As(err, &ce) {
		t.Fatalf("corrupt payload err = %v, want *CorruptError", err)
	}

	// A truncated frame is a *CorruptError too: unlike the journal's torn
	// tail, a cut TCP stream must surface as an error so the follower
	// reconnects rather than treating the cut as a clean end.
	if err := read(frame[:len(frame)-3]); !errors.As(err, &ce) {
		t.Fatalf("truncated frame err = %v, want *CorruptError", err)
	}

	oversize := []byte{frameRecord, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	if err := read(oversize); !errors.As(err, &ce) {
		t.Fatalf("oversize frame err = %v, want *CorruptError", err)
	}
}

func TestReplicaBootstrapAndLiveStream(t *testing.T) {
	rig, src, ts := replPrimary(t)
	rig.resolveOneTask(t, "classify this photograph of a cat", []float64{4, 2})

	dir := t.TempDir()
	rep := startTestReplica(t, ts.URL, dir)
	defer rep.Close()

	// A fresh follower's generation 1 is the primary's generation, byte
	// for byte, under the sidecar a restore of a full backup cut at the
	// same position writes.
	gen := rig.db.Generation()
	for _, name := range []string{datasetName, fmt.Sprintf(modelPattern, gen), fmt.Sprintf(snapshotPattern, gen)} {
		want, err := os.ReadFile(filepath.Join(rig.db.dir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, strings.Replace(name, fmt.Sprintf("%08d", gen), "00000001", 1)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("follower's %s differs from the primary's generation %d (%d vs %d bytes)", name, gen, len(got), len(want))
		}
	}
	var archive bytes.Buffer
	if _, err := fetchBackup(t, serveTransfers(t, src).URL+"/segment", &archive, -1, ""); err != nil {
		t.Fatal(err)
	}
	restored := filepath.Join(t.TempDir(), "restored")
	if _, err := RestoreBackup(restored, []string{writeArchive(t, archive.Bytes())}, RestoreOptions{}); err != nil {
		t.Fatal(err)
	}
	if got, want := readSidecar(t, dir, 1), readSidecar(t, restored, 1); got != want {
		t.Fatalf("follower sidecar %+v, a restore of the primary's full backup writes %+v", got, want)
	}

	// Live records after the bootstrap.
	rig.resolveOneTask(t, "translate this sentence into french", []float64{5, 3})
	rig.resolveOneTask(t, "is this review positive or negative", []float64{1, 4})
	waitCaughtUp(t, rig, rep)

	assertModelsEqual(t, rig.cm.Unwrap(), rep.cm.Unwrap())
	if got, want := rep.DB().Store().NumTasks(), rig.db.Store().NumTasks(); got != want {
		t.Fatalf("replica stores %d tasks, primary %d", got, want)
	}
	if got, err := rep.Digest(); err != nil || got != cutDigest(t, rig) {
		t.Fatalf("follower digest cut %+v (%v), primary %+v", got, err, cutDigest(t, rig))
	}
	if rep.DB().ReplicationHistory() != rig.db.ReplicationHistory() {
		t.Fatalf("replica history %s != primary %s", rep.DB().ReplicationHistory(), rig.db.ReplicationHistory())
	}

	// A caught-up replica ranks identically, element-wise.
	reqs := []TaskSubmission{{Text: "classify this photograph of a dog"}, {Text: "translate this review"}}
	want, err := rig.mgr.RankOnly(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rep.mgr.RankOnly(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("selection rankings diverge:\nprimary %v\nreplica %v", want, got)
	}

	st := rep.Status()
	if st.Role != RoleReplica || !st.Connected || st.Lag == nil || st.Lag.Records != 0 {
		t.Fatalf("unexpected replica status: %+v", st)
	}
	if src.Followers() != 1 {
		t.Fatalf("source reports %d followers, want 1", src.Followers())
	}
}

func TestReplicaRestartResumesFromItsOwnJournal(t *testing.T) {
	rig, _, ts := replPrimary(t)
	dir := t.TempDir()
	rep := startTestReplica(t, ts.URL, dir)
	rig.resolveOneTask(t, "label the sentiment of this tweet", []float64{4, 2})
	waitCaughtUp(t, rig, rep)
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}

	// The primary moves on while the follower is down.
	rig.resolveOneTask(t, "extract the city names from this text", []float64{3, 5})

	rep = startTestReplica(t, ts.URL, dir)
	defer rep.Close()
	waitCaughtUp(t, rig, rep)
	assertModelsEqual(t, rig.cm.Unwrap(), rep.cm.Unwrap())
	if rep.Status().Bootstraps != 0 {
		t.Fatalf("restart re-bootstrapped (%d) instead of resuming", rep.Status().Bootstraps)
	}
}

func TestReplicaRebootstrapsWhenBehindCompaction(t *testing.T) {
	rig, _, ts := replPrimary(t)
	dir := t.TempDir()
	rep := startTestReplica(t, ts.URL, dir)
	rig.resolveOneTask(t, "first task before the follower naps", []float64{4, 2})
	waitCaughtUp(t, rig, rep)
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}

	// Compaction moves the primary's base past the sleeping follower's
	// position: its resume offset now predates the oldest journal.
	rig.resolveOneTask(t, "second task while the follower is down", []float64{5, 1})
	if err := rig.db.Compact(); err != nil {
		t.Fatal(err)
	}
	rig.resolveOneTask(t, "third task lands in the fresh journal", []float64{2, 4})

	rep = startTestReplica(t, ts.URL, dir)
	defer rep.Close()
	waitCaughtUp(t, rig, rep)
	if rep.Status().Bootstraps == 0 {
		t.Fatal("follower behind compaction never re-bootstrapped")
	}
	assertModelsEqual(t, rig.cm.Unwrap(), rep.cm.Unwrap())
	if got, want := rep.DB().Store().NumTasks(), rig.db.Store().NumTasks(); got != want {
		t.Fatalf("replica stores %d tasks, primary %d", got, want)
	}

	// The live re-bootstrap's generation is the primary's, byte for
	// byte, as a fresh follower's is.
	gen, local := rig.db.Generation(), rep.DB().Generation()
	for _, name := range []string{datasetName, fmt.Sprintf(modelPattern, gen), fmt.Sprintf(snapshotPattern, gen)} {
		want, err := os.ReadFile(filepath.Join(rig.db.dir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, strings.Replace(name, fmt.Sprintf("%08d", gen), fmt.Sprintf("%08d", local), 1)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("follower's generation %d %s differs from the primary's generation %d (%d vs %d bytes)", local, name, gen, len(got), len(want))
		}
	}
	rebootServesSameDigest(t, rep, ts, dir)
}

// rebootServesSameDigest closes a caught-up follower, kills its
// primary, and reboots the follower's directory: the rebooted node must
// cut the digest the follower served.
func rebootServesSameDigest(t *testing.T, rep *Replica, ts *httptest.Server, dir string) {
	t.Helper()
	served, err := rep.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}
	killPrimary(ts)
	rep = startTestReplica(t, ts.URL, dir)
	defer rep.Close()
	if got, err := rep.Digest(); err != nil || got != served {
		t.Fatalf("rebooted follower cuts %+v (%v), it served %+v", got, err, served)
	}
}

// TestReplicaRebootstrapRetriesWhenJournalOpenFails: a live
// re-bootstrap whose next journal cannot be opened fails before anything
// moves and is retried. Adopting the primary's state in memory and only
// then failing to switch generations would append the adopted history's
// records to the superseded journal, and the directory would not reboot.
func TestReplicaRebootstrapRetriesWhenJournalOpenFails(t *testing.T) {
	rig, _, ts := replPrimary(t)
	dir := t.TempDir()
	rep := startTestReplica(t, ts.URL, dir)
	rig.resolveOneTask(t, "first task before the follower naps", []float64{4, 2})
	waitCaughtUp(t, rig, rep)
	next := filepath.Join(dir, fmt.Sprintf(journalPattern, rep.DB().Generation()+1))
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}
	rig.resolveOneTask(t, "second task while the follower is down", []float64{5, 1})
	if err := rig.db.Compact(); err != nil {
		t.Fatal(err)
	}
	rig.resolveOneTask(t, "third task lands in the fresh journal", []float64{2, 4})

	var failed atomic.Bool
	rep, err := openFollower(SliceConfig{
		ReplicaOf: ts.URL,
		Dir:       dir,
		DB: Options{Sync: SyncAlways(), Clock: testClock(t), OpenJournalFile: func(path string) (JournalFile, error) {
			if path == next && failed.CompareAndSwap(false, true) {
				return nil, errDiskGone
			}
			return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, rig, rep)
	if !failed.Load() {
		t.Fatal("the re-bootstrap never opened the next journal")
	}
	bootstraps := rep.Status().Bootstraps
	rebootServesSameDigest(t, rep, ts, dir)
	if bootstraps != 1 {
		t.Fatalf("follower counted %d re-bootstraps, want the one that succeeded", bootstraps)
	}
}

func TestReplicaPromote(t *testing.T) {
	rig, _, ts := replPrimary(t)
	rig.resolveOneTask(t, "the last task the old primary commits", []float64{4, 2})
	rep := startTestReplica(t, ts.URL, t.TempDir())
	defer rep.Close()
	waitCaughtUp(t, rig, rep)
	wantModel := rig.cm.Unwrap()

	killPrimary(ts) // primary dies
	if err := rep.Promote(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := rep.Status(); st.Role != RolePrimary {
		t.Fatalf("promoted replica reports role %q", st.Role)
	}
	assertModelsEqual(t, wantModel, rep.cm.Unwrap())

	// The promoted node accepts and journals new mutations.
	before := rep.DB().ReplicationHead()
	sub, err := rep.mgr.SubmitTask(context.Background(), "a brand new task on the new primary", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Workers) == 0 {
		t.Fatal("promoted primary selected no workers")
	}
	after := rep.DB().ReplicationHead()
	if after <= before {
		t.Fatalf("promotion left the journal position stuck at %d", after)
	}

	// Promote is idempotent.
	if err := rep.Promote(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestPromotedReplicaFeedsItsOwnFollowers(t *testing.T) {
	rig, _, ts := replPrimary(t)
	rig.resolveOneTask(t, "seed task from the original primary", []float64{4, 2})
	rep := startTestReplica(t, ts.URL, t.TempDir())
	defer rep.Close()
	waitCaughtUp(t, rig, rep)
	killPrimary(ts)
	if err := rep.Promote(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Serve the promoted node's journal; a second-tier follower
	// bootstraps from it and tracks its new writes.
	src2 := NewTransferSource(rep.DB(), NewFence(rep.DB()), rep.Digest, TransferSourceOptions{})
	ts2 := httptest.NewServer(src2.Stream())
	defer ts2.Close()
	rep2 := startTestReplica(t, ts2.URL, t.TempDir())
	defer rep2.Close()

	if _, err := rep.mgr.SubmitTask(context.Background(), "written after failover", 2); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "second-tier follower caught up", func() bool {
		pseq := rep.DB().ReplicationHead()
		rseq := rep2.DB().ReplicationHead()
		return rseq == pseq
	})
	assertModelsEqual(t, rep.cm.Unwrap(), rep2.cm.Unwrap())
}

func TestReplicaDivergenceRefused(t *testing.T) {
	rig, _, ts := replPrimary(t)
	rig.resolveOneTask(t, "only committed task", []float64{4, 2})
	head := rig.db.ReplicationHead()

	// A follower claiming records the primary never committed, in the
	// primary's own history, must be refused — not silently rewound.
	u := fmt.Sprintf("%s/api/v1/replication/stream?from=%d&history=%s", ts.URL, head+10, rig.db.ReplicationHistory())
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("diverged resume got %s, want 409", resp.Status)
	}
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Code != "replica_diverged" {
		t.Fatalf("diverged resume envelope = %+v (err %v), want code %s", env, err, "replica_diverged")
	}
}

// TestServerReplicaGate drives the HTTP layer: a replica-role server
// refuses mutations with 421 and a primary redirect, keeps serving
// pure selections, reports role and lag in /readyz and /api/v1/metrics,
// and flips to primary through the promote endpoint.
func TestServerReplicaGate(t *testing.T) {
	rig, _, ts := replPrimary(t)
	rig.resolveOneTask(t, "one committed task", []float64{4, 2})
	rep := startTestReplica(t, ts.URL, t.TempDir())
	defer rep.Close()
	waitCaughtUp(t, rig, rep)

	rts := httptest.NewServer(newNode(t, TenantConfig{Manager: rep.mgr}, NodeConfig{
		Role: RoleReplica, Replication: rep.Status, Promoter: rep.Promote,
	}))
	defer rts.Close()

	// Mutations are refused with the primary's address attached.
	resp, err := http.Post(rts.URL+"/api/v1/tasks", "application/json", bytes.NewBufferString(`{"text":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("mutation on replica got %s (%s), want 421", resp.Status, body)
	}
	if got := resp.Header.Get("X-Crowdd-Primary"); got != ts.URL {
		t.Fatalf("X-Crowdd-Primary = %q, want %q", got, ts.URL)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "not_primary" {
		t.Fatalf("replica refusal envelope = %s, want code %s", body, "not_primary")
	}

	// Pure selections keep serving.
	resp, err = http.Post(rts.URL+"/api/v1/selections", "application/json",
		bytes.NewBufferString(`{"tasks":[{"text":"classify this photograph"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("selections on replica got %s, want 200", resp.Status)
	}

	// /readyz carries role and lag.
	resp, err = http.Get(rts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready ReadyzResponse
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ready.Role != RoleReplica || ready.Replication == nil || ready.Replication.Lag == nil {
		t.Fatalf("readyz = %+v, want replica role with replication lag", ready)
	}

	// /api/v1/metrics carries the same status block.
	resp, err = http.Get(rts.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Replication == nil || snap.Replication.Role != RoleReplica {
		t.Fatalf("metrics replication block = %+v, want replica role", snap.Replication)
	}

	// Promote over HTTP: the role flips and mutations are accepted.
	killPrimary(ts)
	resp, err = http.Post(rts.URL+"/api/v1/replication/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var st ReplicationStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || st.Role != RolePrimary {
		t.Fatalf("promote got %s role %q, want 200 primary", resp.Status, st.Role)
	}
	resp, err = http.Post(rts.URL+"/api/v1/tasks", "application/json", bytes.NewBufferString(`{"text":"accepted now"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("mutation after promote got %s, want 201", resp.Status)
	}
}

// TestPinnedGenerationSurvivesCompaction covers the bootstrap-reader
// GC race: a stream that pinned generation N must keep N's files
// readable while compaction races past it, and the sweep must happen
// once the pin drops.
func TestPinnedGenerationSurvivesCompaction(t *testing.T) {
	rig, _, _ := replPrimary(t)
	rig.resolveOneTask(t, "a task in the pinned generation", []float64{4, 2})

	gen, _, unpin, err := rig.db.pinGeneration()
	if err != nil {
		t.Fatal(err)
	}
	paths := []string{
		filepath.Join(rig.db.dir, fmt.Sprintf(snapshotPattern, gen)),
		filepath.Join(rig.db.dir, fmt.Sprintf(modelPattern, gen)),
		rig.db.journalPath(gen),
		rig.db.replSidecarPath(gen),
	}

	// Two compactions race past the pinned reader.
	for i := 0; i < 2; i++ {
		rig.resolveOneTask(t, fmt.Sprintf("task during compaction %d", i), []float64{3, 3})
		if err := rig.db.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	if rig.db.Generation() <= gen {
		t.Fatalf("compaction never advanced past generation %d", gen)
	}
	for _, p := range paths {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("pinned generation file lost during compaction: %v", err)
		}
	}
	// The pinned journal is still readable end to end.
	data, err := os.ReadFile(rig.db.journalPath(gen))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := walkJournal(data, func(int, int64, []byte) error { return nil }); err != nil {
		t.Fatalf("pinned journal unreadable: %v", err)
	}

	unpin()
	for _, p := range paths {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("unpinned generation file %s not swept (err %v)", p, err)
		}
	}
	unpin() // idempotent
}
