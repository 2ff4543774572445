package chaos

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"crowdselect/internal/clock"
	"crowdselect/internal/core"
	"crowdselect/internal/corpus"
	"crowdselect/internal/crowdclient"
	"crowdselect/internal/crowddb"
	"crowdselect/internal/faultnet"
)

// backupNode is a primary that can die and be rebooted over the same
// data directory — the unit of the disaster-recovery drill.
type backupNode struct {
	db   *crowddb.DB
	mgr  *crowddb.Manager
	cm   *core.ConcurrentModel
	cut  crowddb.DigestFunc
	ts   *httptest.Server
	kill func()
}

// bootBackupNode opens (or re-opens after a crash) a primary in dir,
// served as crowdd serves it, backup endpoint included.
func bootBackupNode(t *testing.T, dir string, d *corpus.Dataset, m *core.Model) *backupNode {
	t.Helper()
	sl := openTenant(t, crowddb.SliceConfig{Dir: dir, DB: crowddb.Options{Sync: crowddb.SyncAlways()}, Seed: seedOf(d, m)})
	ts := serve(t, sl.Node())
	var once sync.Once
	kill := func() {
		once.Do(func() {
			ts.CloseClientConnections()
			ts.Close()
			sl.DB.Close()
		})
	}
	return &backupNode{db: sl.DB, mgr: sl.Manager, cm: sl.Model, cut: sl.Digest, ts: ts, kill: kill}
}

// resolveAcked pushes n tasks end to end through the client and
// records each acked id → text.
func resolveAcked(t *testing.T, multi *crowdclient.Multi, acked map[int]string, n int, tag string) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		text := fmt.Sprintf("backup drill %s question %d about index maintenance", tag, i)
		acked[resolveVia(t, ctx, multi, text)] = text
	}
}

// TestChaosBackupRestoreDrill is the end-to-end disaster-recovery
// drill: live traffic, a backup stream torn mid-flight by the primary
// dying, the primary rebooted and the backup resumed from the exact
// interruption point, more traffic folded into the resumed tail, then
// a restore into an empty directory. The restored node must carry the
// source's digest at the backup seq bit for bit, hold every acked
// mutation exactly once, serve selections identical to the source's,
// and the archive must verify offline.
func TestChaosBackupRestoreDrill(t *testing.T) {
	d, m := drillSeed(t, 11)

	dir := t.TempDir()
	node := bootBackupNode(t, dir, d, m)
	multi, err := crowdclient.NewMulti([]string{node.ts.URL}, crowdclient.Options{
		Timeout: 2 * time.Second, Retries: 2, Backoff: time.Millisecond, Clock: new(clock.Manual),
	})
	if err != nil {
		t.Fatal(err)
	}
	acked := make(map[int]string)
	resolveAcked(t, multi, acked, 6, "pre-crash")

	// The operator's backup runs through a link that dies mid-transfer
	// — the client-visible shape of the primary crashing under it. First
	// a probe over the clean link: its archive gives the smallest prefix
	// that is already resumable (bootstrap fully delivered), its size on
	// the wire the response's header and chunk overhead.
	proxy, err := faultnet.Listen(node.ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	probeTr := &http.Transport{}
	var probe bytes.Buffer
	probeCli := crowdclient.New(proxy.URL(), crowdclient.Options{HTTPClient: &http.Client{Transport: probeTr}})
	if _, err := probeCli.Backup(context.Background(), &probe, -1, ""); err != nil {
		t.Fatalf("probe backup: %v", err)
	}
	probeTr.CloseIdleConnections()
	wire := proxy.Stats().BytesDown
	resumableAt := func(k int) bool {
		info, _ := crowddb.CopyBackupStream(io.Discard, bytes.NewReader(probe.Bytes()[:k]))
		return info.Resumable
	}
	lo, hi := 1, probe.Len()
	for lo < hi {
		mid := (lo + hi) / 2
		if resumableAt(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if !resumableAt(lo) || lo >= probe.Len() {
		t.Fatalf("no resumable prefix below the full archive (%d bytes)", probe.Len())
	}

	// The tear: the link passes the resumable prefix with every byte of
	// the response's overhead on top, and resets halfway from there to
	// the end, inside the record tail. Only whole validated frames land
	// in the file, so what it holds is a well-formed archive prefix with
	// an exact resume point.
	past := int64(lo) + wire - int64(probe.Len())
	tear := (past + wire) / 2
	if tear <= past || tear >= wire {
		t.Fatalf("record tail of %d wire bytes is too short to tear inside", wire-past)
	}
	file := filepath.Join(t.TempDir(), "drill.backup")
	f, err := os.OpenFile(file, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	proxy.Set(faultnet.Faults{PartialWriteBytes: tear})
	info, berr := crowdclient.New(proxy.URL(), crowdclient.Options{}).Backup(context.Background(), f, -1, "")
	if berr == nil || info.Complete {
		t.Fatalf("backup torn at wire byte %d of %d completed: %+v", tear, wire, info)
	}
	if !info.Resumable {
		t.Fatalf("stream torn past the bootstrap yet not resumable: %+v: %v", info, berr)
	}
	if st := proxy.Stats(); st.Resets == 0 {
		t.Fatal("the proxy never tore the stream; the drill proved nothing")
	}
	proxy.Heal()

	// The primary dies for real, reboots over its own directory, and
	// serves more acked traffic before the operator resumes.
	node.kill()
	node2 := bootBackupNode(t, dir, d, m)
	multi2, err := crowdclient.NewMulti([]string{node2.ts.URL}, crowdclient.Options{
		Timeout: 2 * time.Second, Retries: 2, Backoff: time.Millisecond, Clock: new(clock.Manual),
	})
	if err != nil {
		t.Fatal(err)
	}
	resolveAcked(t, multi2, acked, 4, "post-reboot")

	// Resume: append the continuation segment at the torn file's exact
	// seq. History survives the crash (it is stamped in the sidecar),
	// so the segments chain.
	resumeCli := crowdclient.New(node2.ts.URL, crowdclient.Options{})
	tail, err := resumeCli.Backup(context.Background(), f, info.LastSeq, info.Manifest.History)
	if err != nil {
		t.Fatalf("resumed backup: %v", err)
	}
	if !tail.Complete {
		t.Fatalf("resumed backup still incomplete: %+v", tail)
	}
	backupSeq := tail.Manifest.Seq
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}

	// Restore into an empty directory and boot the restored node the
	// way any crowdd would.
	restoreDir := filepath.Join(t.TempDir(), "restored")
	res, err := crowddb.RestoreBackup(restoreDir, []string{file}, crowddb.RestoreOptions{Logf: t.Logf})
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if res.Seq != backupSeq || res.Digest != tail.Manifest.Digest {
		t.Fatalf("restore landed at (%d, %s), archive says (%d, %s)", res.Seq, res.Digest, backupSeq, tail.Manifest.Digest)
	}
	restored := bootBackupNode(t, restoreDir, d, m)

	// Digest equality bit for bit at the backup seq: the restored node's
	// cut against the digests the source stamped into the manifest.
	gotCut, err := restored.cut()
	if err != nil {
		t.Fatal(err)
	}
	man := tail.Manifest
	if gotCut.Seq != backupSeq || gotCut.Digest != man.Digest || gotCut.Model != man.ModelDigest || gotCut.Store != man.StoreDigest {
		t.Fatalf("restored node at (%d, %s, model %s, store %s), source stamped (%d, %s, model %s, store %s)",
			gotCut.Seq, gotCut.Digest, gotCut.Model, gotCut.Store, backupSeq, man.Digest, man.ModelDigest, man.StoreDigest)
	}
	if !bytes.Equal(modelBytes(t, restored.cm), modelBytes(t, node2.cm)) {
		t.Fatal("restored model diverges from the source's serialized state")
	}

	// Every acked mutation exactly once, with its exact text.
	rows := restored.db.Store().ListTasks(crowddb.TaskResolved)
	byID := make(map[int]crowddb.TaskRecord, len(rows))
	textCount := make(map[string]int, len(rows))
	for _, rec := range rows {
		byID[rec.ID] = rec
		textCount[rec.Text]++
	}
	for id, text := range acked {
		rec, ok := byID[id]
		if !ok {
			t.Fatalf("acked task %d lost in restore", id)
		}
		if rec.Text != text {
			t.Fatalf("acked task %d text = %q, want %q", id, rec.Text, text)
		}
		if textCount[text] != 1 {
			t.Fatalf("acked task %q applied %d times", text, textCount[text])
		}
	}

	// The restored node ranks exactly like the source and keeps
	// accepting work.
	selReq := []crowddb.TaskSubmission{{Text: "how are write-ahead logs truncated"}, {Text: "when does a planner choose a hash join"}}
	wantRank, err := node2.mgr.RankOnly(context.Background(), selReq)
	if err != nil {
		t.Fatal(err)
	}
	gotRank, err := restored.mgr.RankOnly(context.Background(), selReq)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(wantRank) != fmt.Sprint(gotRank) {
		t.Fatalf("restored node ranks differently:\nsource   %v\nrestored %v", wantRank, gotRank)
	}
	multi3, err := crowdclient.NewMulti([]string{restored.ts.URL}, crowdclient.Options{
		Timeout: 2 * time.Second, Retries: 2, Backoff: time.Millisecond, Clock: new(clock.Manual),
	})
	if err != nil {
		t.Fatal(err)
	}
	resolveVia(t, context.Background(), multi3, "first question taken after the restore")

	// The same archive proves itself offline, with a full model replay.
	rep, err := crowddb.VerifyBackup([]string{file}, crowddb.VerifyBackupOptions{})
	if err != nil {
		t.Fatalf("offline verify of the drill archive: %v", err)
	}
	if !rep.DigestVerified || rep.Seq != backupSeq {
		t.Fatalf("verify report %+v, want digest verified at seq %d", rep, backupSeq)
	}
}
