package chaos

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"crowdselect/internal/core"
	"crowdselect/internal/corpus"
	"crowdselect/internal/crowdclient"
	"crowdselect/internal/crowddb"
	"crowdselect/internal/faultnet"
)

// backupNode is a primary that can die and be rebooted over the same
// data directory — the unit of the disaster-recovery drill.
type backupNode struct {
	db     *crowddb.DB
	mgr    *crowddb.Manager
	cm     *core.ConcurrentModel
	cutter *crowddb.DigestCutter
	ts     *httptest.Server
	kill   func()
}

// bootBackupNode opens (or re-opens after a crash) a primary in dir
// with the backup endpoint wired, mirroring cmd/crowdd's service mode.
func bootBackupNode(t *testing.T, dir string, d *corpus.Dataset, m *core.Model) *backupNode {
	t.Helper()
	db, err := crowddb.Open(dir, crowddb.Options{Sync: crowddb.SyncAlways()})
	if err != nil {
		t.Fatal(err)
	}
	var (
		cm  *core.ConcurrentModel
		mgr *crowddb.Manager
	)
	if !db.Fresh() {
		mgr, cm, err = db.RecoverWith(func(_ string, model *core.Model, store *crowddb.Store) (*crowddb.Manager, *core.ConcurrentModel, error) {
			cm := core.NewConcurrentModel(model)
			mgr, err := crowddb.NewManager(store, d.Vocab, cm, 2)
			return mgr, cm, err
		})
		if err != nil {
			t.Fatal(err)
		}
	} else {
		cm = core.NewConcurrentModel(m)
		for i := range d.Workers {
			if _, err := db.Store().AddWorker(i, fmt.Sprintf("w%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.SaveFile(db.DatasetPath()); err != nil {
			t.Fatal(err)
		}
		if mgr, err = crowddb.NewManager(db.Store(), d.Vocab, cm, 2); err != nil {
			t.Fatal(err)
		}
		db.SetModelSnapshotter(cm.Save)
		db.SetQuiescer(mgr.Quiesce)
		if err := db.Begin(); err != nil {
			t.Fatal(err)
		}
	}
	cutter := crowddb.NewDigestCutter(db, mgr)
	fence := crowddb.NewFence(db)
	bsrc := crowddb.NewTransferSource(db, fence, cutter.Func(), crowddb.TransferSourceOptions{Logf: t.Logf})
	ts := httptest.NewServer(newNode(t, crowddb.TenantConfig{Manager: mgr, Digest: cutter.Func(), Backup: bsrc.Segment()},
		crowddb.NodeConfig{Fence: fence}))
	var once sync.Once
	kill := func() {
		once.Do(func() {
			ts.CloseClientConnections()
			ts.Close()
			db.Close()
		})
	}
	t.Cleanup(kill)
	return &backupNode{db: db, mgr: mgr, cm: cm, cutter: cutter, ts: ts, kill: kill}
}

// cutWriter passes validated archive frames through to w and fires
// cut once the byte count crosses limit — the drill's trigger for
// killing the stream at a point that is known to be mid-archive.
type cutWriter struct {
	w     io.Writer
	n     int64
	limit int64
	cut   func()
	fired bool
}

func (c *cutWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	if !c.fired && c.n >= c.limit {
		c.fired = true
		c.cut()
	}
	return n, err
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
	p := corpus.Quora().Scaled(0.03)
	p.Seed = 11
	d := corpus.MustGenerate(p)
	var tasks []core.ResolvedTask
	for _, task := range d.Tasks {
		rt := core.ResolvedTask{Bag: task.Bag(d.Vocab)}
		for _, r := range task.Responses {
			rt.Responses = append(rt.Responses, core.Scored{Worker: r.Worker, Score: r.Score})
		}
		tasks = append(tasks, rt)
	}
	cfg := core.NewConfig(5)
	cfg.MaxIter = 5
	m, _, err := core.Train(tasks, len(d.Workers), d.Vocab.Size(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	node := bootBackupNode(t, dir, d, m)
	multi, err := crowdclient.NewMulti([]string{node.ts.URL}, crowdclient.Options{
		Timeout: 2 * time.Second, Retries: 2, Backoff: time.Millisecond, Sleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	acked := make(map[int]string)
	resolveAcked(t, multi, acked, 6, "pre-crash")

	// Probe the archive over a clean connection and find the smallest
	// prefix that is already resumable (bootstrap fully delivered) —
	// the drill below tears the stream just past that point.
	var probe bytes.Buffer
	cleanCli := crowdclient.New(node.ts.URL, crowdclient.Options{})
	if _, err := cleanCli.Backup(context.Background(), &probe, -1, ""); err != nil {
		t.Fatalf("probe backup: %v", err)
	}
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

	// The operator's backup runs through a link that dies mid-transfer
	// — the client-visible shape of the primary crashing under it. Only
	// whole validated frames land in the file, so what it holds is a
	// well-formed archive prefix with an exact resume point.
	proxy, err := faultnet.Listen(node.ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	file := filepath.Join(t.TempDir(), "drill.backup")
	f, err := os.OpenFile(file, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	chaosCli := crowdclient.New(proxy.URL(), crowdclient.Options{})
	// Throttle the link so the tail is still in flight, and reset every
	// proxied connection the instant the client has validated past the
	// minimal resumable prefix: the primary dies under a backup that is
	// provably mid-stream yet past its bootstrap. An RST discards
	// whatever the kernel had buffered beyond that point, so where the
	// tear lands inside the record tail is genuinely chaotic; the
	// archive prefix on disk stays valid and resumable regardless.
	proxy.Set(faultnet.Faults{BandwidthBytesPerSec: 1 << 20})
	var info crowddb.BackupStreamInfo
	torn := false
	for attempt := 0; attempt < 5 && !torn; attempt++ {
		if err := f.Truncate(0); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Seek(0, 0); err != nil {
			t.Fatal(err)
		}
		cw := &cutWriter{w: f, limit: int64(lo) + 512, cut: proxy.CutActive}
		var berr error
		info, berr = chaosCli.Backup(context.Background(), cw, -1, "")
		if berr == nil || info.Complete {
			continue // the tail outran the reset; tear again
		}
		if !info.Resumable {
			t.Fatalf("stream torn past the bootstrap yet not resumable: %+v: %v", info, berr)
		}
		torn = true
	}
	if !torn {
		t.Fatalf("the reset never tore the stream mid-flight (last info %+v)", info)
	}
	if st := proxy.Stats(); st.Resets == 0 {
		t.Fatal("the proxy never tore the stream; the drill proved nothing")
	}

	// The primary dies for real, reboots over its own directory, and
	// serves more acked traffic before the operator resumes.
	node.kill()
	node2 := bootBackupNode(t, dir, d, m)
	multi2, err := crowdclient.NewMulti([]string{node2.ts.URL}, crowdclient.Options{
		Timeout: 2 * time.Second, Retries: 2, Backoff: time.Millisecond, Sleep: func(time.Duration) {},
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
	gotCut, err := restored.cutter.Cut()
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
		Timeout: 2 * time.Second, Retries: 2, Backoff: time.Millisecond, Sleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	resolveVia(t, context.Background(), multi3, "first question taken after the restore")

	// The same archive proves itself offline, with a full model replay.
	build := func(datasetPath string, model *core.Model, store *crowddb.Store) (*crowddb.Manager, *core.ConcurrentModel, error) {
		ld, err := corpus.LoadFile(datasetPath)
		if err != nil {
			return nil, nil, err
		}
		cm := core.NewConcurrentModel(model)
		mgr, err := crowddb.NewManager(store, ld.Vocab, cm, 2)
		if err != nil {
			return nil, nil, err
		}
		return mgr, cm, nil
	}
	rep, err := crowddb.VerifyBackup([]string{file}, crowddb.VerifyBackupOptions{Build: build})
	if err != nil {
		t.Fatalf("offline verify of the drill archive: %v", err)
	}
	if !rep.DigestVerified || rep.Seq != backupSeq {
		t.Fatalf("verify report %+v, want digest verified at seq %d", rep, backupSeq)
	}
}
