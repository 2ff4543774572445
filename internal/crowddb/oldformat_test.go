package crowddb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"crowdselect/internal/core"
)

// TestOldFormatsStillRead feeds this build the JSON older builds wrote,
// when a replication position was a (seq, bytes) pair, hellos named the
// serving generation and heartbeats carried a timestamp. Every position
// is its seq alone now, and decoding ignores the extra fields: an old
// data directory boots, an old archive restores and verifies, and an
// old primary is followed.
func TestOldFormatsStillRead(t *testing.T) {
	t.Run("sidecar", func(t *testing.T) {
		d, model := trainedFixture(t)
		dir := t.TempDir()
		rig := openDurable(t, dir, d, model, Options{Sync: SyncAlways()})
		rig.resolveOneTask(t, "a task before the cut", []float64{4, 2})
		if err := rig.db.Compact(); err != nil {
			t.Fatal(err)
		}
		rig.resolveOneTask(t, "a task in the journal", []float64{3, 5})
		gen, wantSeq, want := rig.db.Generation(), rig.db.ReplicationHead(), cutDigest(t, rig)
		if err := rig.db.Close(); err != nil {
			t.Fatal(err)
		}
		sc := readSidecar(t, dir, gen)
		old := fmt.Sprintf(`{"history":"0123456789abcdef","seq":%d,"bytes":48213,"fencing_epoch":3,"fencing_observed":5,"digest":%q,"model_digest":%q,"store_digest":%q}`+"\n",
			sc.Seq, sc.Digest, sc.ModelDigest, sc.StoreDigest)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf(replPattern, gen)), []byte(old), 0o644); err != nil {
			t.Fatal(err)
		}

		rig2 := openDurable(t, dir, d, nil, Options{Sync: SyncAlways()})
		defer rig2.db.Close()
		if seq := rig2.db.ReplicationHead(); seq != wantSeq {
			t.Errorf("booted at seq %d, want %d", seq, wantSeq)
		}
		if h := rig2.db.ReplicationHistory(); h != "0123456789abcdef" {
			t.Errorf("booted in history %q, want the sidecar's", h)
		}
		if own, obs := rig2.db.FencingEpoch(), rig2.db.FencingObserved(); own != 3 || obs != 5 {
			t.Errorf("booted at fencing epochs %d/%d, want 3/5", own, obs)
		}
		if got := cutDigest(t, rig2); got.Digest != want.Digest {
			t.Errorf("booted digest %s, want %s", got.Digest, want.Digest)
		}
	})

	t.Run("archive", func(t *testing.T) {
		raw, manifest := oneTaskArchive(t)
		old := reframeArchive(t, raw, func(typ byte, payload []byte) []byte {
			switch typ {
			case frameBackupManifest:
				s := strings.Replace(string(payload), `,"seq":`, `,"base_bytes":512,"seq":`, 1)
				return []byte(strings.Replace(s, `,"digest":`, `,"bytes":9031,"digest":`, 1))
			case frameSnapshot:
				var m replSnapshotMsg
				if err := json.Unmarshal(payload, &m); err != nil {
					t.Fatal(err)
				}
				return fmt.Appendf(nil, `{"seq":%d,"bytes":512,"store":%s}`, m.Seq, m.Store)
			case frameRecord:
				var m replRecordMsg
				if err := json.Unmarshal(payload, &m); err != nil {
					t.Fatal(err)
				}
				return fmt.Appendf(nil, `{"seq":%d,"bytes":%d,"event":%s}`, m.Seq, 512+100*m.Seq, m.Event)
			}
			return payload
		})
		if bytes.Equal(old, raw) || !bytes.Contains(old, []byte(`"base_bytes":512`)) || !bytes.Contains(old, []byte(`"bytes":612`)) {
			t.Fatal("the archive was not rewritten into the old layout")
		}
		path := writeArchive(t, old)
		dir := filepath.Join(t.TempDir(), "restored")
		res, err := RestoreBackup(dir, []string{path}, RestoreOptions{})
		if err != nil {
			t.Fatalf("restore of the old archive: %v", err)
		}
		if res.Seq != manifest.Seq || res.Digest != manifest.Digest {
			t.Errorf("restored to seq %d stamped %s, want %d stamped %s", res.Seq, res.Digest, manifest.Seq, manifest.Digest)
		}
		restored, _ := reopenRestored(t, dir, &durableRig{})
		if got := cutDigest(t, restored); got.Seq != manifest.Seq || got.Digest != manifest.Digest {
			t.Errorf("restored node cut seq %d digest %s, want %d %s", got.Seq, got.Digest, manifest.Seq, manifest.Digest)
		}
		report, err := VerifyBackup([]string{path}, VerifyBackupOptions{})
		if err != nil || !report.DigestVerified {
			t.Fatalf("verify of the old archive: %+v, %v", report, err)
		}
	})

	t.Run("stream", func(t *testing.T) {
		rig, src, _ := replPrimary(t)
		rig.resolveOneTask(t, "a task the follower bootstraps with", []float64{4, 2})
		front := newForgeablePrimary(t, src.Stream())
		var (
			mu   sync.Mutex
			logs []string
		)
		rep, err := openFollower(SliceConfig{ReplicaOf: front.ts.URL, Dir: t.TempDir(),
			DB: Options{Sync: SyncAlways(), Clock: testClock(t)},
			Logf: func(format string, args ...any) {
				mu.Lock()
				logs = append(logs, fmt.Sprintf(format, args...))
				mu.Unlock()
			}})
		if err != nil {
			t.Fatal(err)
		}
		defer rep.Close()
		waitCaughtUp(t, rig, rep)
		from := rep.Status().AppliedSeq

		// The follower's next dial waits for the old primary's stream,
		// which is written once the real primary has moved on without it.
		old := make(chan []byte, 1)
		forged := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case b := <-old:
				w.Write(b)
			case <-r.Context().Done():
			}
		})
		front.forge.Store(&forged)
		front.ts.CloseClientConnections()
		waitUntil(t, "follower to redial", func() bool { return front.dials.Load() > 0 })
		reconnects := rep.Status().Reconnects

		rig.resolveOneTask(t, "a task only the old stream carries", []float64{3, 5})
		head, want := rig.db.ReplicationHead(), cutDigest(t, rig)
		journal, err := os.ReadFile(rig.db.journalPath(rig.db.Generation()))
		if err != nil {
			t.Fatal(err)
		}
		var stream bytes.Buffer
		frame := func(typ byte, payload []byte) {
			if err := writeReplFrame(&stream, typ, payload); err != nil {
				t.Fatal(err)
			}
		}
		frame(frameHello, fmt.Appendf(nil, `{"history":%q,"seq":%d,"bytes":7777,"generation":%d,"bootstrap":false,"fencing_epoch":%d,"arch":%q,"kernel":%d}`,
			rig.db.ReplicationHistory(), head, rig.db.Generation(), rig.db.FencingEpoch(), runtime.GOARCH, core.KernelVersion))
		base := readSidecar(t, rig.db.dir, rig.db.Generation()).Seq
		if _, err := walkJournal(journal, func(idx int, off int64, payload []byte) error {
			if seq := base + int64(idx) + 1; seq > from {
				frame(frameRecord, fmt.Appendf(nil, `{"seq":%d,"bytes":%d,"event":%s}`, seq, off+int64(recordHeaderSize+len(payload)), payload))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		frame(frameHeartbeat, fmt.Appendf(nil, `{"seq":%d,"bytes":7777,"at":"2026-10-17T16:21:04.5Z","digest":%q}`, head, want.Digest))
		mu.Lock()
		logged := len(logs)
		mu.Unlock()
		old <- stream.Bytes()

		// The forged stream ends after its heartbeat: the follower's
		// reconnect is the proof it read every frame before that end.
		waitUntil(t, "follower to read the old stream to its end", func() bool { return rep.Status().Reconnects > reconnects })
		mu.Lock()
		ended := strings.Join(logs[logged:], "\n")
		mu.Unlock()
		if !strings.Contains(ended, "stream ended: EOF") {
			t.Fatalf("the old stream did not end cleanly:\n%s", ended)
		}
		st := rep.Status()
		if st.AppliedSeq != head || st.Diverged || st.Stopped != "" {
			t.Fatalf("follower of the old stream: applied %d (want %d), diverged %v, stopped %q", st.AppliedSeq, head, st.Diverged, st.Stopped)
		}
		if got, err := rep.Digest(); err != nil || got.Digest != want.Digest {
			t.Fatalf("follower digest %s (%v), want the primary's %s", got.Digest, err, want.Digest)
		}
	})
}
