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
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"crowdselect/internal/core"
	"crowdselect/internal/faultfs"
)

// backupPrimary boots a durable primary (OpenTenant persists its
// dataset) with a digest-stamping backup source served over httptest.
func backupPrimary(t *testing.T) (*durableRig, *DigestCutter, *TransferSource, *httptest.Server) {
	t.Helper()
	d, model := trainedFixture(t)
	rig := openDurable(t, t.TempDir(), d, model, Options{Sync: SyncAlways()})
	t.Cleanup(func() { rig.db.Close() })
	cutter := NewDigestCutter(rig.db, rig.mgr)
	src := NewTransferSource(rig.db, NewFence(rig.db), cutter.Func(), TransferSourceOptions{})
	ts := httptest.NewServer(src.Segment())
	t.Cleanup(ts.Close)
	return rig, cutter, src, ts
}

// fetchBackup streams one archive segment from base into dst, failing
// the test on transport or HTTP errors (archive-level errors return).
func fetchBackup(t *testing.T, base string, dst io.Writer, since int64, history string) (BackupStreamInfo, error) {
	t.Helper()
	u := base
	if since >= 0 {
		u += "?since=" + strconv.FormatInt(since, 10) + "&history=" + url.QueryEscape(history)
	}
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("backup fetch: %s: %s", resp.Status, b)
	}
	return CopyBackupStream(dst, resp.Body)
}

// reopenRestored boots a restored directory through OpenTenant —
// exactly what a crowdd pointed at the directory does.
func reopenRestored(t *testing.T, dir string, rig *durableRig) (*durableRig, *DigestCutter) {
	t.Helper()
	restored, err := openRig(SliceConfig{Dir: dir, DB: Options{Sync: SyncAlways()}}, rig.d, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { restored.db.Close() })
	return restored, NewDigestCutter(restored.db, restored.mgr)
}

// writeArchive lands raw archive bytes in a temp file.
func writeArchive(t *testing.T, raw []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "crowd.backup")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// reframeArchive re-encodes an archive frame by frame, letting mutate
// rewrite payloads; CRCs are recomputed, so the result is codec-valid
// tampering that only the digest layer can catch.
func reframeArchive(t *testing.T, raw []byte, mutate func(typ byte, payload []byte) []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	fr := &frameReader{r: bytes.NewReader(raw)}
	for {
		typ, payload, err := fr.next()
		if errors.Is(err, io.EOF) {
			return out.Bytes()
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := writeReplFrame(&out, typ, mutate(typ, payload)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBackupRestoreRoundTrip(t *testing.T) {
	rig, cutter, _, ts := backupPrimary(t)
	recs := []TaskRecord{
		rig.resolveOneTask(t, "how do neural networks learn from data", []float64{4, 2}),
		rig.resolveOneTask(t, "what is the capital city of france", []float64{3, 5}),
		rig.resolveOneTask(t, "explain the rules of chess to a beginner", []float64{2, 4}),
	}

	var buf bytes.Buffer
	info, err := fetchBackup(t, ts.URL, &buf, -1, "")
	if err != nil {
		t.Fatalf("full backup stream: %v", err)
	}
	if !info.Complete || !info.Resumable {
		t.Fatalf("info = %+v, want complete and resumable", info)
	}
	if !info.Manifest.Full {
		t.Fatal("full backup manifest not marked full")
	}
	// Nothing was written after the backup, so the source's head cut is
	// the cut the manifest stamps.
	man := info.Manifest
	srcCut, err := cutter.Cut()
	if err != nil {
		t.Fatal(err)
	}
	if srcCut.Seq != man.Seq || srcCut.Digest != man.Digest || srcCut.Model != man.ModelDigest || srcCut.Store != man.StoreDigest {
		t.Fatalf("manifest stamps (%d, %s, model %s, store %s), source cut %+v", man.Seq, man.Digest, man.ModelDigest, man.StoreDigest, srcCut)
	}

	arch := writeArchive(t, buf.Bytes())
	dest := filepath.Join(t.TempDir(), "restored")
	res, err := RestoreBackup(dest, []string{arch}, RestoreOptions{})
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if res.Seq != man.Seq || res.Digest != man.Digest {
		t.Fatalf("restore result (%d, %s), want (%d, %s)", res.Seq, res.Digest, man.Seq, man.Digest)
	}

	rrig, rcutter := reopenRestored(t, dest, rig)
	got, err := rcutter.Cut()
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != man.Seq {
		t.Fatalf("restored node at seq %d, manifest cut at %d", got.Seq, man.Seq)
	}
	if got.Digest != man.Digest || got.Model != man.ModelDigest || got.Store != man.StoreDigest {
		t.Fatalf("restored cut %+v at seq %d, manifest stamps (%s, model %s, store %s)", got, got.Seq, man.Digest, man.ModelDigest, man.StoreDigest)
	}
	// Every acked mutation exactly once: each resolved task is present,
	// resolved, and carries its scores.
	for _, rec := range recs {
		rt, err := rrig.db.Store().GetTask(rec.ID)
		if err != nil {
			t.Fatalf("restored task %d: %v", rec.ID, err)
		}
		if rt.Status != rec.Status || len(rt.Answers) != len(rec.Answers) {
			t.Fatalf("restored task %d = %+v, want %+v", rec.ID, rt, rec)
		}
	}
	// The restored node serves and accepts new mutations.
	rrig.resolveOneTask(t, "a brand new question after restore", []float64{1, 5})
}

func TestBackupIncrementalChainAndPointInTime(t *testing.T) {
	rig, _, _, ts := backupPrimary(t)
	rec1 := rig.resolveOneTask(t, "first question before the full backup", []float64{4, 2})

	var a1 bytes.Buffer
	info1, err := fetchBackup(t, ts.URL, &a1, -1, "")
	if err != nil {
		t.Fatalf("full backup: %v", err)
	}
	s1 := info1.Manifest.Seq

	rec2 := rig.resolveOneTask(t, "second question after the full backup", []float64{5, 1})
	var a2 bytes.Buffer
	info2, err := fetchBackup(t, ts.URL, &a2, info1.LastSeq, info1.Manifest.History)
	if err != nil {
		t.Fatalf("incremental backup: %v", err)
	}
	if info2.Manifest.Full {
		t.Fatal("incremental manifest marked full")
	}
	if info2.Manifest.BaseSeq != s1 {
		t.Fatalf("incremental base %d, want %d", info2.Manifest.BaseSeq, s1)
	}
	s2 := info2.Manifest.Seq
	if s2 <= s1 {
		t.Fatalf("incremental cut %d did not advance past %d", s2, s1)
	}

	f1, f2 := writeArchive(t, a1.Bytes()), writeArchive(t, a2.Bytes())

	// Full chain: the restored node lands at s2 with s2's digest.
	destAll := filepath.Join(t.TempDir(), "restored-all")
	resAll, err := RestoreBackup(destAll, []string{f1, f2}, RestoreOptions{})
	if err != nil {
		t.Fatalf("chain restore: %v", err)
	}
	if resAll.Seq != s2 || resAll.Digest != info2.Manifest.Digest {
		t.Fatalf("chain restore at (%d, %s), want (%d, %s)", resAll.Seq, resAll.Digest, s2, info2.Manifest.Digest)
	}
	rAll, cAll := reopenRestored(t, destAll, rig)
	gotAll, err := cAll.Cut()
	if err != nil {
		t.Fatal(err)
	}
	if gotAll.Digest != info2.Manifest.Digest {
		t.Fatalf("chain-restored digest %s, want %s", gotAll.Digest, info2.Manifest.Digest)
	}
	if _, err := rAll.db.Store().GetTask(rec2.ID); err != nil {
		t.Fatalf("chain restore lost task %d: %v", rec2.ID, err)
	}
	// Verification is restore plus boot: it proves the digest the boot
	// of the restored directory cuts, which is the final manifest stamp.
	rep, err := VerifyBackup([]string{f1, f2}, VerifyBackupOptions{})
	if err != nil {
		t.Fatalf("verify of the chain: %v", err)
	}
	if rep.Digest != gotAll.Digest || rep.StoreDigest != gotAll.Store || !rep.DigestVerified {
		t.Fatalf("verify proved (%s, %s, %v), the restored boot cuts (%s, %s)",
			rep.Digest, rep.StoreDigest, rep.DigestVerified, gotAll.Digest, gotAll.Store)
	}

	// Point-in-time: replay the same chain only through s1. The node
	// lands exactly where the full segment was cut — task 2 never
	// happened there.
	destPit := filepath.Join(t.TempDir(), "restored-pit")
	resPit, err := RestoreBackup(destPit, []string{f1, f2}, RestoreOptions{ToSeq: s1})
	if err != nil {
		t.Fatalf("point-in-time restore: %v", err)
	}
	if resPit.Seq != s1 || resPit.Digest != info1.Manifest.Digest {
		t.Fatalf("point-in-time at (%d, %s), want (%d, %s)", resPit.Seq, resPit.Digest, s1, info1.Manifest.Digest)
	}
	rPit, cPit := reopenRestored(t, destPit, rig)
	gotPit, err := cPit.Cut()
	if err != nil {
		t.Fatal(err)
	}
	if gotPit.Seq != s1 || gotPit.Digest != info1.Manifest.Digest {
		t.Fatalf("point-in-time digest (%d, %s), want (%d, %s)", gotPit.Seq, gotPit.Digest, s1, info1.Manifest.Digest)
	}
	if _, err := rPit.db.Store().GetTask(rec1.ID); err != nil {
		t.Fatalf("point-in-time restore lost task %d: %v", rec1.ID, err)
	}
	if _, err := rPit.db.Store().GetTask(rec2.ID); err == nil {
		t.Fatalf("point-in-time restore at seq %d contains task %d resolved later", s1, rec2.ID)
	}

	// Beyond-head and before-base targets refuse loudly.
	if _, err := RestoreBackup(filepath.Join(t.TempDir(), "x"), []string{f1, f2}, RestoreOptions{ToSeq: s2 + 100}); err == nil {
		t.Fatal("restore beyond the archive head succeeded")
	}
}

func TestBackupStreamResumeAfterInterrupt(t *testing.T) {
	rig, _, _, ts := backupPrimary(t)
	rig.resolveOneTask(t, "question one before the interrupted backup", []float64{4, 2})
	rig.resolveOneTask(t, "question two before the interrupted backup", []float64{3, 5})

	var whole bytes.Buffer
	info, err := fetchBackup(t, ts.URL, &whole, -1, "")
	if err != nil {
		t.Fatal(err)
	}

	// The connection dies mid-trailer: the client keeps only whole
	// validated frames, so its file is a valid prefix and the copy
	// reports exactly where to resume.
	var archive bytes.Buffer
	cut, err := CopyBackupStream(&archive, bytes.NewReader(whole.Bytes()[:whole.Len()-5]))
	if !errors.Is(err, ErrArchiveTruncated) {
		t.Fatalf("interrupted copy err = %v, want ErrArchiveTruncated", err)
	}
	if cut.Complete || !cut.Resumable {
		t.Fatalf("interrupted info = %+v, want incomplete and resumable", cut)
	}
	if cut.LastSeq != info.Manifest.Seq {
		t.Fatalf("interrupt after seq %d, records ran to %d", cut.LastSeq, info.Manifest.Seq)
	}

	// Resume: append a continuation segment to the same file.
	resumed, err := fetchBackup(t, ts.URL, &archive, cut.LastSeq, cut.Manifest.History)
	if err != nil {
		t.Fatalf("resume stream: %v", err)
	}
	if !resumed.Complete {
		t.Fatalf("resume info = %+v, want complete", resumed)
	}
	if resumed.Manifest.Full {
		t.Fatal("resumed segment manifest marked full")
	}

	// The patched-together file restores to the source's exact digest.
	arch := writeArchive(t, archive.Bytes())
	dest := filepath.Join(t.TempDir(), "restored")
	res, err := RestoreBackup(dest, []string{arch}, RestoreOptions{})
	if err != nil {
		t.Fatalf("restore of resumed archive: %v", err)
	}
	man := resumed.Manifest
	_, rcutter := reopenRestored(t, dest, rig)
	got, err := rcutter.Cut()
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != man.Seq || got.Seq != man.Seq || got.Digest != man.Digest || got.Model != man.ModelDigest || got.Store != man.StoreDigest {
		t.Fatalf("resumed-archive restore at %d cuts %+v, manifest stamps (%d, %s, model %s, store %s)",
			res.Seq, got, man.Seq, man.Digest, man.ModelDigest, man.StoreDigest)
	}
}

func TestBackupArchiveTypedErrors(t *testing.T) {
	rig, _, _, ts := backupPrimary(t)
	rig.resolveOneTask(t, "a task to give the archive some records", []float64{4, 2})
	rig.resolveOneTask(t, "another task so records can be reordered", []float64{2, 4})

	var buf bytes.Buffer
	if _, err := fetchBackup(t, ts.URL, &buf, -1, ""); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	nosink := backupSink{}
	if _, err := walkBackupArchive(bytes.NewReader(nil), nosink); !errors.Is(err, ErrArchiveTruncated) {
		t.Fatalf("empty archive err = %v, want ErrArchiveTruncated", err)
	}
	if _, err := walkBackupArchive(bytes.NewReader(raw[:len(raw)-3]), nosink); !errors.Is(err, ErrArchiveTruncated) {
		t.Fatalf("truncated archive err = %v, want ErrArchiveTruncated", err)
	}

	flipped := append([]byte(nil), raw...)
	flipped[1+recordHeaderSize+2] ^= 0x01 // inside the manifest payload: CRC must catch it
	var ae *ArchiveError
	if _, err := walkBackupArchive(bytes.NewReader(flipped), nosink); !errors.Is(err, ErrArchiveCorrupt) || !errors.As(err, &ae) {
		t.Fatalf("flipped-bit archive err = %v, want *ArchiveError wrapping ErrArchiveCorrupt", err)
	}

	// Swap two record frames: every frame's CRC still holds, but the
	// sequence run breaks.
	var frames []struct {
		typ     byte
		payload []byte
	}
	fr := &frameReader{r: bytes.NewReader(raw)}
	for {
		typ, payload, err := fr.next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, struct {
			typ     byte
			payload []byte
		}{typ, payload})
	}
	var recIdx []int
	for i, f := range frames {
		if f.typ == frameRecord {
			recIdx = append(recIdx, i)
		}
	}
	if len(recIdx) < 2 {
		t.Fatalf("archive carries %d record frames, need 2 to reorder", len(recIdx))
	}
	frames[recIdx[0]], frames[recIdx[1]] = frames[recIdx[1]], frames[recIdx[0]]
	var reordered bytes.Buffer
	for _, f := range frames {
		if err := writeReplFrame(&reordered, f.typ, f.payload); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := walkBackupArchive(bytes.NewReader(reordered.Bytes()), nosink); !errors.Is(err, ErrArchiveReordered) {
		t.Fatalf("reordered archive err = %v, want ErrArchiveReordered", err)
	}

	// A live replication frame type has no business inside an archive.
	var alien bytes.Buffer
	if err := writeReplFrame(&alien, frameHello, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := walkBackupArchive(bytes.NewReader(alien.Bytes()), nosink); !errors.Is(err, ErrArchiveCorrupt) {
		t.Fatalf("alien frame err = %v, want ErrArchiveCorrupt", err)
	}

	// Restore refuses a directory that already holds anything, and a
	// chain that does not start with a full segment.
	arch := writeArchive(t, raw)
	occupied := t.TempDir()
	if err := os.WriteFile(filepath.Join(occupied, "keep.me"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreBackup(occupied, []string{arch}, RestoreOptions{}); err == nil {
		t.Fatal("restore into a non-empty directory succeeded")
	}
	var inc bytes.Buffer
	cut, err := CopyBackupStream(io.Discard, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fetchBackup(t, ts.URL, &inc, cut.LastSeq, cut.Manifest.History); err != nil {
		t.Fatal(err)
	}
	incArch := writeArchive(t, inc.Bytes())
	if _, err := RestoreBackup(filepath.Join(t.TempDir(), "r"), []string{incArch}, RestoreOptions{}); err == nil {
		t.Fatal("restore from an incremental-only chain succeeded")
	}
}

// TestVerifyBackupShardedArchive: a sharded node's archive verifies.
// The shard's task-id stride and ownership filter shape replay, so the
// manifest names the shard and verification boots the restore under it;
// booted unsharded, a task answered by foreign workers replays to other
// store and model digests than the manifest stamps.
func TestVerifyBackupShardedArchive(t *testing.T) {
	d, model := trainedFixture(t)
	shard := ShardSpec{Index: 0, Count: 2}
	rig, err := openRig(SliceConfig{Dir: t.TempDir(), Shard: shard, DB: Options{Sync: SyncAlways(), Clock: testClock(t)}}, d, model)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rig.db.Close() })
	crowd := []int{0, 1, 2, 3} // two of them shard 1's
	subs, err := rig.mgr.SubmitBatch(context.Background(), []TaskSubmission{{Text: "how do glaciers carve valleys", Workers: crowd}})
	if err != nil {
		t.Fatal(err)
	}
	id := subs[0].Task.ID
	scores := make(map[int]float64, len(crowd))
	for _, w := range crowd {
		if err := rig.mgr.CollectAnswer(id, w, fmt.Sprintf("answer from %d", w)); err != nil {
			t.Fatal(err)
		}
		scores[w] = float64(5 - w)
	}
	if _, err := rig.mgr.ResolveTask(context.Background(), id, scores); err != nil {
		t.Fatal(err)
	}

	src := NewTransferSource(rig.db, NewFence(rig.db), NewDigestCutter(rig.db, rig.mgr).Func(), TransferSourceOptions{})
	ts := httptest.NewServer(src.Segment())
	t.Cleanup(ts.Close)
	var full bytes.Buffer
	info, err := fetchBackup(t, ts.URL, &full, -1, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := info.Manifest.Shard; got == nil || *got != shard {
		t.Fatalf("manifest shard = %v, want %+v", got, shard)
	}
	rep, err := VerifyBackup([]string{writeArchive(t, full.Bytes())}, VerifyBackupOptions{})
	if err != nil {
		t.Fatalf("verify of a sharded node's archive: %v", err)
	}
	if !rep.DigestVerified {
		t.Fatalf("report = %+v, want digest verified", rep)
	}
}

func TestVerifyBackupProvesAndRefutes(t *testing.T) {
	rig, _, _, ts := backupPrimary(t)
	rig.resolveOneTask(t, "what makes sourdough bread rise overnight", []float64{4, 2})

	var full bytes.Buffer
	info1, err := fetchBackup(t, ts.URL, &full, -1, "")
	if err != nil {
		t.Fatal(err)
	}
	rig.resolveOneTask(t, "how tall can a sequoia tree grow", []float64{5, 3})
	var inc bytes.Buffer
	if _, err := fetchBackup(t, ts.URL, &inc, info1.LastSeq, info1.Manifest.History); err != nil {
		t.Fatal(err)
	}
	f1, f2 := writeArchive(t, full.Bytes()), writeArchive(t, inc.Bytes())

	rep, err := VerifyBackup([]string{f1, f2}, VerifyBackupOptions{})
	if err != nil {
		t.Fatalf("verify of a clean chain: %v", err)
	}
	if !rep.DigestVerified {
		t.Fatalf("report = %+v, want digest verified", rep)
	}
	if rep.Segments != 2 {
		t.Fatalf("verified %d segments, want 2", rep.Segments)
	}

	// Any single flipped bit fails verification, wherever it lands.
	st, err := os.Stat(f1)
	if err != nil {
		t.Fatal(err)
	}
	for _, offset := range []int64{1 + recordHeaderSize + 1, st.Size() / 2, st.Size() - 2} {
		tampered := filepath.Join(t.TempDir(), fmt.Sprintf("bitflip-%d.backup", offset))
		orig, err := os.ReadFile(f1)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tampered, orig, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := faultfs.FlipBit(tampered, offset, 3); err != nil {
			t.Fatal(err)
		}
		if _, err := VerifyBackup([]string{tampered, f2}, VerifyBackupOptions{}); err == nil {
			t.Fatalf("verify accepted a flipped bit at offset %d", offset)
		}
	}

	// Codec-valid tampering — payload rewritten, CRC recomputed — gets
	// past every checksum and is caught only by the digest replay.
	rawFull, err := os.ReadFile(f1)
	if err != nil {
		t.Fatal(err)
	}
	forged := reframeArchive(t, rawFull, func(typ byte, payload []byte) []byte {
		if typ != frameSnapshot {
			return payload
		}
		var sm replSnapshotMsg
		if err := json.Unmarshal(payload, &sm); err != nil {
			t.Fatal(err)
		}
		sm.Store = bytes.Replace(sm.Store, []byte(`"worker-0001"`), []byte(`"xorker-0001"`), 1)
		out, err := json.Marshal(sm)
		if err != nil {
			t.Fatal(err)
		}
		return out
	})
	if !bytes.Contains(rawFull, []byte(`"worker-0001"`)) {
		t.Fatal("fixture has no worker worker-0001 to forge")
	}
	forgedPath := writeArchive(t, forged)
	if _, err := VerifyBackup([]string{forgedPath}, VerifyBackupOptions{}); !errors.Is(err, ErrBackupDigestMismatch) {
		t.Fatalf("forged snapshot verify err = %v, want ErrBackupDigestMismatch", err)
	}

	// A record re-framed with a valid CRC that does not apply fails the
	// boot's journal replay, exactly as booting its restore would.
	unapplied := reframeArchive(t, rawFull, func(typ byte, payload []byte) []byte {
		if typ != frameRecord {
			return payload
		}
		var rm replRecordMsg
		if err := json.Unmarshal(payload, &rm); err != nil {
			t.Fatal(err)
		}
		rm.Event = json.RawMessage(`{"kind":"resolve","task":424242}`)
		out, err := json.Marshal(rm)
		if err != nil {
			t.Fatal(err)
		}
		return out
	})
	var ce *CorruptError
	_, err = VerifyBackup([]string{writeArchive(t, unapplied)}, VerifyBackupOptions{})
	if !errors.As(err, &ce) || !errors.Is(err, ErrArchiveCorrupt) {
		t.Fatalf("unappliable record verify err = %v, want the boot's *CorruptError as ErrArchiveCorrupt", err)
	}
}

// TestBackupRefusedRestoreLeavesDestinationAsFound: whatever refuses a
// restore — a truncated archive, a manifest from another kernel or
// architecture, a to-seq beyond the archive — leaves an absent
// destination absent (or empty) and an empty one empty, so the same
// restore can be re-run there with a good archive.
func TestBackupRefusedRestoreLeavesDestinationAsFound(t *testing.T) {
	raw, manifest := oneTaskArchive(t)
	good := writeArchive(t, raw)
	refusals := []struct {
		name    string
		archive string
		opts    RestoreOptions
	}{
		{"truncated", writeArchive(t, raw[:3]), RestoreOptions{}},
		{"kernel", writeArchive(t, forgeManifest(t, raw, func(m *BackupManifest) { m.Kernel = core.KernelVersion + 1 })), RestoreOptions{}},
		{"arch", writeArchive(t, forgeManifest(t, raw, func(m *BackupManifest) { m.Arch = "not-" + runtime.GOARCH })), RestoreOptions{}},
		{"to-seq", good, RestoreOptions{ToSeq: manifest.Seq + 1}},
	}
	for _, c := range refusals {
		for _, existed := range []bool{false, true} {
			dest := filepath.Join(t.TempDir(), "dest")
			if existed {
				if err := os.Mkdir(dest, 0o755); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := RestoreBackup(dest, []string{c.archive}, c.opts); err == nil {
				t.Fatalf("%s: restore succeeded", c.name)
			}
			entries, err := os.ReadDir(dest)
			if err != nil && !(errors.Is(err, os.ErrNotExist) && !existed) {
				t.Fatal(err)
			}
			for _, e := range entries {
				t.Errorf("%s (existed=%v): refused restore left %s behind", c.name, existed, e.Name())
			}
			if _, err := RestoreBackup(dest, []string{good}, RestoreOptions{}); err != nil {
				t.Fatalf("%s (existed=%v): good archive after the refusal: %v", c.name, existed, err)
			}
		}
	}
}

// TestBackupRefusesSegmentWithoutModel: a full segment must carry the
// model checkpoint before its snapshot, because no node boots a
// generation without one. An archive whose model frame was cut out at a
// frame boundary is codec-valid, so the grammar refuses it: the walk,
// the streaming copy, verification and restore all answer
// ErrArchiveCorrupt, and the refused restore writes nothing.
func TestBackupRefusesSegmentWithoutModel(t *testing.T) {
	raw, _ := oneTaskArchive(t)
	var cut bytes.Buffer
	fr := &frameReader{r: bytes.NewReader(raw)}
	for {
		off := fr.off
		typ, _, err := fr.next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if typ != frameModel {
			cut.Write(raw[off:fr.off])
		}
	}
	if cut.Len() == len(raw) {
		t.Fatal("the archive carried no model frame to cut")
	}
	path := writeArchive(t, cut.Bytes())
	if _, err := walkBackupArchive(bytes.NewReader(cut.Bytes()), backupSink{}); !errors.Is(err, ErrArchiveCorrupt) {
		t.Fatalf("walk of a model-less segment = %v, want ErrArchiveCorrupt", err)
	}
	if _, err := CopyBackupStream(io.Discard, bytes.NewReader(cut.Bytes())); !errors.Is(err, ErrArchiveCorrupt) {
		t.Fatalf("copy of a model-less segment = %v, want ErrArchiveCorrupt", err)
	}
	if _, err := VerifyBackup([]string{path}, VerifyBackupOptions{}); !errors.Is(err, ErrArchiveCorrupt) {
		t.Fatalf("verify of a model-less segment = %v, want ErrArchiveCorrupt", err)
	}
	dest := filepath.Join(t.TempDir(), "dest")
	if _, err := RestoreBackup(dest, []string{path}, RestoreOptions{}); !errors.Is(err, ErrArchiveCorrupt) {
		t.Fatalf("restore of a model-less segment = %v, want ErrArchiveCorrupt", err)
	}
	entries, err := os.ReadDir(dest)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("refused restore left %s behind", e.Name())
	}
}

// TestBackupRestoreRefusesOversizeRecord: a record over the journal's
// record cap (one an older build could acknowledge) still fits an
// archive frame, but a journal holding it would not boot, so restore
// refuses it with ErrFrameTooLarge and writes nothing.
func TestBackupRestoreRefusesOversizeRecord(t *testing.T) {
	raw, _ := oneTaskArchive(t)
	text := strings.Repeat("x", maxRecordSize)
	path := writeArchive(t, reframeArchive(t, raw, func(typ byte, payload []byte) []byte {
		if typ != frameRecord {
			return payload
		}
		var m replRecordMsg
		if err := json.Unmarshal(payload, &m); err != nil {
			t.Fatal(err)
		}
		return fmt.Appendf(nil, `{"seq":%d,"event":{"kind":"add_task","task":0,"text":%q}}`, m.Seq, text)
	}))
	dest := filepath.Join(t.TempDir(), "dest")
	if _, err := RestoreBackup(dest, []string{path}, RestoreOptions{}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("restore of an oversize record = %v, want ErrFrameTooLarge", err)
	}
	entries, err := os.ReadDir(dest)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("refused restore left %s behind", e.Name())
	}
}

func TestBackupEndpointRoutingGatingAndGone(t *testing.T) {
	rig, cutter, src, _ := backupPrimary(t)
	rig.resolveOneTask(t, "a task so the head moves past the base", []float64{4, 2})

	def := TenantConfig{Manager: rig.mgr, Backup: src.Segment(), Digest: cutter.Func()}
	ws := httptest.NewServer(newNode(t, def, NodeConfig{
		Tenants: []TenantConfig{{Name: "acme", Manager: rig.mgr, Backup: src.Segment()}},
	}))
	t.Cleanup(ws.Close)

	var buf bytes.Buffer
	if info, err := fetchBackup(t, ws.URL+"/api/v1/backup", &buf, -1, ""); err != nil || !info.Complete {
		t.Fatalf("backup via server route: info=%+v err=%v", info, err)
	}
	buf.Reset()
	if info, err := fetchBackup(t, ws.URL+"/api/v1/t/acme/backup", &buf, -1, ""); err != nil || !info.Complete {
		t.Fatalf("tenant-scoped backup route: info=%+v err=%v", info, err)
	}

	// With a fleet token set, the backup stream is part of the gated
	// fleet plane.
	gated := httptest.NewServer(newNode(t, def, NodeConfig{FleetToken: "s3cr3t"}))
	t.Cleanup(gated.Close)
	resp, err := http.Get(gated.URL + "/api/v1/backup")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("ungated backup with fleet token set: %s, want 403", resp.Status)
	}
	req, _ := http.NewRequest(http.MethodGet, gated.URL+"/api/v1/backup", nil)
	req.Header.Set("Authorization", "Bearer s3cr3t")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CopyBackupStream(io.Discard, resp.Body); err != nil {
		t.Fatalf("authorized backup stream: %v", err)
	}
	resp.Body.Close()

	// A node with no source answers 501.
	bare := httptest.NewServer(NewServer(rig.mgr))
	t.Cleanup(bare.Close)
	resp, err = http.Get(bare.URL + "/api/v1/backup")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("backup without a source: %s, want 501", resp.Status)
	}

	// Compaction moves the generation base past old seqs: resuming from
	// below it is permanently impossible and says so with 410.
	history := rig.db.ReplicationHistory()
	if err := rig.db.Compact(); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ws.URL + "/api/v1/backup?since=0&history=" + url.QueryEscape(history))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("compacted-away resume: %s, want 410", resp.Status)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "backup_gone" {
		t.Fatalf("compacted-away resume envelope %s, want code %s", body, "backup_gone")
	}
	// A foreign history cannot produce a chaining archive at all.
	resp, err = http.Get(ws.URL + "/api/v1/backup?since=0&history=someone-elses-history")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("foreign-history resume: %s, want 409", resp.Status)
	}
}
