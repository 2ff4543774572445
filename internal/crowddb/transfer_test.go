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
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crowdselect/internal/core"
)

// transferPrimary is replPrimary with both endings of its one source
// on one listener: /stream and /segment.
func transferPrimary(t *testing.T) (*durableRig, *httptest.Server) {
	t.Helper()
	rig, src, _ := replPrimary(t)
	return rig, serveTransfers(t, src)
}

func serveTransfers(t *testing.T, src *TransferSource) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("/stream", src.Stream())
	mux.Handle("/segment", src.Segment())
	ts := httptest.NewServer(mux)
	t.Cleanup(func() { killPrimary(ts) })
	return ts
}

// transferred is one transfer taken apart: its header payload (hello
// or manifest), the state it carried — dataset, model, snapshot and
// record frames, re-framed byte for byte — how many frames of each
// type that was, and the segment trailer if one closed it.
type transferred struct {
	header  []byte
	state   []byte
	count   map[byte]int
	lastSeq int64
	trailer []byte
}

// getTransfer reads a segment to its end and a stream up to its first
// heartbeat, which a stream only sends once its journal replay is out
// and the test's clock has moved a heartbeat on.
func getTransfer(t *testing.T, url string) transferred {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %s: %s", url, resp.Status, b)
	}
	got := transferred{count: map[byte]int{}}
	var state bytes.Buffer
	done := make(chan error, 1)
	go func() { done <- readTransfer(&frameReader{r: resp.Body}, &got, &state) }()
	var rerr error
	waitUntil(t, "the end of "+url, func() bool {
		select {
		case rerr = <-done:
			return true
		default:
			return false
		}
	})
	if rerr != nil {
		t.Fatalf("GET %s: %v", url, rerr)
	}
	got.state = state.Bytes()
	return got
}

// readTransfer takes apart the frames of fr into got, re-framing its
// state into state, up to the end or the first heartbeat.
func readTransfer(fr *frameReader, got *transferred, state *bytes.Buffer) error {
	for {
		typ, payload, err := fr.next()
		if errors.Is(err, io.EOF) || (err == nil && typ == frameHeartbeat) {
			return nil
		}
		if err != nil {
			return err
		}
		switch typ {
		case frameHello, frameBackupManifest:
			got.header = payload
		case frameBackupEnd:
			got.trailer = payload
		default:
			if typ == frameRecord {
				var msg replRecordMsg
				if err := json.Unmarshal(payload, &msg); err != nil {
					return err
				}
				got.lastSeq = msg.Seq
			}
			got.count[typ]++
			if err := writeReplFrame(state, typ, payload); err != nil {
				return err
			}
		}
	}
}

// refusal GETs a transfer that must be refused before its first frame.
func refusal(t *testing.T, url string) (status int, code string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, decode[ErrorEnvelope](t, resp).Error.Code
}

// TestReplicationStreamEqualsBackupSegment pins the single emitter: on
// a quiesced node a bootstrapping stream and a full segment carry the
// same state bytes between their own headers and endings, and so do a
// resumed stream and an incremental segment from the same position.
func TestReplicationStreamEqualsBackupSegment(t *testing.T) {
	rig, ts := transferPrimary(t)
	rig.resolveOneTask(t, "first task in the journal", []float64{4, 2})
	rig.resolveOneTask(t, "second task in the journal", []float64{5, 1})
	head := rig.db.ReplicationHead()
	_, base, unpin, err := rig.db.pinGeneration()
	if err != nil {
		t.Fatal(err)
	}
	unpin()

	stream := getTransfer(t, ts.URL+"/stream?boot=1")
	segment := getTransfer(t, ts.URL+"/segment")
	if !bytes.Equal(stream.state, segment.state) {
		t.Fatalf("a boot=1 stream carried %d state bytes %v, a full segment %d bytes %v: not the same frames",
			len(stream.state), stream.count, len(segment.state), segment.count)
	}
	want := map[byte]int{frameDataset: 1, frameModel: 1, frameSnapshot: 1, frameRecord: int(head - base)}
	if fmt.Sprint(stream.count) != fmt.Sprint(want) || head == base {
		t.Fatalf("full transfer carried frames %v, want %v", stream.count, want)
	}
	if segment.trailer == nil || stream.trailer != nil {
		t.Fatalf("trailers: segment %q, stream %q; only a segment ends with one", segment.trailer, stream.trailer)
	}

	mid := base + (head-base)/2
	resume := fmt.Sprintf("=%d&history=%s", mid, rig.db.ReplicationHistory())
	stream = getTransfer(t, ts.URL+"/stream?from"+resume)
	segment = getTransfer(t, ts.URL+"/segment?since"+resume)
	if !bytes.Equal(stream.state, segment.state) {
		t.Fatalf("from=%d carried %v, since=%d carried %v: not the same frames", mid, stream.count, mid, segment.count)
	}
	want = map[byte]int{frameRecord: int(head - mid)}
	if fmt.Sprint(stream.count) != fmt.Sprint(want) || stream.lastSeq != head {
		t.Fatalf("resumed transfer carried frames %v through %d, want %v through %d", stream.count, stream.lastSeq, want, head)
	}
}

// TestBackupSegmentDiffersFromStreamByArgumentOnly holds the three
// differences the one procedure keeps between its endings.
func TestBackupSegmentDiffersFromStreamByArgumentOnly(t *testing.T) {
	rig, ts := transferPrimary(t)
	rig.resolveOneTask(t, "a task before the cut", []float64{4, 2})
	history := rig.db.ReplicationHistory()

	t.Run("bound", func(t *testing.T) {
		// A cut two records behind the journal's end: the segment stops
		// there, mid-file, and says so; the stream does not stop.
		head := rig.db.ReplicationHead()
		cutSeq := head - 2
		src := NewTransferSource(rig.db, NewFence(rig.db), func() (DigestCut, error) {
			return DigestCut{Tenant: DefaultTenant, Seq: cutSeq}, nil
		}, TransferSourceOptions{})
		bounded := serveTransfers(t, src)
		segment := getTransfer(t, bounded.URL+"/segment")
		var tr BackupTrailer
		if err := json.Unmarshal(segment.trailer, &tr); err != nil {
			t.Fatalf("segment trailer %q: %v", segment.trailer, err)
		}
		if segment.lastSeq != cutSeq || tr.Seq != cutSeq || tr.Records != int64(segment.count[frameRecord]) {
			t.Fatalf("segment ran through record %d with trailer %+v, want the cut %d", segment.lastSeq, tr, cutSeq)
		}
		if stream := getTransfer(t, bounded.URL+"/stream?boot=1"); stream.lastSeq != head {
			t.Fatalf("stream ran through record %d, want the head %d", stream.lastSeq, head)
		}
	})

	t.Run("below base", func(t *testing.T) {
		// Compaction moves the base past a resume point: a follower is
		// re-bootstrapped in place, an archive cannot be.
		stale := rig.db.ReplicationHead()
		rig.resolveOneTask(t, "a task the compaction folds away", []float64{3, 3})
		if err := rig.db.Compact(); err != nil {
			t.Fatal(err)
		}
		resume := fmt.Sprintf("=%d&history=%s", stale, history)
		stream := getTransfer(t, ts.URL+"/stream?from"+resume)
		var hello replHello
		if err := json.Unmarshal(stream.header, &hello); err != nil {
			t.Fatal(err)
		}
		if !hello.Bootstrap || stream.count[frameSnapshot] != 1 {
			t.Fatalf("stream below the base: hello %+v, frames %v; want a bootstrap", hello, stream.count)
		}
		if status, code := refusal(t, ts.URL+"/segment?since"+resume); status != http.StatusGone || code != "backup_gone" {
			t.Fatalf("segment below the base got %d %s, want 410 %s", status, code, "backup_gone")
		}
	})

	t.Run("ahead of head", func(t *testing.T) {
		head := rig.db.ReplicationHead()
		resume := fmt.Sprintf("=%d&history=%s", head+10, history)
		for _, u := range []string{"/stream?from" + resume, "/segment?since" + resume} {
			if status, code := refusal(t, ts.URL+u); status != http.StatusConflict || code != "replica_diverged" {
				t.Fatalf("%s got %d %s, want 409 %s", u, status, code, "replica_diverged")
			}
		}
	})
}

// forgeablePrimary fronts a real stream source; once forge is set,
// dials are answered by it instead.
type forgeablePrimary struct {
	ts    *httptest.Server
	forge atomic.Pointer[http.HandlerFunc]
	dials atomic.Int64 // dials the forgery has answered
}

func newForgeablePrimary(t *testing.T, real http.Handler) *forgeablePrimary {
	t.Helper()
	p := &forgeablePrimary{}
	p.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h := p.forge.Load(); h != nil {
			p.dials.Add(1)
			(*h)(w, r)
			return
		}
		real.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { killPrimary(p.ts) })
	return p
}

// forgeHello answers every later dial with hello and then whatever
// rest writes, and severs the streams already open so followers redial.
func (p *forgeablePrimary) forgeHello(t *testing.T, hello replHello, rest func(w http.ResponseWriter, r *http.Request)) {
	t.Helper()
	payload, err := json.Marshal(hello)
	if err != nil {
		t.Fatal(err)
	}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if writeReplFrame(w, frameHello, payload) == nil && http.NewResponseController(w).Flush() == nil {
			rest(w, r)
		}
	})
	p.forge.Store(&h)
	p.ts.CloseClientConnections()
}

// helloOf is the hello that rig's own source would open a resumed
// stream with, before the arch stamp.
func helloOf(rig *durableRig) replHello {
	return replHello{History: rig.db.ReplicationHistory(), Seq: rig.db.ReplicationHead(),
		FencingEpoch: rig.db.FencingEpoch(), Kernel: core.KernelVersion}
}

func holdOpen(_ http.ResponseWriter, r *http.Request) { <-r.Context().Done() }

// followForgedHello starts a follower behind a forgeable front of src,
// lets it catch up, then answers its next dial with hello. With refusal
// nil the follower must keep following; otherwise it must stop for good
// with that sentinel — named in its status and in its /readyz, reads
// still served — and a fresh follower must never start against such a
// primary.
func followForgedHello(t *testing.T, rig *durableRig, src *TransferSource, hello replHello, refusal error) {
	t.Helper()
	front := newForgeablePrimary(t, src.Stream())
	rep := startTestReplica(t, front.ts.URL, t.TempDir())
	defer rep.Close()
	waitCaughtUp(t, rig, rep)
	front.forgeHello(t, hello, holdOpen)
	if refusal == nil {
		waitUntil(t, "follower to accept the forged hello", func() bool {
			return front.dials.Load() > 0 && rep.Status().Connected
		})
		if st := rep.Status(); st.Stopped != "" {
			t.Fatalf("follower stopped on hello %+v: %s", hello, st.Stopped)
		}
		return
	}
	waitUntil(t, "follower to stop on the foreign hello", func() bool { return rep.Status().Stopped != "" })
	if st := rep.Status(); !strings.Contains(st.Stopped, refusal.Error()) || st.Connected {
		t.Fatalf("follower stopped with %q (connected %v), want %q", st.Stopped, st.Connected, refusal)
	}
	rts := httptest.NewServer(newNode(t, TenantConfig{Manager: rep.mgr}, NodeConfig{
		Role: RoleReplica, Replication: rep.Status, Promoter: rep.Promote,
	}))
	defer rts.Close()
	resp, err := http.Get(rts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready := decode[ReadyzResponse](t, resp)
	if ready.Replication == nil || !strings.Contains(ready.Replication.Stopped, refusal.Error()) {
		t.Fatalf("the stopped follower's /readyz replication = %+v, want stopped naming %q", ready.Replication, refusal)
	}
	if _, err := rep.mgr.RankOnly(context.Background(), []TaskSubmission{{Text: "still answering reads", K: 2}}); err != nil {
		t.Fatalf("stopped follower refuses reads: %v", err)
	}
	_, err = openFollower(SliceConfig{ReplicaOf: front.ts.URL, Dir: t.TempDir(),
		DB: Options{Sync: SyncAlways(), Clock: testClock(t)}})
	if !errors.Is(err, refusal) {
		t.Fatalf("fresh follower of the foreign primary: %v, want %v", err, refusal)
	}
}

// servedHello is the hello src opens a stream with.
func servedHello(t *testing.T, src *TransferSource) replHello {
	t.Helper()
	var hello replHello
	if err := json.Unmarshal(getTransfer(t, serveTransfers(t, src).URL+"/stream").header, &hello); err != nil {
		t.Fatal(err)
	}
	return hello
}

// TestReplicationArchMismatchRefused forges hellos: a follower keeps
// following a primary of its own architecture or one that predates the
// stamp, and stops for good — reads still served — on any other.
func TestReplicationArchMismatchRefused(t *testing.T) {
	rig, src, _ := replPrimary(t)
	rig.resolveOneTask(t, "a task to replicate", []float64{4, 2})
	for arch, refusal := range map[string]error{"": nil, runtime.GOARCH: nil, "not-" + runtime.GOARCH: ErrArchMismatch} {
		t.Run("arch="+arch, func(t *testing.T) {
			hello := helloOf(rig)
			hello.Arch = arch
			followForgedHello(t, rig, src, hello, refusal)
		})
	}
	if hello := servedHello(t, src); hello.Arch != runtime.GOARCH {
		t.Fatalf("hello stamps arch %q, want %q", hello.Arch, runtime.GOARCH)
	}
}

// TestReplicationKernelMismatchRefused is the same for the kernel
// version: a primary running this binary's kernel is followed; one that
// predates the stamp ran kernel 1, and it, every other earlier version
// and a later one replay feedback through other arithmetic, so the
// follower stops with ErrKernelMismatch instead of latching diverged at
// the next heartbeat.
func TestReplicationKernelMismatchRefused(t *testing.T) {
	rig, src, _ := replPrimary(t)
	rig.resolveOneTask(t, "a task to replicate", []float64{4, 2})
	refusals := map[int]error{core.KernelVersion: nil, core.KernelVersion + 1: ErrKernelMismatch}
	for kernel := 0; kernel < core.KernelVersion; kernel++ {
		refusals[kernel] = ErrKernelMismatch
	}
	for kernel, refusal := range refusals {
		t.Run(fmt.Sprintf("kernel=%d", kernel), func(t *testing.T) {
			hello := helloOf(rig)
			hello.Kernel = kernel
			followForgedHello(t, rig, src, hello, refusal)
		})
	}
	if hello := servedHello(t, src); hello.Kernel != core.KernelVersion {
		t.Fatalf("hello stamps kernel %d, want %d", hello.Kernel, core.KernelVersion)
	}
}

// oneTaskArchive is a full backup of a primary that resolved one task,
// with the manifest it opens with.
func oneTaskArchive(t *testing.T) ([]byte, BackupManifest) {
	t.Helper()
	rig, _, _, ts := backupPrimary(t)
	rig.resolveOneTask(t, "a task to archive", []float64{4, 2})
	var raw bytes.Buffer
	info, err := fetchBackup(t, ts.URL, &raw, -1, "")
	if err != nil {
		t.Fatal(err)
	}
	return raw.Bytes(), info.Manifest
}

// forgeManifest rewrites the manifest of a full archive, CRC and all.
func forgeManifest(t *testing.T, raw []byte, forge func(*BackupManifest)) []byte {
	t.Helper()
	return reframeArchive(t, raw, func(typ byte, payload []byte) []byte {
		if typ != frameBackupManifest {
			return payload
		}
		var m BackupManifest
		if err := json.Unmarshal(payload, &m); err != nil {
			t.Fatal(err)
		}
		forge(&m)
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	})
}

// restoreAndVerifyForged rewrites the manifest of a full archive and
// hands the forgery to restore and to offline verification: both must
// succeed when refusal is nil and fail with that sentinel otherwise.
func restoreAndVerifyForged(t *testing.T, raw []byte, forge func(*BackupManifest), refusal error) {
	t.Helper()
	forged := writeArchive(t, forgeManifest(t, raw, forge))
	_, restoreErr := RestoreBackup(filepath.Join(t.TempDir(), "restored"), []string{forged}, RestoreOptions{})
	_, verifyErr := VerifyBackup([]string{forged}, VerifyBackupOptions{})
	for what, err := range map[string]error{"restore": restoreErr, "verify": verifyErr} {
		if refusal == nil && err != nil || refusal != nil && !errors.Is(err, refusal) {
			t.Fatalf("%s of the forged archive: %v, want %v", what, err, refusal)
		}
	}
}

// TestBackupArchMismatchRefused forges manifests the same way for
// restore and offline verification.
func TestBackupArchMismatchRefused(t *testing.T) {
	raw, manifest := oneTaskArchive(t)
	if manifest.Arch != runtime.GOARCH {
		t.Fatalf("manifest stamps arch %q, want %q", manifest.Arch, runtime.GOARCH)
	}
	for arch, refusal := range map[string]error{"": nil, runtime.GOARCH: nil, "not-" + runtime.GOARCH: ErrArchMismatch} {
		restoreAndVerifyForged(t, raw, func(m *BackupManifest) { m.Arch = arch }, refusal)
	}
}

// TestBackupKernelMismatchRefused: an archive cut by another kernel
// version — one without the stamp was cut by kernel 1 — is refused as
// what it is, a version skew. Verification would otherwise replay its
// feedback through this binary's arithmetic, miss the manifest's digest
// and call an honest archive corrupt (ErrBackupDigestMismatch).
func TestBackupKernelMismatchRefused(t *testing.T) {
	raw, manifest := oneTaskArchive(t)
	if manifest.Kernel != core.KernelVersion {
		t.Fatalf("manifest stamps kernel %d, want %d", manifest.Kernel, core.KernelVersion)
	}
	for kernel, refusal := range map[int]error{core.KernelVersion: nil, 0: ErrKernelMismatch, 1: ErrKernelMismatch, core.KernelVersion - 1: ErrKernelMismatch, core.KernelVersion + 1: ErrKernelMismatch} {
		restoreAndVerifyForged(t, raw, func(m *BackupManifest) { m.Kernel = kernel }, refusal)
	}
}

// TestReplicaTornRebootstrapKeepsDataset tears a re-bootstrap after its
// dataset frame: the follower's directory still holds a valid
// generation, and the dataset file that generation restarts from must
// not have been replaced by one whose model and snapshot never arrived.
func TestReplicaTornRebootstrapKeepsDataset(t *testing.T) {
	rig, src, _ := replPrimary(t)
	front := newForgeablePrimary(t, src.Stream())
	dir := t.TempDir()
	rep := startTestReplica(t, front.ts.URL, dir)
	rig.resolveOneTask(t, "a task the follower holds", []float64{4, 2})
	waitCaughtUp(t, rig, rep)
	before, err := os.ReadFile(rep.DB().DatasetPath())
	if err != nil {
		t.Fatal(err)
	}

	hello := helloOf(rig)
	hello.Bootstrap = true
	front.forgeHello(t, hello, func(w http.ResponseWriter, _ *http.Request) {
		_ = writeReplFrame(w, frameDataset, []byte(`{"workers": "torn`))
		var model bytes.Buffer
		_ = writeReplFrame(&model, frameModel, make([]byte, 256))
		_, _ = w.Write(model.Bytes()[:1+recordHeaderSize+10]) // the connection dies mid-frame
	})
	// The follower redials only after it has given up on a torn stream.
	waitUntil(t, "follower to work through a torn re-bootstrap", func() bool { return front.dials.Load() >= 2 })
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(filepath.Join(dir, "dataset.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("a torn re-bootstrap replaced dataset.json (%d → %d bytes)", len(before), len(after))
	}
	front.forge.Store(nil)
	rep = startTestReplica(t, front.ts.URL, dir)
	defer rep.Close()
	waitCaughtUp(t, rig, rep)
}

// TestReplicaFailingRebootstrapBacksOff: a re-bootstrap that fails after
// a successful dial — here its model checkpoint never loads — is retried
// with the doubling backoff of a failing dial. Retried at the initial
// delay, a follower downloads the whole bootstrap four times a second.
func TestReplicaFailingRebootstrapBacksOff(t *testing.T) {
	rig, src, _ := replPrimary(t)
	front := newForgeablePrimary(t, src.Stream())
	rep := startTestReplica(t, front.ts.URL, t.TempDir())
	defer rep.Close()
	waitCaughtUp(t, rig, rep)

	var mu sync.Mutex
	var attempts []time.Time
	hello := helloOf(rig)
	hello.Bootstrap = true
	front.forgeHello(t, hello, func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		attempts = append(attempts, testClock(t).Now())
		mu.Unlock()
		_ = writeReplFrame(w, frameModel, []byte("not a model checkpoint"))
		_ = writeReplFrame(w, frameSnapshot, []byte(`{"seq":0,"bytes":0,"store":{}}`))
	})
	const n = 6
	waitUntil(t, "six re-bootstrap attempts", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(attempts) >= n
	})
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < n; i++ {
		if gap, want := attempts[i].Sub(attempts[i-1]), reconnectBackoff<<(i-1); gap < want {
			t.Fatalf("re-bootstrap attempt %d came %v after the one before, want ≥ %v: the delay must double", i+1, gap, want)
		}
	}
}

// TestReplicaRebootstrapSwapsInsideQuiesce: a live re-bootstrap adopts
// the new store, model and replication position in one quiesced step,
// so no digest cut — GET /api/v1/digest, or the heartbeat a follower
// sends its own chained standby — hashes the adopted store beside the
// old model at the old seq. While the test holds Quiesce, a whole
// bootstrap of another lineage reaches the follower; none of it may be
// adopted until the test lets go.
func TestReplicaRebootstrapSwapsInsideQuiesce(t *testing.T) {
	rig, src, _ := replPrimary(t)
	front := newForgeablePrimary(t, src.Stream())
	rep := startTestReplica(t, front.ts.URL, t.TempDir())
	defer rep.Close()
	rig.resolveOneTask(t, "a task the follower holds", []float64{4, 2})
	waitCaughtUp(t, rig, rep)

	// Another lineage: its source answers the follower's resume, from a
	// history it never wrote, with a bootstrap.
	other, otherSrc, _ := replPrimary(t)
	other.resolveOneTask(t, "a task only the other lineage holds", []float64{5, 1})
	other.resolveOneTask(t, "and a second one", []float64{2, 3})

	storeDigest := func() string {
		t.Helper()
		d, err := rep.DB().Store().Digest()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	wantStore := storeDigest()
	wantSeq := rep.DB().ReplicationHead()
	bootstraps := rep.Status().Bootstraps

	held, release := make(chan struct{}), make(chan struct{})
	quiesced := make(chan error, 1)
	go func() {
		quiesced <- rep.mgr.Quiesce(func() error {
			close(held)
			<-release
			return nil
		})
	}()
	<-held
	forged := http.HandlerFunc(otherSrc.Stream().ServeHTTP)
	front.forge.Store(&forged)
	front.ts.CloseClientConnections()
	// The follower reads the whole bootstrap and parks on the held
	// Quiesce inside adopt; until the test lets go nothing may move.
	waitUntil(t, "follower to park its adoption on the held Quiesce", func() bool {
		return bytes.Contains(stacks(), []byte("crowdselect/internal/crowddb.(*DB).adopt"))
	})
	if seq, got := rep.DB().ReplicationHead(), storeDigest(); got != wantStore || seq != wantSeq {
		close(release)
		t.Fatalf("while Quiesce was held the follower moved to store %s at %d, from %s at %d",
			got, seq, wantStore, wantSeq)
	}
	close(release)
	if err := <-quiesced; err != nil {
		t.Fatal(err)
	}
	want := cutDigest(t, other)
	waitUntil(t, "follower to adopt the other lineage", func() bool {
		got, err := rep.Digest()
		return err == nil && got == want && rep.Status().Bootstraps > bootstraps
	})
}
