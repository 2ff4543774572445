package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"crowdselect/internal/crowdclient"
	"crowdselect/internal/crowddb"
	"crowdselect/internal/faultfs"
)

// corruptModelValue flips one stored posterior digit inside an at-rest
// model checkpoint, keeping the JSON parseable: the damage survives a
// parse-validating boot and is only observable as a wrong value — the
// exact rot the digest heartbeat exists to catch.
func corruptModelValue(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, []byte(`"lambda_w":[[`))
	if at < 0 {
		t.Fatalf("no lambda_w posteriors in %s", path)
	}
	for i := at + len(`"lambda_w":[[`); i < len(data); i++ {
		if c := data[i]; c >= '0' && c <= '9' {
			repl := byte('7')
			if c == '7' {
				repl = '2'
			}
			if err := faultfs.OverwriteByte(path, int64(i), repl); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("no digit found after lambda_w in %s", path)
}

// TestChaosFollowerAtRestCorruptionQuarantineAndRepair is the headline
// integrity drill. A follower is stopped, one posterior digit in its
// at-rest model checkpoint is flipped (still valid JSON, so recovery
// replays it without complaint), and the follower restarts over the
// rotted state. The digest-carrying heartbeat catches the divergence
// as soon as positions match, the follower quarantines itself, forces
// a re-bootstrap through the snapshot stream, and converges back to a
// byte-identical model with every acked mutation applied exactly once.
func TestChaosFollowerAtRestCorruptionQuarantineAndRepair(t *testing.T) {
	primary := newReplPrimary(t)
	ctx := context.Background()
	multi, err := crowdclient.NewMulti([]string{primary.ts.URL}, crowdclient.Options{
		Timeout: 2 * time.Second,
		Retries: 2,
		Backoff: time.Millisecond,
		Sleep:   func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	rep, _ := startFollowerDir(t, primary.ts.URL, dir)
	caughtUp := func(r *crowddb.Replica) func() bool {
		return func() bool {
			pseq, _ := primary.db.ReplicationHead()
			return r.Status().AppliedSeq == pseq
		}
	}

	// Phase 1: acked traffic lands on both nodes.
	acked := make(map[int]string)
	for i := 0; i < 6; i++ {
		text := fmt.Sprintf("integrity drill question %d about index selection", i)
		acked[resolveVia(t, ctx, multi, text)] = text
	}
	waitFor(t, "follower caught up before the corruption", caughtUp(rep.Replica))

	// Phase 2: stop the follower and flip a posterior digit at rest.
	gen := rep.DB().Generation()
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}
	corruptModelValue(t, filepath.Join(dir, fmt.Sprintf("model-%08d.json", gen)))

	// Phase 3: the follower restarts over the rotted checkpoint.
	// Recovery parses it fine — nothing is locally wrong — but the
	// first digest heartbeat at matching positions exposes it.
	rep2, ts2 := startFollowerDir(t, primary.ts.URL, dir)
	waitFor(t, "divergence detected by heartbeat", func() bool {
		return rep2.Status().Divergences >= 1
	})

	// While quarantined the follower refuses promotion with the typed
	// 409; the auto-repair races this probe, so a success is accepted
	// only once the quarantine has provably lifted.
	cli := crowdclient.New(ts2.URL, crowdclient.Options{Timeout: 5 * time.Second})
	if _, err := cli.Promote(ctx); err != nil {
		var he *crowdclient.APIError
		if !errors.As(err, &he) || he.StatusCode != http.StatusConflict || he.Code != "replica_diverged" {
			t.Fatalf("promote while diverged = %v, want 409 replica_diverged", err)
		}
	} else if st := rep2.Status(); st.Diverged {
		t.Fatalf("promotion succeeded while still quarantined: %+v", st)
	} else {
		t.Fatal("promotion succeeded before the repair completed")
	}

	// Phase 4: forced re-bootstrap repairs it; more acked traffic, then
	// byte-identical convergence.
	waitFor(t, "quarantine lifted by re-bootstrap", func() bool {
		st := rep2.Status()
		return st.Repairs >= 1 && !st.Diverged
	})
	for i := 0; i < 3; i++ {
		text := fmt.Sprintf("post-repair question %d about join ordering", i)
		acked[resolveVia(t, ctx, multi, text)] = text
	}
	waitFor(t, "follower caught up after the repair", caughtUp(rep2.Replica))

	if !bytes.Equal(modelBytes(t, primary.cm), modelBytes(t, rep2.cm)) {
		t.Fatal("follower model not byte-identical to the primary after repair")
	}
	if got, want := rep2.DB().Store().NumTasks(), primary.db.Store().NumTasks(); got != want {
		t.Fatalf("follower has %d tasks, primary %d", got, want)
	}
	for id := range acked {
		if _, err := rep2.DB().Store().GetTask(id); err != nil {
			t.Fatalf("acked task %d missing on repaired follower: %v", id, err)
		}
	}
	wantCut, err := crowddb.NewDigestCutter(primary.db, primary.mgr).Cut()
	if err != nil {
		t.Fatal(err)
	}
	gotCut, err := rep2.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if gotCut != wantCut {
		t.Fatalf("digests disagree after repair:\nprimary %+v\nfollower %+v", wantCut, gotCut)
	}
}

// TestChaosPrimaryScrubberCatchesAtRestCorruption is the scrubber
// drill: a bit flipped inside a committed WAL record on the primary is
// found by the background scrub loop, which flips the node to degraded
// read-only — mutations refuse with the typed degraded error while
// reads keep answering — before the corrupt bytes can be served or
// replicated to a new follower.
func TestChaosPrimaryScrubberCatchesAtRestCorruption(t *testing.T) {
	primary := newReplPrimary(t)
	ctx := context.Background()
	multi, err := crowdclient.NewMulti([]string{primary.ts.URL}, crowdclient.Options{
		Timeout: 2 * time.Second,
		Retries: 2,
		Backoff: time.Millisecond,
		Sleep:   func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	resolveVia(t, ctx, multi, "scrubber drill question about predicate pushdown")
	resolveVia(t, ctx, multi, "scrubber drill question about cardinality estimates")

	// Flip one payload bit in the FIRST committed record — mid-file
	// damage, unambiguously not a torn tail.
	jpath := filepath.Join(filepath.Dir(primary.db.DatasetPath()),
		fmt.Sprintf("journal-%08d.wal", primary.db.Generation()))
	if err := faultfs.FlipBit(jpath, 10, 4); err != nil {
		t.Fatal(err)
	}

	// The 25ms background scrubber finds it without any request
	// touching the damaged range.
	waitFor(t, "scrubber degraded the primary", primary.db.Degraded)
	st := primary.db.ScrubStats()
	if !st.ScrubFailed || st.ScrubFailures < 1 || st.LastError == "" {
		t.Fatalf("scrub stats after detection = %+v", st)
	}

	// Mutations refuse; reads and health keep answering, with the
	// integrity section naming the failure.
	if _, err := multi.SubmitTask(ctx, "refused while degraded", 2); err == nil {
		t.Fatal("mutation accepted on a scrub-degraded primary")
	}
	resp, err := http.Get(primary.ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready crowddb.ReadyzResponse
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ready.Integrity == nil || !ready.Integrity.ScrubFailed {
		t.Fatalf("readyz integrity = %+v, want scrub_failed", ready.Integrity)
	}
}
