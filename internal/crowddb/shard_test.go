package crowddb

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
)

func TestParseShardSpec(t *testing.T) {
	good := map[string]ShardSpec{
		"":      {}, // flag default: unsharded
		"  ":    {},
		"0/1":   {Index: 0, Count: 1},
		"0/2":   {Index: 0, Count: 2},
		"3/4":   {Index: 3, Count: 4},
		" 1/2 ": {Index: 1, Count: 2},
	}
	for in, want := range good {
		got, err := ParseShardSpec(in)
		if err != nil || got != want {
			t.Errorf("ParseShardSpec(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"2", "a/b", "2/2", "-1/2", "0/0", "1/0", "1/2/3"} {
		if _, err := ParseShardSpec(in); err == nil {
			t.Errorf("ParseShardSpec(%q) accepted", in)
		}
	}
}

func TestShardSpecOwnership(t *testing.T) {
	solo := ShardSpec{}
	if solo.Enabled() {
		t.Error("zero spec reports enabled")
	}
	if !solo.OwnsWorker(42) || !solo.OwnsTask(42) {
		t.Error("unsharded node must own everything")
	}
	sp := ShardSpec{Index: 1, Count: 3}
	if got := sp.String(); got != "1/3" {
		t.Errorf("String() = %q", got)
	}
	for id := 0; id < 50; id++ {
		if sp.OwnsTask(id) != (id%3 == 1) {
			t.Errorf("OwnsTask(%d) wrong under stride", id)
		}
		if sp.OwnsWorker(id) != (ShardOfWorker(id, 3) == 1) {
			t.Errorf("OwnsWorker(%d) disagrees with ShardOfWorker", id)
		}
	}
}

// TestShardOfWorkerDeterministicAndComplete pins the two properties the
// fleet depends on: ownership is a stable pure function of
// (id, count) — client and server compute it independently — and every
// worker has exactly one owner in range.
func TestShardOfWorkerDeterministicAndComplete(t *testing.T) {
	for _, count := range []int{1, 2, 3, 4, 8} {
		seen := make(map[int]int)
		for id := 0; id < 500; id++ {
			s := ShardOfWorker(id, count)
			if s < 0 || s >= count {
				t.Fatalf("ShardOfWorker(%d, %d) = %d out of range", id, count, s)
			}
			if again := ShardOfWorker(id, count); again != s {
				t.Fatalf("ShardOfWorker(%d, %d) not deterministic: %d then %d", id, count, s, again)
			}
			seen[s]++
		}
		if count > 1 {
			for s := 0; s < count; s++ {
				if seen[s] == 0 {
					t.Errorf("count=%d: shard %d owns no worker out of 500 — ring badly skewed", count, s)
				}
			}
		}
	}
}

// TestPartitionWorkersCoversEveryID: the shards of a fleet partition the
// crowd — every worker id is owned by exactly one ShardSpec, the one
// ShardOfWorker names — and an unsharded spec owns them all.
func TestPartitionWorkersCoversEveryID(t *testing.T) {
	for id := 0; id < 1400; id += 7 {
		owners := 0
		for i := 0; i < 4; i++ {
			if (ShardSpec{Index: i, Count: 4}).OwnsWorker(id) {
				owners++
				if ShardOfWorker(id, 4) != i {
					t.Errorf("id %d owned by shard %d, ShardOfWorker says %d", id, i, ShardOfWorker(id, 4))
				}
			}
		}
		if owners != 1 {
			t.Errorf("id %d has %d owners among 4 shards, want 1", id, owners)
		}
		if !(ShardSpec{}).OwnsWorker(id) || !(ShardSpec{Index: 0, Count: 1}).OwnsWorker(id) {
			t.Errorf("an unsharded spec does not own id %d", id)
		}
	}
}

// TestStoreStridedTaskIDs verifies a sharded store mints ids ≡ index
// (mod count), including immediately after a snapshot restore.
func TestStoreStridedTaskIDs(t *testing.T) {
	store := NewStore()
	store.ConfigureTaskIDStride(2, 3)
	var ids []int
	for i := 0; i < 5; i++ {
		rec, err := store.AddTask(fmt.Sprintf("task %d", i), []string{"tok"})
		if err != nil {
			t.Fatal(err)
		}
		if rec.ID%3 != 2 {
			t.Fatalf("task id %d not ≡ 2 (mod 3)", rec.ID)
		}
		ids = append(ids, rec.ID)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1]+3 {
			t.Fatalf("ids not strided by 3: %v", ids)
		}
	}

	// A snapshot from an unsharded (or differently-strided) peer must
	// re-align the next id on restore.
	var buf bytes.Buffer
	if err := NewStore().Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	snap["next_tid"] = 7 // ≡ 1 (mod 3): misaligned for shard 2
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewStore()
	fresh.ConfigureTaskIDStride(2, 3)
	if err := fresh.RestoreSnapshot(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	rec, err := fresh.AddTask("after restore", []string{"tok"})
	if err != nil {
		t.Fatal(err)
	}
	if rec.ID%3 != 2 || rec.ID < 7 {
		t.Fatalf("post-restore id %d not the next aligned id after 7", rec.ID)
	}
}

func TestWrongShardError(t *testing.T) {
	err := &WrongShardError{Resource: "worker", ID: 9, Owner: 2}
	if !errors.Is(err, ErrWrongShard) {
		t.Error("errors.Is(ErrWrongShard) false")
	}
	var ws *WrongShardError
	if !errors.As(fmt.Errorf("wrapped: %w", err), &ws) || ws.Owner != 2 {
		t.Error("errors.As through wrapping failed")
	}
}

func TestTopologyValidate(t *testing.T) {
	ok := Topology{Epoch: 1, Count: 2, Shards: []ShardAddr{
		{Index: 0, URL: "http://a"}, {Index: 1, URL: "http://b"},
	}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid doc refused: %v", err)
	}
	bad := []Topology{
		{Count: 0},
		{Count: 2, Shards: []ShardAddr{{Index: 0, URL: "http://a"}}},
		{Count: 2, Shards: []ShardAddr{{Index: 0, URL: "http://a"}, {Index: 0, URL: "http://b"}}},
		{Count: 2, Shards: []ShardAddr{{Index: 0, URL: "http://a"}, {Index: 2, URL: "http://b"}}},
		{Count: 2, Shards: []ShardAddr{{Index: 0, URL: "http://a"}, {Index: 1, URL: "  "}}},
	}
	for i, doc := range bad {
		if err := doc.Validate(); err == nil {
			t.Errorf("bad doc %d accepted", i)
		}
	}
}

func TestTopologyStateEpochs(t *testing.T) {
	var ts topologyState
	doc := func(epoch uint64, urls ...string) Topology {
		d := Topology{Epoch: epoch, Count: len(urls)}
		for i, u := range urls {
			d.Shards = append(d.Shards, ShardAddr{Index: i, URL: u})
		}
		return d
	}
	if err := ts.set(doc(1, "http://a", "http://b")); err != nil {
		t.Fatal(err)
	}
	if err := ts.set(doc(3, "http://a2", "http://b")); err != nil {
		t.Fatal(err)
	}
	if got := ts.get(); got.Epoch != 3 || got.URLOf(0) != "http://a2" {
		t.Fatalf("newer epoch not installed: %+v", got)
	}
	err := ts.set(doc(2, "http://stale", "http://b"))
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale epoch: got %v", err)
	}
	if err := ts.set(doc(4, "http://a", "http://b", "http://c")); err == nil {
		t.Fatal("shard-count change accepted")
	}
	if got := ts.get(); got.Epoch != 3 {
		t.Fatalf("refused update mutated state: %+v", got)
	}

	// Equal epoch: identical layout re-push is idempotent, but a
	// conflicting layout at the same epoch is refused — it must bump
	// the epoch, or nodes that saw different pushes could never
	// converge ("highest epoch wins" cannot break a same-epoch tie).
	if err := ts.set(doc(3, "http://a2", "http://b")); err != nil {
		t.Fatalf("idempotent same-epoch re-push refused: %v", err)
	}
	if err := ts.set(doc(3, "http://conflict", "http://b")); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("conflicting same-epoch layout: got %v", err)
	}
	conflicting := doc(3, "http://a2", "http://b")
	conflicting.Shards[1].Replicas = []string{"http://b-standby"}
	if err := ts.set(conflicting); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("conflicting same-epoch replica list: got %v", err)
	}
	if got := ts.get(); got.URLOf(0) != "http://a2" {
		t.Fatalf("conflict refusal mutated state: %+v", got)
	}
}
