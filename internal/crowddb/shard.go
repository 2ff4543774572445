package crowddb

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Sharding partitions the crowd across N crowdd nodes by consistent
// hashing on worker id. Every shard trains and holds the full model
// (all skills live in one shared latent space, so Eq. 1 scores are
// comparable across shards), but each shard *owns* a disjoint subset
// of workers: it alone serves their presence, folds their skill
// feedback into the posterior, and offers them as selection
// candidates. A scatter-gather coordinator that merges per-shard
// top-k lists under the rank tie-break (score desc, id asc) therefore
// reproduces the single-node selection bit for bit — see DESIGN §11.
//
// Task ids are strided: shard i assigns ids ≡ i (mod N), so a task id
// names its home shard without a directory lookup and ids stay unique
// fleet-wide.

// shardVnodes is the number of virtual nodes each shard places on the
// hash ring. More vnodes smooth the worker distribution; the value is
// part of the wire contract (client and server must agree) and may
// only change together with a topology epoch bump across the fleet.
const shardVnodes = 64

// ShardSpec is a node's identity in an N-shard fleet: shard Index of
// Count. The zero value (and any Count <= 1) means unsharded — the
// node owns every worker and every task.
type ShardSpec struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// ParseShardSpec parses the crowdd -shard flag syntax "i/N" with
// 0 <= i < N. The empty string is the flag's documented default and
// parses to the zero (unsharded) spec.
func ParseShardSpec(s string) (ShardSpec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return ShardSpec{}, nil
	}
	parts := strings.Split(s, "/")
	if len(parts) != 2 {
		return ShardSpec{}, fmt.Errorf("shard spec %q: want i/N", s)
	}
	i, err1 := strconv.Atoi(parts[0])
	n, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil {
		return ShardSpec{}, fmt.Errorf("shard spec %q: want i/N", s)
	}
	if n < 1 || i < 0 || i >= n {
		return ShardSpec{}, fmt.Errorf("shard spec %q: index out of range", s)
	}
	return ShardSpec{Index: i, Count: n}, nil
}

// Enabled reports whether the spec actually partitions the fleet.
func (sp ShardSpec) Enabled() bool { return sp.Count > 1 }

// String renders the spec in the -shard flag syntax.
func (sp ShardSpec) String() string {
	if sp.Count < 1 {
		return "0/1"
	}
	return fmt.Sprintf("%d/%d", sp.Index, sp.Count)
}

// Owns reports whether this shard owns id under key k: always on an
// unsharded node or for KeyNone.
func (sp ShardSpec) Owns(k PartitionKey, id int) bool {
	return !sp.Enabled() || k == KeyNone || k.ShardOf(id, sp.Count) == sp.Index
}

// OwnsWorker reports whether this shard owns worker id on the ring.
func (sp ShardSpec) OwnsWorker(id int) bool { return sp.Owns(KeyWorker, id) }

// ShardOfTask returns the home shard of a strided task id.
func ShardOfTask(id, count int) int {
	if count <= 1 {
		return 0
	}
	return ((id % count) + count) % count
}

// ring is a consistent-hash ring over count shards, shardVnodes
// virtual nodes each. Rings are immutable once built and cached by
// count: ownership is a pure function of (worker id, shard count).
type ring struct {
	hashes []uint64 // sorted vnode positions
	owner  []int    // owner[i] = shard owning hashes[i]
}

var (
	ringMu    sync.Mutex
	ringCache = map[int]*ring{}
)

func ringFor(count int) *ring {
	ringMu.Lock()
	defer ringMu.Unlock()
	if r, ok := ringCache[count]; ok {
		return r
	}
	r := &ring{
		hashes: make([]uint64, 0, count*shardVnodes),
		owner:  make([]int, 0, count*shardVnodes),
	}
	type vnode struct {
		h     uint64
		shard int
	}
	vs := make([]vnode, 0, count*shardVnodes)
	for s := 0; s < count; s++ {
		for v := 0; v < shardVnodes; v++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "shard-%d/vnode-%d", s, v)
			vs = append(vs, vnode{h: h.Sum64(), shard: s})
		}
	}
	sort.Slice(vs, func(a, b int) bool {
		if vs[a].h != vs[b].h {
			return vs[a].h < vs[b].h
		}
		return vs[a].shard < vs[b].shard // deterministic on (absurdly unlikely) collisions
	})
	for _, v := range vs {
		r.hashes = append(r.hashes, v.h)
		r.owner = append(r.owner, v.shard)
	}
	ringCache[count] = r
	return r
}

// ShardOfWorker returns the shard owning worker id in a count-shard
// fleet: the worker's hash walks clockwise to the first virtual node.
// This is the single ownership function shared by servers and clients;
// both sides must agree or routing breaks.
func ShardOfWorker(id, count int) int {
	if count <= 1 {
		return 0
	}
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(id) >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	key := h.Sum64()
	r := ringFor(count)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= key })
	if i == len(r.hashes) {
		i = 0
	}
	return r.owner[i]
}

// ErrWrongShard tags mutations routed to a shard that does not own the
// worker or task they touch. Sentinel for errors.Is; the concrete type
// carrying the owner hint is WrongShardError.
var ErrWrongShard = errors.New("wrong shard")

// WrongShardError reports a misrouted request plus the owner hint the
// 421 response carries, so a router can re-aim without a directory.
type WrongShardError struct {
	Resource string // "worker" | "task"
	ID       int
	Owner    int // owning shard index
}

func (e *WrongShardError) Error() string {
	return fmt.Sprintf("%s %d is owned by shard %d", e.Resource, e.ID, e.Owner)
}

// Is makes errors.Is(err, ErrWrongShard) hold for typed wrong-shard
// errors.
func (e *WrongShardError) Is(target error) bool { return target == ErrWrongShard }

// ShardAddr is one shard's entry in the topology document.
type ShardAddr struct {
	Index    int      `json:"index"`
	URL      string   `json:"url"`
	Replicas []string `json:"replicas,omitempty"`
}

// Topology is the fleet layout document served at
// GET /api/v1/topology. Epoch is a fleet-wide version: any change to
// the layout (a promotion, a replacement node) must bump it, and
// routers treat the highest epoch they have seen as authoritative.
type Topology struct {
	Epoch  uint64      `json:"epoch"`
	Count  int         `json:"count"`
	Self   int         `json:"self,omitempty"`
	Shards []ShardAddr `json:"shards"`
}

// Validate checks internal consistency: Count shards, indices 0..N-1
// each present exactly once with a URL.
func (t Topology) Validate() error {
	if t.Count < 1 {
		return fmt.Errorf("topology: count %d < 1", t.Count)
	}
	if len(t.Shards) != t.Count {
		return fmt.Errorf("topology: %d shard entries for count %d", len(t.Shards), t.Count)
	}
	seen := make(map[int]bool, t.Count)
	for _, sh := range t.Shards {
		if sh.Index < 0 || sh.Index >= t.Count {
			return fmt.Errorf("topology: shard index %d out of range", sh.Index)
		}
		if seen[sh.Index] {
			return fmt.Errorf("topology: duplicate shard index %d", sh.Index)
		}
		if strings.TrimSpace(sh.URL) == "" {
			return fmt.Errorf("topology: shard %d has no URL", sh.Index)
		}
		seen[sh.Index] = true
	}
	return nil
}

// URLOf returns the base URL of shard index, or "" when absent.
func (t Topology) URLOf(index int) string {
	for _, sh := range t.Shards {
		if sh.Index == index {
			return sh.URL
		}
	}
	return ""
}

// clone deep-copies the document so concurrent readers never share
// slices with an update.
func (t Topology) clone() Topology {
	out := t
	out.Shards = make([]ShardAddr, len(t.Shards))
	copy(out.Shards, t.Shards)
	for i := range out.Shards {
		out.Shards[i].Replicas = append([]string(nil), t.Shards[i].Replicas...)
	}
	return out
}

// topologyState is the server-side holder for the live topology
// document, guarded for concurrent reads against admin updates.
type topologyState struct {
	mu  sync.RWMutex
	doc Topology
}

func (ts *topologyState) get() Topology {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	return ts.doc.clone()
}

// set installs doc if it is valid and not older than the current
// epoch. An equal epoch is accepted only idempotently — the layout
// must be identical shard for shard; any change requires an epoch
// bump, or two conflicting same-epoch pushes could leave nodes with
// permanently divergent layouts that "highest epoch wins" can never
// reconcile. A stale epoch is refused so a partitioned admin cannot
// roll the fleet backwards.
func (ts *topologyState) set(doc Topology) error {
	if err := doc.Validate(); err != nil {
		return fmt.Errorf("%w: %s", ErrBadRequest, err)
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.doc.Epoch > doc.Epoch {
		return fmt.Errorf("%w: topology epoch %d is older than current %d", ErrStaleEpoch, doc.Epoch, ts.doc.Epoch)
	}
	if ts.doc.Count > 0 && doc.Count != ts.doc.Count {
		return fmt.Errorf("%w: shard count cannot change from %d to %d without resharding", ErrBadRequest, ts.doc.Count, doc.Count)
	}
	if ts.doc.Count > 0 && doc.Epoch == ts.doc.Epoch && !sameLayout(ts.doc, doc) {
		return fmt.Errorf("%w: conflicting layout at epoch %d; bump the epoch to change the topology", ErrBadRequest, doc.Epoch)
	}
	self := ts.doc.Self
	ts.doc = doc.clone()
	ts.doc.Self = self
	return nil
}

// sameLayout reports whether two valid topology documents describe the
// same fleet: same count and, shard for shard, the same URL and
// replica list (order-sensitive — replica order is part of the
// document).
func sameLayout(a, b Topology) bool {
	if a.Count != b.Count {
		return false
	}
	for _, sh := range a.Shards {
		other := -1
		for j, bs := range b.Shards {
			if bs.Index == sh.Index {
				other = j
				break
			}
		}
		if other < 0 {
			return false
		}
		bs := b.Shards[other]
		if bs.URL != sh.URL || len(bs.Replicas) != len(sh.Replicas) {
			return false
		}
		for k := range sh.Replicas {
			if sh.Replicas[k] != bs.Replicas[k] {
				return false
			}
		}
	}
	return true
}

// ErrStaleEpoch rejects a topology update older than the one already
// installed.
var ErrStaleEpoch = errors.New("stale topology epoch")
