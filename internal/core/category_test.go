package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"

	"crowdselect/internal/rank"
	"crowdselect/internal/selcodec"
)

// TestFloat64SurvivesJSONBitForBit holds the premise the fleet's
// bitwise contract rests on since λ_c travels between shards as JSON:
// encoding/json writes the shortest decimal that round-trips, so every
// finite float64 — subnormals, −0 and the extremes included — comes
// back with the bits it left with, through encoding/json and through
// the hand codecs a fleet's selection legs go through.
func TestFloat64SurvivesJSONBitForBit(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, math.Pi, 1e21, 1e-7, 123456789.125,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		math.Float64frombits(0x0010000000000000), // smallest normal
	}
	rng := rand.New(rand.NewSource(20))
	for len(vals) < 1<<16 {
		// Uniform over bit patterns: every exponent, subnormals included.
		if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
			vals = append(vals, v)
		}
	}
	wire, err := json.Marshal(vals)
	if err != nil {
		t.Fatal(err)
	}
	var back []float64
	if err := json.Unmarshal(wire, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(vals) {
		t.Fatalf("%d values came back, sent %d", len(back), len(vals))
	}
	for i, v := range vals {
		if math.Float64bits(back[i]) != math.Float64bits(v) {
			t.Fatalf("value %d: sent bits %016x (%g), got %016x (%g)", i, math.Float64bits(v), v, math.Float64bits(back[i]), back[i])
		}
	}

	// The fleet's own codecs (internal/selcodec) carry the same bits: the
	// selections writer spells the values as encoding/json does, and the
	// selections scanner reads encoding/json's spelling back.
	resp, err := selcodec.AppendResponse(nil, nil, false, "", [][]float64{vals}, "v")
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"results":[],"model":"","categories":[` + string(wire) + `],"category_version":"v"}` + "\n"; string(resp) != want {
		t.Fatal("the selections writer spells the values otherwise than encoding/json")
	}
	var leg selcodec.Request
	if !leg.Scan([]byte(`{"tasks":[{"text":"","k":1}],"categories":[` + string(wire) + `],"category_version":"v"}`)) {
		t.Fatal("the selections scanner refused encoding/json's values")
	}
	for i, v := range vals {
		if got := leg.Cats[0][i]; math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("value %d: sent bits %016x (%g), scanned %016x (%g)", i, math.Float64bits(v), v, math.Float64bits(got), got)
		}
	}
}

func cloneViaSave(t testing.TB, m *Model) *Model {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// versionOf is c's category version, read under its read lock as the
// ranking calls read it.
func versionOf(c *ConcurrentModel) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.categoryVersionLocked()
}

// TestCategoryVersionFollowsTheEpoch: the version is a function of the
// category parameters alone. It is equal on two copies of one model
// whatever their worker posteriors hold, survives skill updates, and
// moves when — and only once the epoch says — the parameters changed.
func TestCategoryVersionFollowsTheEpoch(t *testing.T) {
	m, bags := firstBags(t, 5, 4)
	cm, twin := NewConcurrentModel(m), NewConcurrentModel(cloneViaSave(t, m))
	v0 := versionOf(cm)
	if len(v0) != 64 {
		t.Fatalf("version %q is not a hex sha256", v0)
	}
	if got := versionOf(twin); got != v0 {
		t.Fatalf("a reloaded copy has version %s, the original %s", got, v0)
	}

	cat := cm.Project(bags[0])
	for w := 0; w < 5; w++ {
		if err := cm.UpdateWorkerSkillDrift(w, []TaskCategory{cat}, []float64{4}, 0.01); err != nil {
			t.Fatal(err)
		}
	}
	if got := versionOf(cm); got != v0 {
		t.Errorf("skill updates moved the version: %s → %s", v0, got)
	}

	cm.Unwrap().MuC[0] += 1e-9
	if got := versionOf(cm); got != v0 {
		t.Errorf("the version was rehashed without an epoch advance")
	}
	cm.Replace(cm.Unwrap())
	v1 := versionOf(cm)
	if v1 == v0 {
		t.Error("Replace after a MuC change kept the version")
	}

	cm.Replace(twin.Unwrap())
	if got := versionOf(cm); got != v0 {
		t.Errorf("Replace with the original parameters: version %s, want %s", got, v0)
	}

	fewer := cloneViaSave(t, m)
	fewer.ProjectIters = 2
	if got := versionOf(NewConcurrentModel(fewer)); got == v0 {
		t.Error("a model that projects with fewer rounds shares the version")
	}

	// Equal parameters under another kernel are another version: the
	// binary before KernelVersion existed (1) and the next one.
	orig := twin.Unwrap() // m itself carries the 1e-9 from above
	if v0 != orig.categoryVersion(KernelVersion) {
		t.Errorf("the served version is not the one of kernel %d", KernelVersion)
	}
	for _, kernel := range []int{KernelVersion - 1, KernelVersion + 1} {
		other := NewConcurrentModel(cloneViaSave(t, orig))
		other.LabelKernelForTest(kernel)
		if got := versionOf(other); got == v0 || got != orig.categoryVersion(kernel) {
			t.Errorf("kernel %d over equal parameters reports version %s (this binary: %s)", kernel, got, v0)
		}
	}
}

// TestRankCategoriesScoredEqualsRankBatchScored: scoring the categories
// RankBatchProjected hands back — on another copy of the model, after a
// JSON round trip, as the fleet does — gives the ids and score bits of
// ranking the bags themselves, and does not touch the projection cache.
func TestRankCategoriesScoredEqualsRankBatchScored(t *testing.T) {
	m, bags := firstBags(t, 5, 8)
	projector, scorer := NewConcurrentModel(m), NewConcurrentModel(cloneViaSave(t, m))
	ctx := context.Background()
	cands := make([]int, m.M)
	for i := range cands {
		cands[i] = i
	}

	want, err := scorer.RankBatchScored(ctx, new(rank.Arena), bags, NewCandidates(cands), 6)
	if err != nil {
		t.Fatal(err)
	}
	own, flat, version, err := projector.RankBatchProjected(ctx, new(rank.Arena), []float64{-7}, bags, NewCandidates(cands), 6)
	if err != nil {
		t.Fatal(err)
	}
	if !sameItems(own, want) {
		t.Fatal("RankBatchProjected ranks differently from RankBatchScored")
	}
	if len(flat) != 1+m.K*len(bags) || flat[0] != -7 {
		t.Fatalf("RankBatchProjected appended %d components after the caller's one, want %d", len(flat)-1, m.K*len(bags))
	}
	cats := make([][]float64, len(bags))
	for i := range cats {
		cats[i] = flat[1+m.K*i : 1+m.K*(i+1)]
	}
	wire, err := json.Marshal(cats)
	if err != nil {
		t.Fatal(err)
	}
	var received [][]float64
	if err := json.Unmarshal(wire, &received); err != nil {
		t.Fatal(err)
	}

	before := scorer.CacheStats()
	got, err := scorer.RankCategoriesScored(ctx, new(rank.Arena), version, received, NewCandidates(cands), 6)
	if err != nil {
		t.Fatal(err)
	}
	if !sameItems(got, want) {
		t.Error("scoring the projected categories differs from ranking the bags")
	}
	if after := scorer.CacheStats(); after != before {
		t.Errorf("a score-only ranking touched the projection cache: %+v → %+v", before, after)
	}

	if _, err := scorer.RankCategoriesScored(ctx, new(rank.Arena), "stale", received, NewCandidates(cands), 6); !errors.Is(err, ErrCategoryVersion) {
		t.Errorf("a foreign version: %v, want ErrCategoryVersion", err)
	}
	// Categories from a binary of another kernel over the very same
	// parameters are refused too: its λ_c is not the one this model
	// would have produced.
	old := NewConcurrentModel(cloneViaSave(t, m))
	old.LabelKernelForTest(KernelVersion - 1)
	if _, err := scorer.RankCategoriesScored(ctx, new(rank.Arena), versionOf(old), received, NewCandidates(cands), 6); !errors.Is(err, ErrCategoryVersion) {
		t.Errorf("categories of another kernel version: %v, want ErrCategoryVersion", err)
	}
	for name, bad := range map[string][]float64{
		"short": received[0][:4],
		"NaN":   {0, 0, math.NaN(), 0, 0},
		"Inf":   {0, 0, 0, math.Inf(-1), 0},
	} {
		if _, err := scorer.RankCategoriesScored(ctx, new(rank.Arena), version, [][]float64{bad}, NewCandidates(cands), 6); !errors.Is(err, ErrBadCategory) {
			t.Errorf("%s category: %v, want ErrBadCategory", name, err)
		}
	}
}

// sameItems compares rankings by id and by score bits.
func sameItems(a, b [][]rank.Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j].ID != b[i][j].ID || math.Float64bits(a[i][j].Score) != math.Float64bits(b[i][j].Score) {
				return false
			}
		}
	}
	return true
}
