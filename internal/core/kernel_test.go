package core

import (
	"math/rand"
	"reflect"
	"testing"

	"crowdselect/internal/linalg"
	"crowdselect/internal/race"
	"crowdselect/internal/text"
)

func firstBags(t *testing.T, k, n int) (*Model, []text.Bag) {
	t.Helper()
	d, m, _ := trainSmall(t, k)
	bags := make([]text.Bag, n)
	for i := range bags {
		bags[i] = d.Tasks[i].Bag(d.Vocab)
	}
	return m, bags
}

// TestProjectUnaffectedBySkillUpdates holds the premise the projection
// cache's epoch rests on: Project reads no worker posterior, so 200
// committed skill updates on the same model change no bit of any
// projection. If Project ever starts reading LambdaW/NuW2 this fails,
// and UpdateWorkerSkillDrift must go back to advancing the epoch.
func TestProjectUnaffectedBySkillUpdates(t *testing.T) {
	m, bags := firstBags(t, 5, 32)
	before := make([]TaskCategory, len(bags))
	for i, bag := range bags {
		before[i] = m.Project(bag)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(3)
		cats, scores := make([]TaskCategory, n), make([]float64, n)
		for e := range cats {
			cats[e], scores[e] = before[rng.Intn(len(before))], float64(1+rng.Intn(5))
		}
		if err := m.UpdateWorkerSkillDrift(rng.Intn(m.M), cats, scores, 0.02*rng.Float64()); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	for i, bag := range bags {
		if after := m.Project(bag); !reflect.DeepEqual(after, before[i]) {
			t.Fatalf("bag %d projects differently after skill updates:\n before %v\n after  %v", i, before[i], after)
		}
	}
}

// TestProjectResultOutlivesScratch: the optimizer's Result.X aliases
// the pooled workspace, so Project must copy the optimum out before the
// next round — and the next call — reuses it. A returned category keeps
// its bits while later projections churn the same scratch. The same
// holds one layer up: the projection cache overwrites the entry it
// evicts, vectors included, so what a hit hands out must be a copy that
// survives the entry's reuse.
func TestProjectResultOutlivesScratch(t *testing.T) {
	m, bags := firstBags(t, 5, 8)
	first := m.Project(bags[0])
	kept := first.clone()
	for _, bag := range bags[1:] {
		m.Project(bag)
	}
	if !reflect.DeepEqual(first, kept) {
		t.Error("a later projection overwrote an earlier result")
	}
	if again := m.Project(bags[0]); !reflect.DeepEqual(again, kept) {
		t.Error("projection depends on what the scratch held before")
	}

	cm := NewConcurrentModel(m)
	cm.SetProjectionCacheCapacity(1)
	missed, hit := cm.Project(bags[0]), cm.Project(bags[0])
	if st := cm.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("want one miss then one hit, got %+v", st)
	}
	for _, bag := range bags[1:] { // each insert evicts and reuses the one entry
		cm.Project(bag)
	}
	if !reflect.DeepEqual(missed, kept) || !reflect.DeepEqual(hit, kept) {
		t.Error("a category handed out by the cache changed when its entry was evicted and reused")
	}
	last := bags[len(bags)-1]
	if got := cm.Project(last); !reflect.DeepEqual(got, m.Project(last)) || cm.CacheStats().Hits != 2 {
		t.Errorf("the reused entry serves %v (stats %+v), want the projection of the bag stored last", got, cm.CacheStats())
	}
}

// The allocation gates of the kernel. A cache-miss projection allocates
// the two vectors it returns and nothing else; the task objective
// evaluates in its own buffers.
func TestProjectMissAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under -race; run `make allocs`")
	}
	m, bags := firstBags(t, 5, 16)
	for _, bag := range bags {
		m.Project(bag) // warm the pooled scratch to the largest bag
	}
	i := 0
	if a := testing.AllocsPerRun(64, func() { m.Project(bags[i%len(bags)]); i++ }); a > 2 {
		t.Errorf("Model.Project: %v allocations per miss, want ≤ 2 (λ and ν²)", a)
	}
}

func TestTaskObjectiveAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under -race; run `make allocs`")
	}
	d := smallDataset(t)
	tr := newTrainer(tasksFromDataset(d), len(d.Workers), d.Vocab.Size(), NewConfig(5))
	s := newTaskSolver()
	for _, withFeedback := range []bool{true, false} {
		tr.loadTaskObjective(&s.obj, 0, withFeedback)
		x, g := linalg.ConstVector(10, 0.1), make(linalg.Vector, 10)
		if a := testing.AllocsPerRun(20, func() { s.obj.value(x) }); a != 0 {
			t.Errorf("feedback=%v: value allocates %v times, want 0", withFeedback, a)
		}
		if a := testing.AllocsPerRun(20, func() { s.obj.grad(x, g) }); a != 0 {
			t.Errorf("feedback=%v: grad allocates %v times, want 0", withFeedback, a)
		}
		if a := testing.AllocsPerRun(20, func() { tr.updateLambdaNuC(s, 0, withFeedback) }); a != 0 {
			t.Errorf("feedback=%v: a warm E-step solve allocates %v times, want 0", withFeedback, a)
		}
	}
}
