package core

import (
	"slices"
	"sync"
	"testing"

	"crowdselect/internal/text"
)

func TestConcurrentModelDelegates(t *testing.T) {
	d, m, _ := trainSmall(t, 5)
	cm := NewConcurrentModel(m)
	if cm.Name() != m.Name() {
		t.Errorf("name mismatch: %s", cm.Name())
	}
	bag := d.Tasks[0].Bag(d.Vocab)
	want := m.Project(bag)
	got := cm.Project(bag)
	if !slices.Equal(got.Lambda, want.Lambda) || !slices.Equal(got.Nu2, want.Nu2) {
		t.Error("Project differs from the underlying model")
	}
	cands := []int{0, 1, 2, 3, 4}
	wantRank := m.Rank(bag, cands)
	gotRank := cm.Rank(bag, cands)
	for i := range wantRank {
		if gotRank[i] != wantRank[i] {
			t.Fatalf("Rank = %v, want %v", gotRank, wantRank)
		}
	}
	if cm.Unwrap() != m {
		t.Error("Unwrap did not return the wrapped model")
	}
}

// TestConcurrentModelSelectVsUpdateRace drives selection reads against
// posterior writes from many goroutines. Run under -race this fails on
// an unwrapped Model: UpdateWorkerSkillDrift swaps LambdaW/NuW2
// entries that Rank is reading.
func TestConcurrentModelSelectVsUpdateRace(t *testing.T) {
	d, m, _ := trainSmall(t, 4)
	cm := NewConcurrentModel(m)
	bag := d.Tasks[1].Bag(d.Vocab)
	cat := cm.Project(bag)
	cands := make([]int, m.M)
	for i := range cands {
		cands[i] = i
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got := cm.Rank(bag, cands); len(got) != len(cands) {
					t.Errorf("Rank returned %d of %d candidates", len(got), len(cands))
					return
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := cm.UpdateWorkerSkillDrift(worker, []TaskCategory{cat}, []float64{float64(i % 7)}, 0.01); err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// Interface conformance: the wrapper must be usable anywhere the bare
// model is used for serving.
var _ interface {
	Name() string
	Rank(bag text.Bag, candidates []int) []int
	Project(bag text.Bag) TaskCategory
	UpdateWorkerSkill(worker int, cats []TaskCategory, scores []float64) error
} = (*ConcurrentModel)(nil)
