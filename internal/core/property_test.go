package core

import (
	"context"
	"slices"
	"testing"

	"crowdselect/internal/linalg"
	"crowdselect/internal/randx"
	"crowdselect/internal/text"
)

// Property: ranking is invariant under permutation of the candidate
// slice — the crowd manager must not depend on the order the store
// returns workers.
func TestRankPermutationInvariant(t *testing.T) {
	d, m, _ := trainSmall(t, 5)
	rng := randx.New(17)
	for trial := 0; trial < 25; trial++ {
		task := d.Tasks[rng.Intn(len(d.Tasks))]
		cands := make([]int, len(task.Responses))
		for i, r := range task.Responses {
			cands[i] = r.Worker
		}
		if len(cands) < 2 {
			continue
		}
		bag := task.Bag(d.Vocab)
		want := m.Rank(bag, cands)
		shuffled := append([]int(nil), cands...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		got := m.Rank(bag, shuffled)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d: ranking depends on candidate order: %v vs %v", trial, want, got)
			}
		}
	}
}

// Property: Project is deterministic — the same bag always yields the
// same posterior (Algorithm 3 has no internal randomness until the
// optional sampling step).
func TestProjectDeterministic(t *testing.T) {
	d, m, _ := trainSmall(t, 5)
	for _, task := range d.Tasks[:10] {
		bag := task.Bag(d.Vocab)
		a := m.Project(bag)
		b := m.Project(bag)
		if !slices.Equal(a.Lambda, b.Lambda) || !slices.Equal(a.Nu2, b.Nu2) {
			t.Fatalf("projection not deterministic on task %d", task.ID)
		}
	}
}

// Property: Score is linear in the category vector — Score(w, a·c) ==
// a·Score(w, c). Selection is therefore invariant to positive scaling
// of the projected category.
func TestScoreLinearity(t *testing.T) {
	_, m, _ := trainSmall(t, 5)
	rng := randx.New(23)
	for trial := 0; trial < 100; trial++ {
		c := stdNormalVec(rng, m.K)
		w := rng.Intn(m.M)
		a := 0.5 + rng.Float64()*3
		lhs := m.Score(w, c.Scale(a))
		rhs := a * m.Score(w, c)
		if diff := lhs - rhs; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("Score not linear: %v vs %v", lhs, rhs)
		}
	}
}

// Property: projected posterior variances are strictly positive and
// finite for every training task.
func TestProjectVariancesPositive(t *testing.T) {
	d, m, _ := trainSmall(t, 5)
	for _, task := range d.Tasks[:20] {
		cat := m.Project(task.Bag(d.Vocab))
		if !cat.Lambda.IsFinite() {
			t.Fatalf("task %d: non-finite λ", task.ID)
		}
		for k, v := range cat.Nu2 {
			if !(v > 0) || v != v {
				t.Fatalf("task %d: ν²[%d] = %v", task.ID, k, v)
			}
		}
	}
}

// The batch projection behind every cache miss (projectInto) must
// agree with per-bag Project at any width.
func TestProjectAllMatchesProject(t *testing.T) {
	d, m, _ := trainSmall(t, 4)
	var inputs []text.Bag
	for _, task := range d.Tasks[:12] {
		inputs = append(inputs, task.Bag(d.Vocab))
	}
	for _, p := range []int{0, 1, 3, 8} {
		got := make([]TaskCategory, len(inputs))
		for i := range got {
			got[i] = TaskCategory{Lambda: make(linalg.Vector, m.K), Nu2: make(linalg.Vector, m.K)}
		}
		if err := m.projectInto(context.Background(), newFanOut(p), inputs, got); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for i, bag := range inputs {
			want := m.Project(bag)
			if !slices.Equal(got[i].Lambda, want.Lambda) || !slices.Equal(got[i].Nu2, want.Nu2) {
				t.Fatalf("p=%d: projection %d differs", p, i)
			}
		}
	}
}

// Property: more sweeps never produce invalid state — train with a
// range of iteration budgets and check the invariants hold at each.
func TestTrainBudgetsProduceValidModels(t *testing.T) {
	d := smallDataset(t)
	tasks := tasksFromDataset(d)
	for _, iters := range []int{1, 2, 5} {
		cfg := NewConfig(4)
		cfg.MaxIter = iters
		m, st, err := Train(tasks, len(d.Workers), d.Vocab.Size(), cfg)
		if err != nil {
			t.Fatalf("iters=%d: %v", iters, err)
		}
		if st.Sweeps != iters {
			t.Errorf("iters=%d: ran %d sweeps", iters, st.Sweeps)
		}
		if m.Tau2 <= 0 || !m.MuW.IsFinite() || !linalg.Vector(m.SigmaW.Data).IsFinite() {
			t.Fatalf("iters=%d: invalid model state", iters)
		}
		for i := 0; i < m.M; i++ {
			for _, v := range m.NuW2[i] {
				if !(v > 0) {
					t.Fatalf("iters=%d: worker %d non-positive variance", iters, i)
				}
			}
		}
	}
}
