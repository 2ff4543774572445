package eval

import (
	"testing"

	"crowdselect/internal/core"
	"crowdselect/internal/corpus"
)

// streamTop1 trains on the first 60% of the corpus (in arrival order)
// and routes the rest as a stream, optionally folding each resolved
// task back into the model with process noise q.
func streamTop1(t *testing.T, d *corpus.Dataset, update bool, q float64) float64 {
	t.Helper()
	all := ResolvedTasks(d)
	split := len(all) * 6 / 10
	cfg := core.NewConfig(10)
	m, _, err := core.Train(all[:split], len(d.Workers), d.Vocab.Size(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	hits, total := 0, 0
	for j := split; j < len(all); j++ {
		task := d.Tasks[j]
		if len(task.Responses) < 2 {
			continue
		}
		best, _ := task.BestWorker()
		cands := make([]int, len(task.Responses))
		for i, r := range task.Responses {
			cands[i] = r.Worker
		}
		cat := m.Project(task.Bag(d.Vocab))
		if sel := m.SelectTopK(cat.Mean(), cands, 1); len(sel) == 1 && sel[0] == best {
			hits++
		}
		total++
		if update {
			for _, r := range task.Responses {
				m.UpdateWorkerSkillDrift(r.Worker, []core.TaskCategory{cat}, []float64{r.Score}, q)
			}
		}
	}
	if total == 0 {
		t.Fatal("no stream tasks")
	}
	return float64(hits) / float64(total)
}

// TestDriftTrackingBeatsFrozen pins the non-stationary extension: with
// drifting worker skills, Kalman-style incremental updates (§6 +
// process noise) outperform a frozen batch model on the arriving
// stream.
func TestDriftTrackingBeatsFrozen(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	p := corpus.Quora().Scaled(0.3)
	p.Seed = 31
	p.SkillDrift = 0.3
	d := corpus.MustGenerate(p)

	frozen := streamTop1(t, d, false, 0)
	tracking := streamTop1(t, d, true, 0.01)
	if tracking <= frozen+0.01 {
		t.Errorf("tracking %.3f does not beat frozen %.3f under drift", tracking, frozen)
	}
}

// Without drift the stationary update must not hurt materially.
func TestStationaryUpdateHarmless(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	p := corpus.Quora().Scaled(0.2)
	p.Seed = 32
	d := corpus.MustGenerate(p)
	frozen := streamTop1(t, d, false, 0)
	tracking := streamTop1(t, d, true, 0.005)
	if tracking < frozen-0.05 {
		t.Errorf("stationary tracking %.3f degraded vs frozen %.3f", tracking, frozen)
	}
}

func TestSkillDriftGeneratorChangesSkills(t *testing.T) {
	p := corpus.Quora().Scaled(0.05)
	p.Seed = 9
	base := corpus.MustGenerate(p)
	p.SkillDrift = 0.5
	drifted := corpus.MustGenerate(p)
	// Same seed: populations start identical, but drifted final skills
	// must differ for workers who answered.
	moved := 0
	for i := range base.Workers {
		if drifted.Workers[i].TaskCount > 0 &&
			base.Workers[i].TrueSkill.Sub(drifted.Workers[i].TrueSkill).NormInf() > 1e-9 {
			moved++
		}
	}
	if moved == 0 {
		t.Error("drift did not move any active worker's skills")
	}
	// Skills stay non-negative.
	for _, w := range drifted.Workers {
		for _, v := range w.TrueSkill {
			if v < 0 {
				t.Fatalf("negative skill %v", v)
			}
		}
	}
	// Negative drift rejected.
	p.SkillDrift = -1
	if err := p.Validate(); err == nil {
		t.Error("negative drift accepted")
	}
}
