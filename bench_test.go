package crowdselect

// The ablation benchmarks cited by EXPERIMENTS.md "Ablations" and
// DESIGN.md §4.5 (the variational-vs-MCEM one is internal/core's, beside
// its sampler), and the training-parallelism sweep. Each reuses one
// shared Runner, so datasets are generated and models trained once per
// `go test -bench` invocation; the measured loop is the ablation's own
// work and the custom metrics carry its ACCU / Top1 readings. The
// paper's tables and figures come from `go run ./cmd/crowdbench -exp`.

import (
	"fmt"
	"sync"
	"testing"

	"crowdselect/internal/core"
	"crowdselect/internal/corpus"
	"crowdselect/internal/eval"
)

// benchScale is the corpus scale, 0.1× the DESIGN.md sizes, that the
// ablation readings in EXPERIMENTS.md were taken at.
const benchScale = 0.1

var (
	benchOnce   sync.Once
	benchRunner *eval.Runner
)

func runner() *eval.Runner {
	benchOnce.Do(func() {
		benchRunner = eval.NewRunner(eval.ExpConfig{
			Scale:        benchScale,
			Seed:         1,
			MaxTestTasks: 500,
			RecallK:      10,
			PrecisionKs:  []int{10, 20, 30, 40, 50},
		})
	})
	return benchRunner
}

// --- Ablations (DESIGN.md §4.5) ---------------------------------------

// BenchmarkAblationSkillComparability contrasts TDPM's unnormalized
// Gaussian skills with the Multinomial skills of TSPM/DRM on the same
// data — the paper's core modeling claim (§1).
func BenchmarkAblationSkillComparability(b *testing.B) {
	r := runner()
	d, err := r.Dataset("quora")
	if err != nil {
		b.Fatal(err)
	}
	g := eval.ExtractGroup(d, 1)
	tasks := eval.TestTasks(d, g, 400, 3)
	k := r.Config().RecallK
	accu := map[eval.Algo]float64{}
	for _, algo := range []eval.Algo{eval.AlgoTDPM, eval.AlgoTSPM, eval.AlgoDRM} {
		sel, err := r.Selector("quora", algo, k)
		if err != nil {
			b.Fatal(err)
		}
		accu[algo] = eval.Evaluate(d, sel, g, tasks, k).ACCU
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel, _ := r.Selector("quora", eval.AlgoTDPM, k)
		t := d.Tasks[tasks[i%len(tasks)]]
		sel.Rank(t.Bag(d.Vocab), eval.Candidates(t))
	}
	b.StopTimer()
	for algo, v := range accu {
		b.ReportMetric(v, string(algo)+"-ACCU")
	}
}

// BenchmarkAblationNoFeedback trains TDPM with the feedback signal
// flattened (every score equal), isolating the contribution of the
// score likelihood (Eq. 6) over pure text modeling.
func BenchmarkAblationNoFeedback(b *testing.B) {
	r := runner()
	d, err := r.Dataset("quora")
	if err != nil {
		b.Fatal(err)
	}
	tasks := eval.ResolvedTasks(d)
	flat := make([]core.ResolvedTask, len(tasks))
	for j, t := range tasks {
		ft := core.ResolvedTask{Bag: t.Bag}
		for _, resp := range t.Responses {
			ft.Responses = append(ft.Responses, core.Scored{Worker: resp.Worker, Score: 1})
		}
		flat[j] = ft
	}
	cfg := core.NewConfig(r.Config().RecallK)
	flatModel, _, err := core.Train(flat, len(d.Workers), d.Vocab.Size(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	full, err := r.Selector("quora", eval.AlgoTDPM, r.Config().RecallK)
	if err != nil {
		b.Fatal(err)
	}
	g := eval.ExtractGroup(d, 1)
	testIDs := eval.TestTasks(d, g, 400, 3)
	withFeedback := eval.Evaluate(d, full, g, testIDs, cfg.K).ACCU
	noFeedback := eval.Evaluate(d, flatModel, g, testIDs, cfg.K).ACCU
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := d.Tasks[testIDs[i%len(testIDs)]]
		flatModel.Rank(t.Bag(d.Vocab), eval.Candidates(t))
	}
	b.StopTimer()
	b.ReportMetric(withFeedback, "with-feedback-ACCU")
	b.ReportMetric(noFeedback, "no-feedback-ACCU")
}

// BenchmarkAblationIncrementalVsBatch times the incremental
// skill-update path (§6) against a full batch retrain for absorbing
// one newly resolved task.
func BenchmarkAblationIncrementalVsBatch(b *testing.B) {
	r := runner()
	d, err := r.Dataset("quora")
	if err != nil {
		b.Fatal(err)
	}
	tasks := eval.ResolvedTasks(d)
	cfg := core.NewConfig(r.Config().RecallK)
	cfg.MaxIter = 20
	model, _, err := core.Train(tasks[:len(tasks)-1], len(d.Workers), d.Vocab.Size(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	last := tasks[len(tasks)-1]
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cat := model.Project(last.Bag)
			for _, resp := range last.Responses {
				model.UpdateWorkerSkill(resp.Worker, []core.TaskCategory{cat}, []float64{resp.Score})
			}
		}
	})
	b.Run("batch-retrain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.Train(tasks, len(d.Workers), d.Vocab.Size(), cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationProjectionIters sweeps the inner-iteration budget
// of Algorithm 3's task projection: latency per projection at each
// budget, with the induced Top1 recall as a reported metric.
func BenchmarkAblationProjectionIters(b *testing.B) {
	r := runner()
	d, err := r.Dataset("quora")
	if err != nil {
		b.Fatal(err)
	}
	base, err := r.Selector("quora", eval.AlgoTDPM, r.Config().RecallK)
	if err != nil {
		b.Fatal(err)
	}
	model := base.(*core.Model)
	g := eval.ExtractGroup(d, 1)
	testIDs := eval.TestTasks(d, g, 300, 3)
	defer func() { model.ProjectIters = 0 }()
	for _, iters := range []int{1, 2, 4, 6, 10} {
		b.Run(fmt.Sprintf("iters=%d", iters), func(b *testing.B) {
			model.ProjectIters = iters
			res := eval.Evaluate(d, model, g, testIDs, model.K)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := d.Tasks[testIDs[i%len(testIDs)]]
				model.Project(t.Bag(d.Vocab))
			}
			b.StopTimer()
			b.ReportMetric(res.Top1, "Top1")
		})
	}
}

// BenchmarkAblationDriftTracking measures the non-stationary
// extension: under drifting worker skills, the Kalman-style
// incremental update (process noise on UpdateWorkerSkillDrift) vs a
// frozen batch model. Reported metrics are the Top1 rates on the
// arriving stream.
func BenchmarkAblationDriftTracking(b *testing.B) {
	d, err := corpus.Generate(quoraDriftProfile())
	if err != nil {
		b.Fatal(err)
	}
	all := eval.ResolvedTasks(d)
	split := len(all) * 6 / 10
	cfg := core.NewConfig(10)
	stream := func(update bool, q float64) float64 {
		m, _, err := core.Train(all[:split], len(d.Workers), d.Vocab.Size(), cfg)
		if err != nil {
			b.Fatal(err)
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
		return float64(hits) / float64(total)
	}
	frozen := stream(false, 0)
	tracking := stream(true, 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream(true, 0.01)
	}
	b.StopTimer()
	b.ReportMetric(frozen, "frozen-Top1")
	b.ReportMetric(tracking, "tracking-Top1")
}

func quoraDriftProfile() corpus.Profile {
	p := corpus.Quora().Scaled(benchScale)
	p.SkillDrift = 0.3
	p.Seed = 31
	return p
}

// BenchmarkAblationVSMWeighting compares the paper's raw-count VSM
// against a TF-IDF-weighted variant, probing how much of VSM's gap is
// representational rather than about missing feedback.
func BenchmarkAblationVSMWeighting(b *testing.B) {
	r := runner()
	d, err := r.Dataset("quora")
	if err != nil {
		b.Fatal(err)
	}
	g := eval.ExtractGroup(d, 1)
	testIDs := eval.TestTasks(d, g, 400, 3)
	accu := map[eval.Algo]float64{}
	for _, algo := range []eval.Algo{eval.AlgoVSM, eval.AlgoVSMTFIDF} {
		sel, err := r.Selector("quora", algo, 0)
		if err != nil {
			b.Fatal(err)
		}
		accu[algo] = eval.Evaluate(d, sel, g, testIDs, 0).ACCU
	}
	tfidf, _ := r.Selector("quora", eval.AlgoVSMTFIDF, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := d.Tasks[testIDs[i%len(testIDs)]]
		tfidf.Rank(t.Bag(d.Vocab), eval.Candidates(t))
	}
	b.StopTimer()
	for algo, v := range accu {
		b.ReportMetric(v, string(algo)+"-ACCU")
	}
}
