package core_test

import (
	"testing"

	"crowdselect/internal/core"
	"crowdselect/internal/eval"
)

// BenchmarkAblationInferenceMethod compares the paper's variational
// algorithm against the Monte-Carlo EM sampler (mcem_engine_test.go) on
// the same data, the Quora platform at the 0.1 scale of the root
// package's ablations: ns/op is the training time of each engine; the
// reported metrics are the resulting selection precisions.
func BenchmarkAblationInferenceMethod(b *testing.B) {
	d, err := eval.NewRunner(eval.ExpConfig{Scale: 0.1, Seed: 1}).Dataset("quora")
	if err != nil {
		b.Fatal(err)
	}
	tasks := eval.ResolvedTasks(d)
	g := eval.ExtractGroup(d, 1)
	testIDs := eval.TestTasks(d, g, 300, 3)
	const k = 10

	vb, _, err := core.Train(tasks, len(d.Workers), d.Vocab.Size(), core.NewConfig(k))
	if err != nil {
		b.Fatal(err)
	}
	mcemCfg := core.NewMCEMConfig(k)
	mcem, _, err := core.TrainMCEM(tasks, len(d.Workers), d.Vocab.Size(), mcemCfg)
	if err != nil {
		b.Fatal(err)
	}
	vbACCU := eval.Evaluate(d, vb, g, testIDs, k).ACCU
	mcemACCU := eval.Evaluate(d, mcem, g, testIDs, k).ACCU

	b.Run("variational", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.Train(tasks, len(d.Workers), d.Vocab.Size(), core.NewConfig(k)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(vbACCU, "ACCU")
	})
	b.Run("mcem", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.TrainMCEM(tasks, len(d.Workers), d.Vocab.Size(), mcemCfg); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(mcemACCU, "ACCU")
	})
}
