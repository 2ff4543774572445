package core

import (
	"sync"
	"testing"

	"crowdselect/internal/corpus"
	"crowdselect/internal/text"
)

// The layer benchmarks run on the repository benchmark's own platform
// (bench/platform.go, bench/fleet.go): the full Quora profile — 4 440
// tasks, 950 workers — trained with K = 10 for 6 sweeps, so their
// per-miss figures are the ones `bash bench/run.sh --trace 1` reports as
// core.project_miss_us / core.project_miss_allocs.
var benchPlatform struct {
	once  sync.Once
	tasks []ResolvedTask
	bags  []text.Bag
	m     *Model
	d     *corpus.Dataset
}

func benchFixture(b *testing.B) (*Model, []text.Bag) {
	b.Helper()
	p := &benchPlatform
	p.once.Do(func() {
		p.d = corpus.MustGenerate(corpus.Quora())
		p.tasks = tasksFromDataset(p.d)
		cfg := NewConfig(10)
		cfg.MaxIter = 6
		m, _, err := Train(p.tasks, len(p.d.Workers), p.d.Vocab.Size(), cfg)
		if err != nil {
			panic(err)
		}
		p.m = m
		for _, t := range p.tasks[:512] {
			p.bags = append(p.bags, t.Bag)
		}
	})
	return p.m, p.bags
}

var sinkCategory TaskCategory

// BenchmarkProject is Algorithm 3's first phase alone. miss is the
// kernel (Model.Project over 512 distinct task bags, no cache in
// front); hit is the same call answered by the ConcurrentModel's
// projection cache (key, lookup, defensive clone).
func BenchmarkProject(b *testing.B) {
	m, bags := benchFixture(b)
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkCategory = m.Project(bags[i%len(bags)])
		}
	})
	b.Run("hit", func(b *testing.B) {
		cm := NewConcurrentModel(m)
		cm.Project(bags[0])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkCategory = cm.Project(bags[0])
		}
	})
}

// BenchmarkTrainSweep is one variational EM sweep of Algorithm 2 over
// the platform (the E-step runs the same task objective and conjugate
// gradient as Project, with the feedback terms), sequentially.
func BenchmarkTrainSweep(b *testing.B) {
	benchFixture(b)
	p := &benchPlatform
	tr := newTrainer(p.tasks, len(p.d.Workers), p.d.Vocab.Size(), NewConfig(10))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.updateTasks()
		tr.updateWorkers()
		tr.mStep()
		if err := tr.m.refreshInverses(); err != nil {
			b.Fatal(err)
		}
	}
}
