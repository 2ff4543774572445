package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"crowdselect/internal/corpus"
	"crowdselect/internal/linalg"
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

func benchFixture(tb testing.TB) (*Model, []text.Bag) {
	tb.Helper()
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
// front), with the mean number of Newton steps (K×K factorizations), of
// objective and gradient evaluations and of exponentials a projection of
// those bags makes (counted after the clock stops, on a scratch whose
// solver is wrapped; evals/op − steps/op is the line searches' rejected
// trials; exps/op is the count that repeats when the microseconds do
// not); hit is the same call answered by the ConcurrentModel's projection
// cache (key, lookup, and a copy into the two vectors Project returns).
func BenchmarkProject(b *testing.B) {
	m, bags := benchFixture(b)
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkCategory = m.Project(bags[i%len(bags)])
		}
		b.StopTimer()
		sc, evals, grads, factors, points := countingScratch()
		rounds := 0
		for _, bag := range bags {
			if ids, _ := inVocabulary(m, bag); len(ids) > 0 {
				rounds += m.projectInner()
			}
			m.projectWith(sc, bag)
		}
		perOp := func(n int) float64 { return float64(n) / float64(len(bags)) }
		b.ReportMetric(perOp(*factors), "steps/op")
		b.ReportMetric(perOp(*evals), "evals/op")
		b.ReportMetric(perOp(*grads), "grads/op")
		// Exponentials: 2K (ν² and e^{λ+ν²/2}) at every point the objective
		// moves to, and 3K in each round — e^λ for φ, ε, and ν² read back
		// from ρ — of a bag with an in-vocabulary term (a bag without one
		// runs no round). Through KernelVersion 2 a round took K more per
		// distinct term.
		b.ReportMetric(perOp(m.K*(2**points+3*rounds)), "exps/op")
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

var sinkErr error

// BenchmarkUpdateWorkerSkill is the crowd-update fold of §4.2 issue (2)
// as a resolve runs it per answerer: one projected category and one
// score folded into one worker's posterior through ConcurrentModel's
// write lock, cycling over the workers. The fold swaps LambdaW/NuW2
// rows and never writes one in place, so restoring the two row slices
// afterwards leaves the shared fixture as trained.
func BenchmarkUpdateWorkerSkill(b *testing.B) {
	m, bags := benchFixture(b)
	lambdaW, nuW2 := slices.Clone(m.LambdaW), slices.Clone(m.NuW2)
	defer func() { m.LambdaW, m.NuW2 = lambdaW, nuW2 }()
	cm := NewConcurrentModel(m)
	cats, scores := []TaskCategory{m.Project(bags[0])}, []float64{0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scores[0] = float64(i % 6)
		sinkErr = cm.UpdateWorkerSkill(i%m.M, cats, scores)
	}
}

// BenchmarkTrainSweep is one variational EM sweep of Algorithm 2 over
// the platform (the E-step maximizes the same task objective as Project,
// with the feedback terms, by conjugate gradient), its task and worker
// updates fanned out across GOMAXPROCS goroutines as Train runs them:
// `make kernel` reads it at -cpu 1,2. The ELBO is not part of it.
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
		if err := tr.m.refreshDerived(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStyleBags draws n bags the way the repository benchmark draws its
// never-seen texts (bench/platform.go genTexts): a platform task's tokens
// with 30 % of them resampled uniformly from the vocabulary.
func benchStyleBags(d *corpus.Dataset, n int) []text.Bag {
	rng := rand.New(rand.NewSource(29))
	bags := make([]text.Bag, n)
	for i := range bags {
		src := d.Tasks[rng.Intn(len(d.Tasks))].Tokens
		toks := make([]string, len(src))
		for p, tok := range src {
			if rng.Float64() < 0.3 {
				tok = d.Vocab.Term(rng.Intn(d.Vocab.Size()))
			}
			toks[p] = tok
		}
		bags[i] = text.NewBagKnown(d.Vocab, toks)
	}
	return bags
}

// BenchmarkProjectTolerance sizes an adaptive stop for Algorithm 3
// (ROADMAP item 5) without building one. Round r of a projection is the
// same computation whatever the cap, so Project under ProjectIters = r
// returns the r-th iterate, and a rule "stop after the first round that
// moves λ_c by at most tol in the ∞-norm" costs what Project costs under
// the cap that rule would reach. Over 2 000 bench-style texts it logs the
// quantiles of ‖Δλ_c‖∞ per round and, per tolerance, the histogram of the
// stopping round; each sub-benchmark times the projections under their
// stopping rounds and reports the mean round count and the share of
// top-10 selections over a 95-worker crowd that differ from the 6-round
// ones. tol = 0 never stops early: it is the kernel as shipped.
func BenchmarkProjectTolerance(b *testing.B) {
	m, _ := benchFixture(b)
	if m.ProjectIters != 0 {
		b.Fatal("the fixture's round cap is not the default")
	}
	defer func() { m.ProjectIters = 0 }()
	const rounds = 6
	bags := benchStyleBags(benchPlatform.d, 2000)
	crowd := rand.New(rand.NewSource(31)).Perm(m.M)[:m.M/10]
	sort.Ints(crowd)

	// iterates[i][r] is λ_c of text i after r rounds (r = 0: the prior mean).
	iterates := make([][]linalg.Vector, len(bags))
	deltas := make([]linalg.Vector, rounds+1) // deltas[r][i] = ‖λ_r − λ_{r−1}‖∞ of text i
	for r := 1; r <= rounds; r++ {
		deltas[r] = make(linalg.Vector, len(bags))
	}
	for i, bag := range bags {
		iterates[i] = append(iterates[i], m.MuC)
		for r := 1; r <= rounds; r++ {
			m.ProjectIters = r
			lam := m.Project(bag).Lambda
			for kk, v := range lam {
				deltas[r][i] = math.Max(deltas[r][i], math.Abs(v-iterates[i][r-1][kk]))
			}
			iterates[i] = append(iterates[i], lam)
		}
	}
	// Only a leaf benchmark's log is printed, so the first one carries the
	// per-round table.
	var report []string
	for r := 1; r <= rounds; r++ {
		sorted := deltas[r].Clone()
		sort.Float64s(sorted)
		q := func(p float64) float64 { return sorted[int(p*float64(len(sorted)-1))] }
		report = append(report, fmt.Sprintf("round %d moves λ_c by ‖Δλ_c‖∞ p50 %.1e  p90 %.1e  p99 %.1e", r, q(0.5), q(0.9), q(0.99)))
	}

	for _, tol := range []float64{0, 1e-4, 1e-3, 1e-2} {
		stop := make([]int, len(bags))
		var hist [rounds + 1]int
		var sum, changed int
		for i := range bags {
			stop[i] = rounds
			for r := 1; r < rounds; r++ {
				if deltas[r][i] <= tol {
					stop[i] = r
					break
				}
			}
			hist[stop[i]]++
			sum += stop[i]
			early := m.SelectTopK(iterates[i][stop[i]], crowd, 10)
			if full := m.SelectTopK(iterates[i][rounds], crowd, 10); !slices.Equal(early, full) {
				changed++
			}
		}
		report = append(report, fmt.Sprintf("tol %g stops after round 1..%d in %v of %d texts", tol, rounds, hist[1:], len(bags)))
		b.Run(fmt.Sprintf("tol=%g", tol), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.ProjectIters = stop[i%len(bags)]
				sinkCategory = m.Project(bags[i%len(bags)])
			}
			b.ReportMetric(float64(sum)/float64(len(bags)), "rounds/op")
			b.ReportMetric(100*float64(changed)/float64(len(bags)), "%top10-changed")
			for _, line := range report { // once: the function runs again for the real b.N
				b.Log(line)
			}
			report = nil
		})
	}
}

var sinkFloat float64

// BenchmarkExp reads the kernel's exponential beside math.Exp twice: on
// independent operands (throughput: what the K exponentials of a φ round
// cost) and with each operand depending on the result before it (latency:
// the exp(λ + exp(ρ)/2) of the task objective, whose second exponential
// waits for the first). The four loops are spelled out: a func value would
// put an indirect call in front of a 5-ns function.
func BenchmarkExp(b *testing.B) {
	xs := make([]float64, 1024)
	rng := rand.New(rand.NewSource(37))
	for i := range xs {
		xs[i] = -12 + 16*rng.Float64()
	}
	b.Run("owned/independent", func(b *testing.B) {
		var s float64
		for i := 0; i < b.N; i++ {
			s += exp(xs[i%len(xs)])
		}
		sinkFloat = s
	})
	b.Run("math/independent", func(b *testing.B) {
		var s float64
		for i := 0; i < b.N; i++ {
			s += math.Exp(xs[i%len(xs)])
		}
		sinkFloat = s
	})
	b.Run("owned/chained", func(b *testing.B) {
		var y float64
		for i := 0; i < b.N; i++ {
			y = exp(xs[i%len(xs)] + 0x1p-60*y)
		}
		sinkFloat = y
	})
	b.Run("math/chained", func(b *testing.B) {
		var y float64
		for i := 0; i < b.N; i++ {
			y = math.Exp(xs[i%len(xs)] + 0x1p-60*y)
		}
		sinkFloat = y
	})
}
