// Streaming / incremental crowd-selection: the scenario of §6 of the
// paper. A TDPM is trained on the historical prefix of a Yahoo!-like
// corpus; the remaining tasks then arrive as a stream. Each arriving
// task is projected into the existing latent category space
// (Algorithm 3) and routed in real time; its feedback is folded into
// the answerers' skill posteriors incrementally, without a batch
// retrain.
//
// Run with:
//
//	go run ./examples/streaming [-scale 0.1] [-k 8]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"crowdselect/internal/core"
	"crowdselect/internal/corpus"
	"crowdselect/internal/eval"
)

func main() {
	scale := flag.Float64("scale", 0.1, "dataset scale")
	k := flag.Int("k", 8, "latent categories")
	flag.Parse()

	d, err := corpus.Generate(corpus.Yahoo().Scaled(*scale))
	if err != nil {
		log.Fatal(err)
	}
	all := eval.ResolvedTasks(d)
	split := len(all) * 7 / 10
	historical, stream := all[:split], all[split:]
	fmt.Printf("history: %d tasks   stream: %d tasks   workers: %d\n\n",
		len(historical), len(stream), len(d.Workers))

	start := time.Now()
	model, stats, err := core.Train(historical, len(d.Workers), d.Vocab.Size(), core.NewConfig(*k))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch-trained on history in %s (%d sweeps)\n\n",
		time.Since(start).Round(time.Millisecond), stats.Sweeps)

	var (
		latency  time.Duration
		hits     int
		routable int
	)
	for _, task := range stream {
		if len(task.Responses) < 2 {
			continue
		}
		routable++

		// Real-time selection: project the arriving task and rank its
		// candidate crowd (here: the workers who actually answered, so
		// we can check against the recorded feedback).
		cands := make([]int, len(task.Responses))
		best, bestScore := -1, -1.0
		for j, r := range task.Responses {
			cands[j] = r.Worker
			if r.Score > bestScore {
				best, bestScore = r.Worker, r.Score
			}
		}
		t0 := time.Now()
		cat := model.Project(task.Bag)
		top := model.SelectTopK(cat.Mean(), cands, 1)
		latency += time.Since(t0)
		if len(top) == 1 && top[0] == best {
			hits++
		}

		// Fold the stream task's feedback into the involved workers'
		// skills (§4.2 issue 2 — crowd update).
		for _, r := range task.Responses {
			if err := model.UpdateWorkerSkill(r.Worker, []core.TaskCategory{cat}, []float64{r.Score}); err != nil {
				log.Fatal(err)
			}
		}

		if routable%50 == 0 {
			fmt.Printf("  streamed %4d tasks  rolling Top1 %.3f  mean selection latency %s\n",
				routable, float64(hits)/float64(routable), (latency / time.Duration(routable)).Round(time.Microsecond))
		}
	}
	fmt.Printf("\nstream complete: %d tasks routed, Top1 %.3f, mean selection latency %s\n",
		routable, float64(hits)/float64(routable), (latency / time.Duration(routable)).Round(time.Microsecond))
}
