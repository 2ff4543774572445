// Question-routing comparison: generate a Quora-like crowdsourcing
// corpus, train all four crowd-selection algorithms of the paper
// (VSM, TSPM, DRM, TDPM; §7.2.1), and report ACCU precision and
// Top1/Top2 recall on held-out-style question routing — a miniature of
// the paper's Table 3/Table 4 experiment.
//
// Run with:
//
//	go run ./examples/qarouting [-scale 0.15] [-k 10]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"crowdselect/internal/corpus"
	"crowdselect/internal/eval"
	"crowdselect/internal/randx"
	"crowdselect/internal/sim"
)

func main() {
	scale := flag.Float64("scale", 0.15, "dataset scale")
	k := flag.Int("k", 10, "latent categories")
	flag.Parse()

	d, err := corpus.Generate(corpus.Quora().Scaled(*scale))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d questions, %d workers\n\n", len(d.Tasks), len(d.Workers))

	group := eval.ExtractGroup(d, 1)
	tests := eval.TestTasks(d, group, 1000, 42)
	fmt.Printf("routing %d test questions (K=%d)\n\n", len(tests), *k)
	fmt.Printf("%-6s %-8s %-8s %-8s %-10s %s\n", "algo", "ACCU", "Top1", "Top2", "select/task", "train")

	selectors := map[eval.Algo]eval.Selector{}
	for _, algo := range []eval.Algo{eval.AlgoVSM, eval.AlgoTSPM, eval.AlgoDRM, eval.AlgoTDPM} {
		start := time.Now()
		sel, err := eval.Train(d, algo, eval.TrainOptions{K: *k, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		trainTime := time.Since(start)
		selectors[algo] = sel
		res := eval.Evaluate(d, sel, group, tests, *k)
		fmt.Printf("%-6s %-8.3f %-8.3f %-8.3f %-10s %s\n",
			algo, res.ACCU, res.Top1, res.Top2,
			res.MeanSelect.Round(time.Microsecond), trainTime.Round(time.Millisecond))
	}

	// Closed-loop view: route the same questions with each policy and
	// measure the answer quality the asker would actually see.
	fmt.Printf("\nclosed-loop routing (crowd of 3, realized best-answer quality):\n")
	simCfg := sim.Config{CrowdK: 3, Noise: 0.3, Seed: 7}
	policies := []sim.Policy{
		sim.RandomPolicy{RNG: randx.New(2)},
		sim.SelectorPolicy{Ranker: selectors[eval.AlgoVSM]},
		sim.SelectorPolicy{Ranker: selectors[eval.AlgoTDPM]},
		sim.NewOraclePolicy(d),
	}
	for _, pol := range policies {
		res, err := sim.Run(d, tests, pol, simCfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s\n", res)
	}
}
