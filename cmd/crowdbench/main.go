// Command crowdbench regenerates the tables and figures of the
// paper's evaluation section (§7): dataset statistics (Table 2), crowd
// statistics (Figures 3, 5, 7), running time (Figures 4, 6, 8),
// precision (Tables 3, 5, 7) and recall (Tables 4, 6, 8).
//
// Usage:
//
//	crowdbench -exp all
//	crowdbench -exp T3,T4 -scale 0.5 -ks 10,20,30 -testtasks 2000
//
// Serving cost is measured elsewhere: bench/ (bash bench/run.sh) boots
// real crowdd processes and reports the budget tables in
// bench/README.md.
//
// Absolute numbers depend on the synthetic substitute corpora (see
// DESIGN.md); the orderings and trends reproduce the paper's.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"crowdselect/internal/eval"
)

func main() {
	var (
		exps      = flag.String("exp", "all", "comma-separated experiment ids (T2..T8, F3..F8) or 'all'")
		scale     = flag.Float64("scale", 0.25, "dataset scale multiplier")
		seed      = flag.Int64("seed", 1, "experiment seed")
		ks        = flag.String("ks", "10,20,30,40,50", "latent-category sweep for precision tables")
		recallK   = flag.Int("recallk", 10, "latent categories for recall/time experiments")
		testTasks = flag.Int("testtasks", 10000, "max test tasks per group")
		algos     = flag.String("algos", "VSM,TSPM,DRM,TDPM", "algorithms to compare")
		sweeps    = flag.Int("tdpm-sweeps", 0, "override TDPM training sweeps (0 = default)")
		ci        = flag.Bool("ci", false, "annotate precision cells with 95% bootstrap confidence intervals")
	)
	flag.Parse()
	if err := run(*exps, *scale, *seed, *ks, *recallK, *testTasks, *algos, *sweeps, *ci); err != nil {
		fmt.Fprintln(os.Stderr, "crowdbench:", err)
		os.Exit(1)
	}
}

func run(exps string, scale float64, seed int64, ks string, recallK, testTasks int, algos string, sweeps int, ci bool) error {
	kList, err := parseInts(ks)
	if err != nil {
		return fmt.Errorf("bad -ks: %w", err)
	}
	var algoList []eval.Algo
	for _, a := range strings.Split(algos, ",") {
		algoList = append(algoList, eval.Algo(strings.TrimSpace(a)))
	}
	runner := eval.NewRunner(eval.ExpConfig{
		Scale:        scale,
		Seed:         seed,
		MaxTestTasks: testTasks,
		RecallK:      recallK,
		PrecisionKs:  kList,
		Algos:        algoList,
		TDPMSweeps:   sweeps,
		CI:           ci,
	})

	var selected []eval.Experiment
	if exps == "all" {
		selected = eval.Experiments()
	} else {
		for _, id := range strings.Split(exps, ",") {
			e, ok := eval.ExperimentByID(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q", id)
			}
			selected = append(selected, e)
		}
	}
	for _, e := range selected {
		fmt.Printf("=== %s — %s ===\n", e.ID, e.Title)
		if err := e.Run(runner, os.Stdout); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Println()
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
