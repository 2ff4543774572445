package eval

import (
	"fmt"
	"io"
	"time"

	"crowdselect/internal/randx"
	"crowdselect/internal/sim"
)

// platformSpec fixes, per platform, the group thresholds each artifact
// of §7.3 uses.
type platformSpec struct {
	name            string
	coverageGroups  []int // Figures 3, 5, 7
	precisionGroups []int // Tables 3, 5, 7
	recallGroups    []int // Tables 4, 6, 8 and Figures 4, 6, 8
}

var specs = map[string]platformSpec{
	"quora": {
		name:            "quora",
		coverageGroups:  []int{1, 2, 3, 4, 5},
		precisionGroups: []int{1, 5, 9},
		recallGroups:    []int{1, 2, 3, 4, 5},
	},
	"yahoo": {
		name:            "yahoo",
		coverageGroups:  []int{1, 10, 20, 30},
		precisionGroups: []int{10, 15, 20},
		recallGroups:    []int{10, 15, 20, 25, 30},
	},
	"stackoverflow": {
		name:            "stackoverflow",
		coverageGroups:  []int{1, 3, 6, 9, 12, 15},
		precisionGroups: []int{1, 6, 12},
		recallGroups:    []int{1, 3, 6, 9, 12},
	},
}

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	// ID is the artifact id: T2–T8, F3–F8.
	ID string
	// Title matches the paper's caption.
	Title string
	// Run executes the experiment against the runner and writes the
	// regenerated rows to w.
	Run func(r *Runner, w io.Writer) error
}

// Experiments lists every artifact of the paper's evaluation section
// in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "T2", Title: "Table 2: Statistics of Real Datasets", Run: runTable2},
		{ID: "F3", Title: "Figure 3: Statistics of the Crowd in Quora", Run: groupStatsRunner("quora")},
		{ID: "F4", Title: "Figure 4: Running Time of Crowd-Selection Algorithms in Quora", Run: timeRunner("quora")},
		{ID: "T3", Title: "Table 3: Precision of Crowd-Selection Algorithms in Quora", Run: precisionRunner("quora")},
		{ID: "T4", Title: "Table 4: Recall of Crowd-Selection Algorithms in Quora", Run: recallRunner("quora")},
		{ID: "F5", Title: "Figure 5: Statistics of the Crowd in Yahoo! Answer", Run: groupStatsRunner("yahoo")},
		{ID: "F6", Title: "Figure 6: Running Time of Crowd-Selection Algorithms in Yahoo! Answer", Run: timeRunner("yahoo")},
		{ID: "T5", Title: "Table 5: Precision of Crowd-Selection Algorithms in Yahoo! Answer", Run: precisionRunner("yahoo")},
		{ID: "T6", Title: "Table 6: Recall of Crowd-Selection Algorithms in Yahoo! Answer", Run: recallRunner("yahoo")},
		{ID: "F7", Title: "Figure 7: Statistics of the Crowd in Stack Overflow", Run: groupStatsRunner("stackoverflow")},
		{ID: "F8", Title: "Figure 8: Running Time of Crowd-Selection Algorithms in Stack Overflow", Run: timeRunner("stackoverflow")},
		{ID: "T7", Title: "Table 7: Precision of Crowd-Selection Algorithms in Stack Overflow", Run: precisionRunner("stackoverflow")},
		{ID: "T8", Title: "Table 8: Recall of Crowd-Selection Algorithms in Stack Overflow", Run: recallRunner("stackoverflow")},
		{ID: "SIM", Title: "Extension: closed-loop routing quality (random vs VSM vs TDPM vs oracle)", Run: runSim},
	}
}

// runSim is this repository's extension artifact: route the Quora
// corpus's tasks with each policy, simulate the answers from the
// hidden ground-truth skills, and report the realized best-answer
// quality the asker sees (internal/sim).
func runSim(r *Runner, w io.Writer) error {
	d, err := r.Dataset("quora")
	if err != nil {
		return err
	}
	tdpm, err := r.Selector("quora", AlgoTDPM, r.Config().RecallK)
	if err != nil {
		return err
	}
	vsmSel, err := r.Selector("quora", AlgoVSM, 0)
	if err != nil {
		return err
	}
	n := len(d.Tasks)
	if n > 500 {
		n = 500
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	cfg := sim.Config{CrowdK: 3, Noise: 0.3, Seed: r.Config().Seed}
	policies := []sim.Policy{
		sim.RandomPolicy{RNG: randx.New(r.Config().Seed + 1)},
		sim.SelectorPolicy{Ranker: vsmSel},
		sim.SelectorPolicy{Ranker: tdpm},
		sim.NewOraclePolicy(d),
	}
	labels := make([]string, 0, len(policies))
	values := make([]float64, 0, len(policies))
	for _, pol := range policies {
		res, err := sim.Run(d, ids, pol, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n", res)
		labels = append(labels, res.Policy)
		values = append(values, res.MeanBest)
	}
	return BarChart{Title: "realized best-answer quality (crowd of 3)", Width: 30, Format: "%.2f"}.Render(w, labels, values)
}

// ExperimentByID finds an experiment by its artifact id.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func runTable2(r *Runner, w io.Writer) error {
	fmt.Fprintf(w, "%-14s %-9s %-9s %-9s\n", "Dataset", "Questions", "Users", "Answers")
	for _, name := range []string{"quora", "yahoo", "stackoverflow"} {
		d, err := r.Dataset(name)
		if err != nil {
			return err
		}
		s := d.Stats()
		fmt.Fprintf(w, "%-14s %-9d %-9d %-9d\n", s.Name, s.Tasks, s.Workers, s.Answers)
	}
	return nil
}

func groupStatsRunner(name string) func(*Runner, io.Writer) error {
	return func(r *Runner, w io.Writer) error {
		rows, err := r.GroupStats(name, specs[name].coverageGroups)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s %-12s %-10s\n", "Group", "Coverage", "Workers")
		labels := make([]string, len(rows))
		coverage := make([]float64, len(rows))
		sizes := make([]float64, len(rows))
		for i, row := range rows {
			fmt.Fprintf(w, "%s%-6d %-12.3f %-10d\n", name, row.Threshold, row.Coverage, row.Size)
			labels[i] = fmt.Sprintf("%s%d", shortName(name), row.Threshold)
			coverage[i] = row.Coverage
			sizes[i] = float64(row.Size)
		}
		if err := (BarChart{Title: "(a) task coverage", Width: 30}).Render(w, labels, coverage); err != nil {
			return err
		}
		return BarChart{Title: "(b) group size", Width: 30, Format: "%.0f"}.Render(w, labels, sizes)
	}
}

func precisionRunner(name string) func(*Runner, io.Writer) error {
	return func(r *Runner, w io.Writer) error {
		spec := specs[name]
		ks := r.Config().PrecisionKs
		cells, err := r.Precision(name, spec.precisionGroups, ks)
		if err != nil {
			return err
		}
		byAlgoGroupK := make(map[Algo]map[int]map[int]float64)
		for _, c := range cells {
			if byAlgoGroupK[c.Algo] == nil {
				byAlgoGroupK[c.Algo] = make(map[int]map[int]float64)
			}
			if byAlgoGroupK[c.Algo][c.Group] == nil {
				byAlgoGroupK[c.Algo][c.Group] = make(map[int]float64)
			}
			byAlgoGroupK[c.Algo][c.Group][c.K] = c.ACCU
		}
		// Header: group blocks, K columns within each.
		fmt.Fprintf(w, "%-10s", "Algorithm")
		for _, g := range spec.precisionGroups {
			for _, k := range ks {
				fmt.Fprintf(w, " %s%d/K%d", shortName(name), g, k)
			}
		}
		fmt.Fprintln(w)
		for _, algo := range r.Config().Algos {
			fmt.Fprintf(w, "%-10s", algo)
			for _, g := range spec.precisionGroups {
				for _, k := range ks {
					v, ok := byAlgoGroupK[algo][g][k]
					if !ok { // VSM: single column repeated
						v = byAlgoGroupK[algo][g][ks[0]]
					}
					fmt.Fprintf(w, " %*.3f", cellWidth(name, g, k), v)
				}
			}
			fmt.Fprintln(w)
		}
		if r.Config().CI {
			fmt.Fprintln(w, "95% bootstrap confidence intervals:")
			for _, c := range cells {
				fmt.Fprintf(w, "  %-10s %s%-3d K=%-3d %.3f [%.3f, %.3f]\n",
					c.Algo, shortName(name), c.Group, c.K, c.ACCU, c.CILo, c.CIHi)
			}
		}
		return nil
	}
}

func recallRunner(name string) func(*Runner, io.Writer) error {
	return func(r *Runner, w io.Writer) error {
		spec := specs[name]
		results, err := r.RecallAndTime(name, spec.recallGroups)
		if err != nil {
			return err
		}
		byAlgoGroup := indexResults(results)
		fmt.Fprintf(w, "%-10s", "Algorithm")
		for _, g := range spec.recallGroups {
			fmt.Fprintf(w, " %s%d/Top1 %s%d/Top2", shortName(name), g, shortName(name), g)
		}
		fmt.Fprintln(w)
		for _, algo := range r.Config().Algos {
			fmt.Fprintf(w, "%-10s", algo)
			for _, g := range spec.recallGroups {
				res := byAlgoGroup[string(algo)][g]
				fmt.Fprintf(w, " %*.3f %*.3f",
					topWidth(name, g, 1), res.Top1, topWidth(name, g, 2), res.Top2)
			}
			fmt.Fprintln(w)
		}
		return nil
	}
}

func timeRunner(name string) func(*Runner, io.Writer) error {
	return func(r *Runner, w io.Writer) error {
		spec := specs[name]
		results, err := r.RecallAndTime(name, spec.recallGroups)
		if err != nil {
			return err
		}
		byAlgoGroup := indexResults(results)
		fmt.Fprintf(w, "%-10s", "Algorithm")
		for _, g := range spec.recallGroups {
			fmt.Fprintf(w, " %12s", fmt.Sprintf("%s%d", shortName(name), g))
		}
		fmt.Fprintln(w)
		for _, algo := range r.Config().Algos {
			fmt.Fprintf(w, "%-10s", algo)
			for _, g := range spec.recallGroups {
				res := byAlgoGroup[string(algo)][g]
				fmt.Fprintf(w, " %12s", res.MeanSelect.Round(time.Microsecond))
			}
			fmt.Fprintln(w)
		}
		// The paper plots selection time per algorithm on a log axis;
		// render the per-algorithm mean across groups the same way.
		labels := make([]string, 0, len(r.Config().Algos))
		means := make([]float64, 0, len(r.Config().Algos))
		for _, algo := range r.Config().Algos {
			var sum time.Duration
			for _, g := range spec.recallGroups {
				sum += byAlgoGroup[string(algo)][g].MeanSelect
			}
			mean := sum / time.Duration(len(spec.recallGroups))
			if mean <= 0 {
				mean = time.Nanosecond
			}
			labels = append(labels, string(algo))
			means = append(means, float64(mean.Microseconds())+1)
		}
		return BarChart{Title: "mean selection time (µs, log scale)", Width: 30, Log: true, Format: "%.0fµs"}.Render(w, labels, means)
	}
}

func indexResults(results []Result) map[string]map[int]Result {
	out := make(map[string]map[int]Result)
	for _, res := range results {
		if out[res.Algorithm] == nil {
			out[res.Algorithm] = make(map[int]Result)
		}
		out[res.Algorithm][res.Group] = res
	}
	return out
}

func shortName(name string) string {
	switch name {
	case "quora":
		return "Quora"
	case "yahoo":
		return "Yahoo"
	case "stackoverflow":
		return "Stack"
	default:
		return name
	}
}

func cellWidth(name string, g, k int) int {
	return len(fmt.Sprintf("%s%d/K%d", shortName(name), g, k))
}

func topWidth(name string, g, top int) int {
	return len(fmt.Sprintf("%s%d/Top%d", shortName(name), g, top))
}
