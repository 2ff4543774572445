package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is the outcome of comparing one end-to-end metric on one
// workload between two sets of runs.
type verdict struct {
	oldMedian, newMedian float64
	oldSpread, newSpread float64
	// worseBy is the share of the old median by which the new median is
	// worse, in the metric's own direction; negative means better.
	worseBy float64
	result  string // ok, worse or unresolved
}

// judge applies the rule every later performance claim is held to: a
// metric whose own run-to-run spread, on either side, is wider than its
// bound is unresolved, not unchanged; otherwise it is worse when the
// new median is worse than the old by more than the bound.
func judge(def metricDef, old, new []float64) verdict {
	v := verdict{
		oldMedian: median(old), newMedian: median(new),
		oldSpread: quartileSpread(old), newSpread: quartileSpread(new),
	}
	if v.oldMedian != 0 {
		v.worseBy = (v.newMedian - v.oldMedian) / v.oldMedian
		if def.better == "higher" {
			v.worseBy = -v.worseBy
		}
	}
	switch {
	case v.oldSpread > def.bound || v.newSpread > def.bound:
		v.result = "unresolved"
	case v.worseBy > def.bound:
		v.result = "worse"
	default:
		v.result = "ok"
	}
	return v
}

// valuesOf collects one measured metric of one workload over runs.
func valuesOf(runs []*runResult, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if r.Workload == workload && r.Correct && !r.Trace {
			out = append(out, r.Measured[metric])
		}
	}
	return out
}

// printComparison prints, per workload and end-to-end metric, both
// medians, the ratio with its base, each side's spread, the bound and
// the verdict. It reports whether every metric was ok.
func printComparison(w io.Writer, oldName, newName string, old, new []*runResult) bool {
	allOK := true
	fmt.Fprintf(w, "\n%-18s %-16s %12s %12s %18s %8s %8s %6s  %s\n", "workload", "metric", oldName, newName, "ratio (base "+oldName+")", "spread", "spread", "bound", "verdict")
	for _, wl := range workloads {
		for _, def := range endToEnd {
			a, b := valuesOf(old, wl.name, def.name), valuesOf(new, wl.name, def.name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := judge(def, a, b)
			if v.result != "ok" {
				allOK = false
			}
			ratio := 0.0
			if v.oldMedian != 0 {
				ratio = v.newMedian / v.oldMedian
			}
			fmt.Fprintf(w, "%-18s %-16s %12.4f %12.4f %18.4f %7.1f%% %7.1f%% %5.0f%%  %s (%+.1f%%, n=%d/%d)\n",
				wl.name, def.name, v.oldMedian, v.newMedian, ratio,
				100*v.oldSpread, 100*v.newSpread, 100*def.bound, v.result, 100*v.worseBy, len(a), len(b))
		}
	}
	return allOK
}

func compareFiles(w io.Writer, oldPath, newPath string) error {
	load := func(path string) (resultFile, error) {
		var f resultFile
		b, err := os.ReadFile(path)
		if err != nil {
			return f, err
		}
		if err := json.Unmarshal(b, &f); err != nil {
			return f, fmt.Errorf("%s: %w", path, err)
		}
		return f, nil
	}
	old, err := load(oldPath)
	if err != nil {
		return err
	}
	new, err := load(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "old: %s  commit %s  %s  %s\n", oldPath, old.Env.Commit, old.Env.GoVersion, old.Env.CPUModel)
	fmt.Fprintf(w, "new: %s  commit %s  %s  %s\n", newPath, new.Env.Commit, new.Env.GoVersion, new.Env.CPUModel)
	printComparison(w, "old", "new", old.Runs, new.Runs)
	return nil
}

// runAA measures the benchmark against itself: two sets of n untraced
// runs of the same build, interleaved run by run (A, B, A, B, …) so
// that host drift lands on both sets alike, with the workload order
// rotated from pair to pair. Every run has a seed of its own, as in the
// acceptance procedure. It returns every run, tagged by set, and
// whether all runs were correct and all metrics agreed within bounds.
func runAA(ctx context.Context, base runConfig, selected []workload, seed int64, n int) ([]*runResult, bool) {
	base.trace = false
	var sets [2][]*runResult
	ok := true
	for pair := 0; pair < n && ctx.Err() == nil; pair++ {
		for set := 0; set < 2; set++ {
			for k := range selected {
				cfg := base
				cfg.wl = &selected[(k+pair)%len(selected)]
				cfg.seed = seed + int64(2*pair+set)
				res := runWorkload(ctx, cfg)
				printRun(os.Stdout, res)
				if !res.Correct {
					ok = false
				}
				res.Set = string(rune('A' + set))
				sets[set] = append(sets[set], res)
			}
		}
	}
	if !printComparison(base.out, "A", "B", sets[0], sets[1]) {
		ok = false
	}
	return append(sets[0], sets[1]...), ok
}
