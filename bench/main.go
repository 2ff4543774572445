// Command crowdbench is the repository's benchmark: it boots real
// crowdd processes, drives seeded in-vocabulary traffic at them over
// HTTP, checks every output and prints each metric by name with its
// unit. bench/run.sh builds it together with cmd/crowdd; README.md in
// this directory says what is measured and why.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// environment is stamped on every result file, so that a number can be
// traced back to the machine and the commit that produced it.
type environment struct {
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

func readEnvironment() environment {
	env := environment{
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     "unknown",
		Commit:     "unknown", // a checkout without .git has none
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(b))
	}
	return env
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env  environment  `json:"env"`
	Runs []*runResult `json:"runs"`
}

func writeResultFile(path string, runs []*runResult) error {
	b, err := json.MarshalIndent(resultFile{Env: readEnvironment(), Runs: runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func lineOf(res *runResult) resultLine {
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	sent, failed := res.attempted()
	if sent == 0 {
		// A run that failed before its first op still attempted one.
		sent, failed = 1, 1
	}
	return resultLine{Correct: res.Correct, Attempted: sent, Failed: failed, Metrics: emit(defs, res.Measured)}
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "workload to run (empty: all four)")
		seed         = flag.Int64("seed", 1, "seed of the text pool, its order and the feedback scores")
		seconds      = flag.Int("seconds", baseSeconds, "length of the measured phases; the frozen op counts scale with it")
		trace        = flag.Int("trace", 0, "1: traced run, printing the per-layer metrics instead of the end-to-end ones")
		out          = flag.String("out", "", "also write the full results, with the environment, to this JSON file")
		keep         = flag.Bool("keep", false, "keep the run directory (data dirs, server logs) instead of removing it")
		aa           = flag.Int("aa", 0, "run two interleaved sets of this many untraced runs of the same build and compare them")
		compare      = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare old.json new.json")
			return 2
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "crowdbench:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || *seconds > 60 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "crowdbench: --seconds is 1..60 and --trace 0 or 1")
		return 2
	}
	selected := workloads
	if *workloadName != "" {
		wl, err := workloadByName(*workloadName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "crowdbench:", err)
			return 2
		}
		selected = []workload{*wl}
	}

	// run.sh puts this binary at <work>/bin/crowdbench, next to crowdd.
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "crowdbench:", err)
		return 1
	}
	workDir := filepath.Dir(filepath.Dir(exe))
	if _, err := os.Stat(filepath.Join(workDir, "bin", "crowdd")); err != nil {
		fmt.Fprintln(os.Stderr, "crowdbench: no crowdd beside this binary; start the benchmark with bench/run.sh:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		// The run unwinds through its own cleanup once ctx is cancelled;
		// killing the servers first makes that prompt.
		<-ctx.Done()
		killAllLive()
	}()

	base := runConfig{workDir: workDir, seconds: *seconds, trace: *trace == 1, keep: *keep, out: os.Stdout}
	if *aa > 0 {
		runs, ok := runAA(ctx, base, selected, *seed, *aa)
		if *out != "" {
			if err := writeResultFile(*out, runs); err != nil {
				fmt.Fprintln(os.Stderr, "crowdbench:", err)
				return 1
			}
		}
		if !ok {
			return 1
		}
		return 0
	}

	var runs []*runResult
	code := 0
	for i := range selected {
		cfg := base
		cfg.wl, cfg.seed = &selected[i], *seed
		res := runWorkload(ctx, cfg)
		runs = append(runs, res)
		printRun(os.Stdout, res)
		if !res.Correct {
			code = 1
		}
		if ctx.Err() != nil {
			break
		}
	}
	if *out != "" {
		if err := writeResultFile(*out, runs); err != nil {
			fmt.Fprintln(os.Stderr, "crowdbench:", err)
			return 1
		}
	}
	return code
}

// printRun prints one run for people, then its result line.
func printRun(w *os.File, res *runResult) {
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "crowdbench: %s seed %d FAILED: %s\n", res.Workload, res.Seed, res.Error)
	}
	line := lineOf(res)
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	fmt.Fprintf(w, "\n%s seed=%d seconds=%d trace=%v n=%d wall=%.1fs fs=%s\n", res.Workload, res.Seed, res.Seconds, res.Trace, res.N, res.WallS, res.DataDirFS)
	for _, name := range []string{"warmup", "seq", "sat"} {
		if p, ok := res.Phases[name]; ok {
			fmt.Fprintf(w, "  phase %-7s sent=%d succeeded=%d failed=%d\n", name, p.Sent, p.Succeeded, p.Failed)
		}
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", d.name, line.Metrics[d.name].Value, d.unit)
	}
	b, err := json.Marshal(line)
	if err != nil {
		// Only a NaN or an infinity can do this; say so instead of
		// printing half a line.
		fmt.Fprintln(os.Stderr, "crowdbench: result line:", err)
		os.Exit(1)
	}
	fmt.Fprintf(w, "%s\n", b)
}
