package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON is the contract file at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json must name exactly the workloads and metrics the binary
// emits, in the binary's order, with its units, directions and bounds.
func TestBenchmarkJSONMatchesTheBinary(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var exact map[string]json.RawMessage
	if err := json.Unmarshal(raw, &exact); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := exact[key]; !ok {
			t.Errorf("BENCHMARK.json has no %q", key)
		}
		delete(exact, key)
	}
	for key := range exact {
		t.Errorf("BENCHMARK.json has an extra key %q", key)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}

	if len(b.Command) != 2 || b.Command[0] != "bash" || b.Command[1] != "bench/run.sh" {
		t.Errorf("command = %v", b.Command)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v", b.Paths)
	}
	if b.RunSeconds != baseSeconds {
		t.Errorf("run_seconds = %d; the frozen op counts are sized for %d", b.RunSeconds, baseSeconds)
	}

	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the binary", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q %q, the binary has %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}

	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the binary", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, e := range b.EndToEnd {
		unique(e.Name)
		d := endToEnd[i]
		if e.Bound == nil {
			t.Errorf("%s has no bound", e.Name)
			continue
		}
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || *e.Bound != d.bound {
			t.Errorf("end-to-end %d: %s %s %s %v, the binary has %+v", i, e.Name, e.Unit, e.Better, *e.Bound, d)
		}
		if !unitRE.MatchString(e.Unit) || *e.Bound <= 0 || *e.Bound > 0.25 {
			t.Errorf("%s: unit %q bound %v", e.Name, e.Unit, *e.Bound)
		}
		if e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the binary", len(b.PerLayer), len(perLayer))
	}
	for i, p := range b.PerLayer {
		unique(p.Name)
		d := perLayer[i]
		if p.Name != d.name || p.Unit != d.unit || p.Better != d.better {
			t.Errorf("per-layer %d: %s %s %s, the binary has %+v", i, p.Name, p.Unit, p.Better, d)
		}
		if !unitRE.MatchString(p.Unit) || (p.Better != "lower" && p.Better != "higher") {
			t.Errorf("%s: unit %q better %q", p.Name, p.Unit, p.Better)
		}
	}
}

// Every metric the result line carries comes from one of the two lists,
// with all of the list in it.
func TestResultLineCarriesTheListedMetrics(t *testing.T) {
	res := &runResult{Measured: map[string]float64{"op_p50_ms": 2, "text.bag_us": 7}, Phases: map[string]phaseCount{"seq": {Sent: 10, Succeeded: 9, Failed: 1}}}
	line := lineOf(res)
	if len(line.Metrics) != len(endToEnd) || line.Metrics["op_p50_ms"] != (metricValue{2, "ms"}) {
		t.Errorf("untraced line: %+v", line.Metrics)
	}
	if line.Attempted != 10 || line.Failed != 1 {
		t.Errorf("attempted %d failed %d", line.Attempted, line.Failed)
	}
	res.Trace = true
	line = lineOf(res)
	if len(line.Metrics) != len(perLayer) || line.Metrics["text.bag_us"] != (metricValue{7, "us"}) {
		t.Errorf("traced line: %d metrics", len(line.Metrics))
	}
	if _, ok := line.Metrics["op_p50_ms"]; ok {
		t.Error("a traced line carries an end-to-end metric")
	}
	// A run that died before its first op still reports one attempt.
	if line := lineOf(&runResult{}); line.Attempted != 1 || line.Failed != 1 || line.Correct {
		t.Errorf("empty run: %+v", line)
	}
}

func TestSeqOpsScaleWithSeconds(t *testing.T) {
	wl, err := workloadByName("select_cold")
	if err != nil {
		t.Fatal(err)
	}
	if wl.seqOps(baseSeconds) != wl.baseN || wl.seqOps(3*baseSeconds) != 3*wl.baseN {
		t.Errorf("seqOps: %d at base, %d at three times base", wl.seqOps(baseSeconds), wl.seqOps(3*baseSeconds))
	}
	for _, w := range workloads {
		if 256%w.textsPerOp != 0 {
			t.Errorf("%s: %d texts per op do not divide the 256 checked selections", w.name, w.textsPerOp)
		}
		// The cold stream must outlast a default run without wrapping
		// into the replay's half of the pool.
		if w.pool == coldPool && (w.checkOps()+w.baseN/12+w.baseN)*w.textsPerOp > coldPool/2 {
			t.Errorf("%s: the seq phase reaches the replay's half of the pool", w.name)
		}
	}
	if _, err := workloadByName("nope"); err == nil {
		t.Error("an unknown workload was found")
	}
}
