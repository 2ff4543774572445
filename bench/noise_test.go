package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricDef{name: "op_p50_ms", better: "lower", bound: 0.10}
	higher := metricDef{name: "sat_ops_s", better: "higher", bound: 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c * 0.995, c * 1.005} }
	wide := func(c float64) []float64 { return []float64{c * 0.7, c, c * 1.3, c * 0.8, c * 1.2, c} }

	for _, c := range []struct {
		name     string
		def      metricDef
		old, new []float64
		want     string
	}{
		{"unchanged", lower, tight(2), tight(2), "ok"},
		{"slower within the bound", lower, tight(2), tight(2.15), "ok"},
		{"slower beyond the bound", lower, tight(2), tight(2.3), "worse"},
		{"faster", lower, tight(2), tight(1.5), "ok"},
		{"throughput down beyond the bound", higher, tight(500), tight(430), "worse"},
		{"throughput up", higher, tight(500), tight(600), "ok"},
		{"old side too noisy to say", lower, wide(2), tight(2.3), "unresolved"},
		{"new side too noisy to say", lower, tight(2), wide(2), "unresolved"},
	} {
		if got := judge(c.def, c.old, c.new); got.result != c.want {
			t.Errorf("%s: %s (worse by %.3f, spreads %.3f %.3f), want %s", c.name, got.result, got.worseBy, got.oldSpread, got.newSpread, c.want)
		}
	}
	if v := judge(higher, tight(500), tight(450)); v.worseBy < 0.099 || v.worseBy > 0.101 {
		t.Errorf("a 10%% drop of a higher-is-better metric is worse by %v", v.worseBy)
	}
}

func TestPrintComparison(t *testing.T) {
	mk := func(op float64) []*runResult {
		var out []*runResult
		for i := 0; i < 6; i++ {
			jitter := 1 + 0.004*float64(i-3)
			out = append(out, &runResult{Workload: "select_cold", Correct: true, Measured: map[string]float64{
				"setup_s": 2 * jitter, "op_p50_ms": op * jitter, "sat_ops_s": 500 * jitter, "alloc_kb_per_op": 620, "heap_live_mb": 5.7,
			}})
		}
		// Failed and traced runs never enter a comparison.
		out = append(out, &runResult{Workload: "select_cold", Correct: false, Measured: map[string]float64{"op_p50_ms": 99}})
		out = append(out, &runResult{Workload: "select_cold", Correct: true, Trace: true, Measured: map[string]float64{"op_p50_ms": 99}})
		return out
	}
	var buf bytes.Buffer
	if ok := printComparison(&buf, "A", "B", mk(2), mk(2)); !ok {
		t.Errorf("identical sets disagree:\n%s", buf.String())
	}
	buf.Reset()
	if ok := printComparison(&buf, "old", "new", mk(2), mk(3)); ok {
		t.Errorf("a 50%% slower op_p50_ms passed:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "worse") || strings.Count(buf.String(), "select_cold") != len(endToEnd) {
		t.Errorf("comparison table:\n%s", buf.String())
	}
}
