package eval

import (
	"bytes"
	"strings"
	"testing"
)

// testRunner returns a runner at integration-test scale: small enough
// to run in seconds, large enough for the paper's orderings to hold.
func testRunner() *Runner {
	return NewRunner(ExpConfig{
		Scale:        0.08,
		Seed:         5,
		MaxTestTasks: 400,
		RecallK:      8,
		PrecisionKs:  []int{8},
		LDABurn:      40,
		PLSAIters:    25,
	})
}

func TestExpConfigNormalize(t *testing.T) {
	c := ExpConfig{}.Normalize()
	d := DefaultExpConfig()
	if c.Scale != d.Scale || c.RecallK != d.RecallK || len(c.PrecisionKs) != len(d.PrecisionKs) {
		t.Errorf("normalized = %+v", c)
	}
}

func TestRunnerDatasetCaching(t *testing.T) {
	r := testRunner()
	d1, err := r.Dataset("quora")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := r.Dataset("quora")
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Error("dataset not cached")
	}
	if _, err := r.Dataset("reddit"); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestRunnerSelectorCaching(t *testing.T) {
	r := testRunner()
	s1, err := r.Selector("quora", AlgoVSM, 8)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := r.Selector("quora", AlgoVSM, 16) // VSM ignores K
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("VSM selector not shared across K")
	}
	if _, err := r.Selector("quora", Algo("nope"), 8); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestGroupStatsShape(t *testing.T) {
	r := testRunner()
	rows, err := r.GroupStats("quora", []int{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Size > rows[i-1].Size {
			t.Errorf("group size grew with threshold: %+v", rows)
		}
		if rows[i].Coverage > rows[i-1].Coverage+1e-12 {
			t.Errorf("coverage grew with threshold: %+v", rows)
		}
	}
	// The paper's headline: coverage stays high while the group
	// shrinks sharply (Figure 3).
	if rows[len(rows)-1].Coverage < 0.8 {
		t.Errorf("threshold-5 coverage = %.3f, want ≥ 0.8", rows[len(rows)-1].Coverage)
	}
	if rows[len(rows)-1].Size >= rows[0].Size/2 {
		t.Errorf("group did not shrink: %d -> %d", rows[0].Size, rows[len(rows)-1].Size)
	}
}

// TestPaperShape is the integration assertion of DESIGN.md §2: the
// relative ordering reported by the paper must hold on the synthetic
// data — TDPM wins on precision, and precision rises with the group's
// activity threshold.
func TestPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	r := testRunner()
	cells, err := r.Precision("quora", []int{1, 5}, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	accu := make(map[Algo]map[int]float64)
	for _, c := range cells {
		if accu[c.Algo] == nil {
			accu[c.Algo] = make(map[int]float64)
		}
		accu[c.Algo][c.Group] = c.ACCU
	}
	for _, g := range []int{1, 5} {
		tdpm := accu[AlgoTDPM][g]
		// Shape assertion 1: TDPM ≥ every baseline (small slack for
		// sampling noise at integration scale).
		for _, other := range []Algo{AlgoVSM, AlgoTSPM, AlgoDRM} {
			if tdpm < accu[other][g]-0.02 {
				t.Errorf("group %d: TDPM %.3f below %s %.3f", g, tdpm, other, accu[other][g])
			}
		}
		// TDPM must strictly beat VSM.
		if tdpm <= accu[AlgoVSM][g] {
			t.Errorf("group %d: TDPM %.3f does not beat VSM %.3f", g, tdpm, accu[AlgoVSM][g])
		}
	}
	// Shape assertion 2: TDPM precision rises with the activity
	// threshold (§7.3.1).
	if accu[AlgoTDPM][5] < accu[AlgoTDPM][1]-0.02 {
		t.Errorf("TDPM precision fell with threshold: %.3f -> %.3f", accu[AlgoTDPM][1], accu[AlgoTDPM][5])
	}
}

func TestRecallAndTimeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	r := testRunner()
	results, err := r.RecallAndTime("quora", []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	byAlgoGroup := indexResults(results)
	for _, algo := range AllAlgos {
		for _, g := range []int{1, 3} {
			res := byAlgoGroup[string(algo)][g]
			if res.Tasks == 0 {
				t.Fatalf("%s group %d evaluated no tasks", algo, g)
			}
			if res.Top2 < res.Top1 {
				t.Errorf("%s group %d: Top2 %.3f < Top1 %.3f", algo, g, res.Top2, res.Top1)
			}
			if res.MeanSelect <= 0 {
				t.Errorf("%s group %d: non-positive selection time", algo, g)
			}
		}
	}
	// Shape assertion: TDPM Top1 beats VSM Top1.
	if byAlgoGroup["TDPM"][1].Top1 <= byAlgoGroup["VSM"][1].Top1 {
		t.Errorf("TDPM Top1 %.3f does not beat VSM %.3f",
			byAlgoGroup["TDPM"][1].Top1, byAlgoGroup["VSM"][1].Top1)
	}
}

func TestExperimentsRegistry(t *testing.T) {
	exps := Experiments()
	wantIDs := []string{"T2", "F3", "F4", "T3", "T4", "F5", "F6", "T5", "T6", "F7", "F8", "T7", "T8", "SIM"}
	if len(exps) != len(wantIDs) {
		t.Fatalf("registry has %d experiments, want %d", len(exps), len(wantIDs))
	}
	for i, id := range wantIDs {
		if exps[i].ID != id {
			t.Errorf("experiment %d = %s, want %s", i, exps[i].ID, id)
		}
		if exps[i].Title == "" || exps[i].Run == nil {
			t.Errorf("experiment %s incomplete", id)
		}
	}
	if _, ok := ExperimentByID("T3"); !ok {
		t.Error("ByID(T3) missing")
	}
	if _, ok := ExperimentByID("T99"); ok {
		t.Error("ByID(T99) found")
	}
}

func TestTable2AndGroupStatExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	r := testRunner()
	var buf bytes.Buffer
	e, _ := ExperimentByID("T2")
	if err := e.Run(r, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"quora", "yahoo", "stackoverflow"} {
		if !strings.Contains(out, want) {
			t.Errorf("T2 output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	f3, _ := ExperimentByID("F3")
	if err := f3.Run(r, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "quora1") {
		t.Errorf("F3 output:\n%s", buf.String())
	}
}

func TestResultString(t *testing.T) {
	res := Result{Algorithm: "TDPM", Dataset: "quora", Group: 5, K: 10, Tasks: 100, ACCU: 0.9}
	if s := res.String(); !strings.Contains(s, "TDPM") || !strings.Contains(s, "ACCU=0.900") {
		t.Errorf("String = %q", s)
	}
}
