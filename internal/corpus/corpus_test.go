package corpus

import (
	"bytes"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"crowdselect/internal/text"
)

// testProfile is a small, fast profile for unit tests.
func testProfile() Profile {
	p := Quora().Scaled(0.05) // ~222 tasks, ~47 workers
	p.Seed = 99
	return p
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(testProfile())
	b := MustGenerate(testProfile())
	if len(a.Tasks) != len(b.Tasks) || len(a.Workers) != len(b.Workers) {
		t.Fatal("sizes differ between identical seeds")
	}
	for j := range a.Tasks {
		if !reflect.DeepEqual(a.Tasks[j].Tokens, b.Tasks[j].Tokens) {
			t.Fatalf("task %d tokens differ", j)
		}
		if !reflect.DeepEqual(a.Tasks[j].Responses, b.Tasks[j].Responses) {
			t.Fatalf("task %d responses differ", j)
		}
	}
}

func TestGenerateSeedChangesData(t *testing.T) {
	a := MustGenerate(testProfile())
	b := MustGenerate(testProfile().WithSeed(100))
	same := true
	for j := range a.Tasks {
		if !reflect.DeepEqual(a.Tasks[j].Tokens, b.Tasks[j].Tokens) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical task text")
	}
}

func TestGenerateStructure(t *testing.T) {
	p := testProfile()
	d := MustGenerate(p)
	if len(d.Tasks) != p.Tasks || len(d.Workers) != p.Workers {
		t.Fatalf("sizes = %d tasks, %d workers", len(d.Tasks), len(d.Workers))
	}
	for _, task := range d.Tasks {
		if len(task.Tokens) < p.MinTaskLen {
			t.Fatalf("task %d has %d tokens, min %d", task.ID, len(task.Tokens), p.MinTaskLen)
		}
		if len(task.Responses) < 1 || len(task.Responses) > p.MaxAnswerers {
			t.Fatalf("task %d has %d responses", task.ID, len(task.Responses))
		}
		if math.Abs(task.TrueMix.Sum()-1) > 1e-9 {
			t.Fatalf("task %d mix sums to %v", task.ID, task.TrueMix.Sum())
		}
		if _, ok := task.BestWorker(); !ok {
			t.Fatalf("task %d has no best worker", task.ID)
		}
		seen := map[int]bool{}
		for _, r := range task.Responses {
			if seen[r.Worker] {
				t.Fatalf("task %d has duplicate respondent %d", task.ID, r.Worker)
			}
			seen[r.Worker] = true
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateActivitySkew(t *testing.T) {
	d := MustGenerate(testProfile())
	counts := make([]int, 0, len(d.Workers))
	for _, w := range d.Workers {
		counts = append(counts, w.TaskCount)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	// The most active decile should hold well over its proportional
	// share of the answers.
	var total, top int
	for i, c := range counts {
		total += c
		if i < len(counts)/10+1 {
			top += c
		}
	}
	if float64(top) < 0.3*float64(total) {
		t.Errorf("top decile holds %d of %d answers; want heavy skew", top, total)
	}
}

func TestGenerateBestCorrelatesWithSkill(t *testing.T) {
	// The ground-truth best answerer should usually have the highest
	// true quality among respondents — that is what makes the "right
	// worker" learnable at all.
	d := MustGenerate(testProfile())
	hits, total := 0, 0
	for _, task := range d.Tasks {
		if len(task.Responses) < 2 {
			continue
		}
		total++
		bestW, _ := task.BestWorker()
		bestQ, maxQ := 0.0, 0.0
		for _, r := range task.Responses {
			q := d.Workers[r.Worker].TrueSkill.Dot(task.TrueMix)
			if r.Worker == bestW {
				bestQ = q
			}
			if q > maxQ {
				maxQ = q
			}
		}
		if bestQ >= 0.8*maxQ {
			hits++
		}
	}
	if total == 0 {
		t.Fatal("no multi-respondent tasks generated")
	}
	if frac := float64(hits) / float64(total); frac < 0.6 {
		t.Errorf("best answerer near-top quality on only %.2f of tasks", frac)
	}
}

func TestGenerateYahooJaccardScores(t *testing.T) {
	p := Yahoo().Scaled(0.02).WithSeed(5)
	d := MustGenerate(p)
	sawFractional := false
	for _, task := range d.Tasks {
		bestCount := 0
		for _, r := range task.Responses {
			if r.Score < 0 || r.Score > 1 {
				t.Fatalf("best-answer score out of range: %v", r.Score)
			}
			if r.Best {
				bestCount++
				if r.Score != 1 {
					t.Fatalf("best answer score = %v, want 1", r.Score)
				}
			}
			if len(r.AnswerTokens) == 0 {
				t.Fatal("missing answer tokens in best-answer dataset")
			}
			if r.Score > 0 && r.Score < 1 {
				sawFractional = true
			}
		}
		if len(task.Responses) > 0 && bestCount != 1 {
			t.Fatalf("task %d has %d best markers", task.ID, bestCount)
		}
	}
	if !sawFractional {
		t.Error("no fractional Jaccard scores generated")
	}
}

func TestGenerateThumbsScoresAreCounts(t *testing.T) {
	d := MustGenerate(testProfile())
	for _, task := range d.Tasks {
		for _, r := range task.Responses {
			if r.Score < 0 || r.Score != math.Trunc(r.Score) {
				t.Fatalf("thumbs score %v is not a non-negative integer", r.Score)
			}
			if len(r.AnswerTokens) != 0 {
				t.Fatal("thumbs dataset should not carry answer tokens")
			}
		}
	}
}

func TestTaskBagCaching(t *testing.T) {
	d := MustGenerate(testProfile())
	task := d.Tasks[0]
	b1 := task.Bag(d.Vocab)
	b2 := task.Bag(d.Vocab)
	if !reflect.DeepEqual(b1, b2) {
		t.Error("cached bag differs")
	}
	if b1.Total() != float64(len(task.Tokens)) {
		t.Errorf("bag total %v, tokens %d", b1.Total(), len(task.Tokens))
	}
}

func TestStats(t *testing.T) {
	d := MustGenerate(testProfile())
	s := d.Stats()
	if s.Tasks != len(d.Tasks) {
		t.Errorf("Stats.Tasks = %d", s.Tasks)
	}
	var answers int
	for _, task := range d.Tasks {
		answers += len(task.Responses)
	}
	if s.Answers != answers {
		t.Errorf("Stats.Answers = %d, want %d", s.Answers, answers)
	}
	if s.Workers == 0 || s.Workers > len(d.Workers) {
		t.Errorf("Stats.Workers = %d", s.Workers)
	}
	if !strings.Contains(s.String(), "quora") {
		t.Errorf("Stats.String = %q", s.String())
	}
}

func TestWorkerHistory(t *testing.T) {
	d := MustGenerate(testProfile())
	answered := make([]int, len(d.Workers))
	var total int
	for _, task := range d.Tasks {
		for _, r := range task.Responses {
			answered[r.Worker]++
			total++
		}
	}
	for w, n := range answered {
		if n != d.Workers[w].TaskCount {
			t.Fatalf("worker %d answered %d tasks, TaskCount %d", w, n, d.Workers[w].TaskCount)
		}
	}
	if total != d.Stats().Answers {
		t.Errorf("%d responses, %d answers", total, d.Stats().Answers)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := MustGenerate(testProfile())
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Vocab.Size() != d.Vocab.Size() {
		t.Errorf("vocab size %d, want %d", got.Vocab.Size(), d.Vocab.Size())
	}
	if len(got.Tasks) != len(d.Tasks) || len(got.Workers) != len(d.Workers) {
		t.Fatal("population sizes changed in round trip")
	}
	for j := range d.Tasks {
		if !reflect.DeepEqual(got.Tasks[j].Tokens, d.Tasks[j].Tokens) {
			t.Fatalf("task %d tokens changed", j)
		}
	}
	// Bags built from the reloaded vocabulary must match.
	b1 := d.Tasks[0].Bag(d.Vocab)
	b2 := got.Tasks[0].Bag(got.Vocab)
	if !reflect.DeepEqual(b1, b2) {
		t.Error("bags differ after round trip")
	}
}

func TestLoadCorruptedInput(t *testing.T) {
	if _, err := Load(strings.NewReader("{not json")); err == nil {
		t.Error("corrupt JSON accepted")
	}
	// Response pointing at a missing worker must be rejected.
	bad := `{"profile":{"Name":"x"},"vocab_terms":["a"],"workers":[{"id":0}],` +
		`"tasks":[{"id":0,"tokens":["a"],"responses":[{"worker":5,"score":1,"best":true}]}]}`
	if _, err := Load(strings.NewReader(bad)); err == nil {
		t.Error("dangling worker reference accepted")
	}
	// Duplicate vocabulary terms must be rejected.
	dup := `{"profile":{"Name":"x"},"vocab_terms":["a","a"],"workers":[],"tasks":[]}`
	if _, err := Load(strings.NewReader(dup)); err == nil {
		t.Error("duplicate vocab term accepted")
	}
}

func TestProfileValidate(t *testing.T) {
	good := []Profile{Quora(), Yahoo(), StackOverflow()}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	bad := Quora()
	bad.Tasks = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero tasks accepted")
	}
	bad = Quora()
	bad.Categories = 1
	if err := bad.Validate(); err == nil {
		t.Error("one category accepted")
	}
	bad = Quora()
	bad.VocabSize = 5
	if err := bad.Validate(); err == nil {
		t.Error("tiny vocab accepted")
	}
	bad = Quora()
	bad.ExpertCategories = 99
	if err := bad.Validate(); err == nil {
		t.Error("too many expert categories accepted")
	}
}

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"quora", "yahoo", "stackoverflow", "stack"} {
		if _, err := ProfileByName(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := ProfileByName("reddit"); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestScaledFloors(t *testing.T) {
	p := Quora().Scaled(0.000001)
	if p.Tasks < 16 || p.Workers < 8 {
		t.Errorf("Scaled floor violated: %d tasks, %d workers", p.Tasks, p.Workers)
	}
}

func TestFeedbackKindString(t *testing.T) {
	if ThumbsUp.String() != "thumbs-up" || BestAnswer.String() != "best-answer" {
		t.Error("FeedbackKind.String wrong")
	}
	if !strings.Contains(FeedbackKind(9).String(), "9") {
		t.Error("unknown kind string")
	}
}

func TestVocabularyOnlyKnownTerms(t *testing.T) {
	d := MustGenerate(testProfile())
	for _, task := range d.Tasks {
		for _, tok := range task.Tokens {
			if text.NewBagKnown(d.Vocab, []string{tok}).Len() == 0 {
				t.Fatalf("task token %q not in vocabulary", tok)
			}
		}
	}
	_ = text.NewBagKnown(d.Vocab, d.Tasks[0].Tokens)
}
