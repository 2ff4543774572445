package crowdql

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"crowdselect/internal/core"
	"crowdselect/internal/corpus"
	"crowdselect/internal/crowddb"
	"crowdselect/internal/eval"
)

func TestLex(t *testing.T) {
	toks, err := lex("SELECT workers WHERE resolved >= 5 AND name = 'a''b'")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.kind)
		texts = append(texts, tok.text)
	}
	wantTexts := []string{"SELECT", "workers", "WHERE", "resolved", ">=", "5", "AND", "name", "=", "a'b", ""}
	if !reflect.DeepEqual(texts, wantTexts) {
		t.Errorf("texts = %q", texts)
	}
	if kinds[5] != tokNumber || kinds[9] != tokString || kinds[4] != tokOp {
		t.Errorf("kinds = %v", kinds)
	}
}

func TestLexErrors(t *testing.T) {
	for _, bad := range []string{"'unterminated", "a ~ b", "a ! b"} {
		if _, err := lex(bad); err == nil {
			t.Errorf("lex(%q) accepted", bad)
		}
	}
}

func TestParseSelectCrowd(t *testing.T) {
	q, err := Parse("SELECT CROWD FOR TASK 'b+ tree question' LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	want := SelectCrowd{TaskText: "b+ tree question", K: 3}
	if q != want {
		t.Errorf("parsed %+v", q)
	}
	// LIMIT optional.
	q, err = Parse("select crowd for task 'x'")
	if err != nil {
		t.Fatal(err)
	}
	if q.(SelectCrowd).K != 0 {
		t.Errorf("default K = %d", q.(SelectCrowd).K)
	}
}

func TestParseSelectWorkers(t *testing.T) {
	q, err := Parse("SELECT WORKERS WHERE resolved >= 5 AND online = true ORDER BY resolved DESC LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	sw := q.(SelectWorkers)
	if len(sw.Where) != 2 || sw.OrderBy != "resolved" || !sw.Desc || sw.Limit != 10 {
		t.Errorf("parsed %+v", sw)
	}
	if sw.Where[0].Field != "resolved" || sw.Where[0].Op != ">=" || sw.Where[0].Int != 5 {
		t.Errorf("cond 0 = %+v", sw.Where[0])
	}
	if sw.Where[1].Field != "online" || sw.Where[1].Kind != BoolValue || !sw.Where[1].Bool {
		t.Errorf("cond 1 = %+v", sw.Where[1])
	}
}

func TestParseSelectTasksInsertUpdate(t *testing.T) {
	q, err := Parse("SELECT TASKS WHERE status = 'resolved' LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if st := q.(SelectTasks); st.Status != "resolved" || st.Limit != 5 {
		t.Errorf("parsed %+v", st)
	}
	q, err = Parse("INSERT WORKER 7 NAME 'alice'")
	if err != nil {
		t.Fatal(err)
	}
	if iw := q.(InsertWorker); iw.ID != 7 || iw.Name != "alice" {
		t.Errorf("parsed %+v", iw)
	}
	q, err = Parse("UPDATE WORKER 7 SET online = false")
	if err != nil {
		t.Fatal(err)
	}
	if uw := q.(UpdateWorker); uw.ID != 7 || uw.Online {
		t.Errorf("parsed %+v", uw)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"DELETE WORKER 1",
		"SELECT",
		"SELECT CROWD FOR TASK",
		"SELECT CROWD FOR TASK 'x' LIMIT 0",
		"SELECT CROWD FOR TASK 'x' LIMIT -2",
		"SELECT WORKERS WHERE wages > 3",
		"SELECT WORKERS WHERE online > true",
		"SELECT WORKERS WHERE name >= 'a'",
		"SELECT WORKERS WHERE resolved = 'five'",
		"SELECT WORKERS ORDER BY shoe_size",
		"SELECT WORKERS LIMIT 0",
		"SELECT TASKS WHERE status = 'weird'",
		"SELECT TASKS WHERE status = open", // must be quoted
		"INSERT WORKER x NAME 'a'",
		"INSERT WORKER 1 'a'",
		"UPDATE WORKER 1 SET online = maybe",
		"SELECT WORKERS LIMIT 3 garbage",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) accepted", q)
		}
	}
}

// execute parses and runs one statement.
func execute(e *Engine, input string) (Result, error) {
	q, err := Parse(input)
	if err != nil {
		return Result{}, err
	}
	return e.RunContext(context.Background(), q)
}

// engineFixture wires an engine over a small trained TDPM.
func engineFixture(t *testing.T) (*Engine, *corpus.Dataset) {
	t.Helper()
	p := corpus.Quora().Scaled(0.02).WithSeed(3)
	d := corpus.MustGenerate(p)
	cfg := core.NewConfig(4)
	cfg.MaxIter = 4
	m, _, err := core.Train(eval.ResolvedTasks(d), len(d.Workers), d.Vocab.Size(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	store := crowddb.NewStore()
	for i := range d.Workers {
		if _, err := store.AddWorker(i, fmt.Sprintf("worker-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	mgr, err := crowddb.NewManager(store, d.Vocab, core.NewConcurrentModel(m), 3)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(mgr)
	if err != nil {
		t.Fatal(err)
	}
	return eng, d
}

func TestEngineSelectCrowd(t *testing.T) {
	eng, _ := engineFixture(t)
	res, err := execute(eng, "SELECT CROWD FOR TASK 'some question text' LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || len(res.Columns) != 3 {
		t.Fatalf("result = %+v", res)
	}
	if res.Rows[0][0] != "1" || res.Rows[1][0] != "2" {
		t.Errorf("ranks = %v", res.Rows)
	}
	// The crowd-selection query dispatched a task.
	if got := eng.mgr.Store().NumTasks(); got != 1 {
		t.Errorf("tasks after query = %d", got)
	}
}

func TestEngineSelectWorkers(t *testing.T) {
	eng, d := engineFixture(t)
	eng.mgr.Store().SetOnline(0, false)

	res, err := execute(eng, "SELECT WORKERS WHERE online = false")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "0" {
		t.Errorf("offline workers = %v", res.Rows)
	}

	res, err = execute(eng, "SELECT WORKERS WHERE id >= 2 AND id < 5 ORDER BY id DESC")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || res.Rows[0][0] != "4" || res.Rows[2][0] != "2" {
		t.Errorf("ranged workers = %v", res.Rows)
	}

	res, err = execute(eng, "SELECT WORKERS LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("limited workers = %v", res.Rows)
	}

	res, err = execute(eng, "SELECT WORKERS WHERE name = 'worker-01'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1] != "worker-01" {
		t.Errorf("by-name = %v", res.Rows)
	}
	_ = d
}

func TestEngineTasksAndMutations(t *testing.T) {
	eng, _ := engineFixture(t)
	if _, err := execute(eng, "SELECT CROWD FOR TASK 'route me' LIMIT 2"); err != nil {
		t.Fatal(err)
	}
	res, err := execute(eng, "SELECT TASKS WHERE status = 'assigned'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1] != "assigned" {
		t.Errorf("assigned tasks = %v", res.Rows)
	}
	if res, err = execute(eng, "SELECT TASKS"); err != nil || len(res.Rows) != 1 {
		t.Errorf("all tasks = %v, %v", res.Rows, err)
	}

	// Insert and update via SQL.
	if _, err := execute(eng, "INSERT WORKER 999 NAME 'late joiner'"); err != nil {
		t.Fatal(err)
	}
	if _, err := execute(eng, "UPDATE WORKER 999 SET online = false"); err != nil {
		t.Fatal(err)
	}
	w, err := eng.mgr.Store().GetWorker(999)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "late joiner" || w.Online {
		t.Errorf("worker = %+v", w)
	}
	// Duplicate insert surfaces the store error.
	if _, err := execute(eng, "INSERT WORKER 999 NAME 'dup'"); err == nil {
		t.Error("duplicate insert accepted")
	}
}

func TestNewEngineNil(t *testing.T) {
	if _, err := NewEngine(nil); err == nil {
		t.Error("nil manager accepted")
	}
}
