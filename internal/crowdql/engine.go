package crowdql

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"crowdselect/internal/crowddb"
)

// Engine executes crowdql statements against a crowd manager.
type Engine struct {
	mgr *crowddb.Manager
}

// NewEngine wraps a crowd manager.
func NewEngine(mgr *crowddb.Manager) (*Engine, error) {
	if mgr == nil {
		return nil, fmt.Errorf("crowdql: nil manager")
	}
	return &Engine{mgr: mgr}, nil
}

// Result is a tabular query result.
type Result struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// Execute parses and runs one statement with no cancellation.
func (e *Engine) Execute(input string) (Result, error) {
	return e.ExecuteContext(context.Background(), input)
}

// ExecuteContext parses and runs one statement; ctx cancels
// crowd-selection work (the SELECT CROWD path projects and ranks).
func (e *Engine) ExecuteContext(ctx context.Context, input string) (Result, error) {
	q, err := Parse(input)
	if err != nil {
		return Result{}, err
	}
	return e.RunContext(ctx, q)
}

// RunContext executes a parsed query under ctx.
func (e *Engine) RunContext(ctx context.Context, q Query) (Result, error) {
	switch q := q.(type) {
	case SelectCrowd:
		return e.selectCrowd(ctx, q)
	case SelectWorkers:
		return e.selectWorkers(q)
	case SelectTasks:
		return e.selectTasks(q)
	case InsertWorker:
		if _, err := e.mgr.Store().AddWorker(q.ID, q.Name); err != nil {
			return Result{}, err
		}
		return Result{Columns: []string{"inserted"}, Rows: [][]string{{strconv.Itoa(q.ID)}}}, nil
	case UpdateWorker:
		if err := e.mgr.Store().SetOnline(q.ID, q.Online); err != nil {
			return Result{}, err
		}
		return Result{Columns: []string{"updated"}, Rows: [][]string{{strconv.Itoa(q.ID)}}}, nil
	default:
		return Result{}, fmt.Errorf("crowdql: unsupported query %T", q)
	}
}

// selectCrowd runs the crowd-selection query: the task is stored,
// projected and dispatched exactly as via Manager.SubmitTask.
func (e *Engine) selectCrowd(ctx context.Context, q SelectCrowd) (Result, error) {
	sub, err := e.mgr.SubmitTask(ctx, q.TaskText, q.K)
	if err != nil {
		return Result{}, err
	}
	res := Result{Columns: []string{"rank", "worker", "name"}}
	for i, w := range sub.Workers {
		name := ""
		if worker, err := e.mgr.Store().GetWorker(w); err == nil {
			name = worker.Name
		}
		res.Rows = append(res.Rows, []string{
			strconv.Itoa(i + 1), strconv.Itoa(w), name,
		})
	}
	return res, nil
}

func (e *Engine) selectWorkers(q SelectWorkers) (Result, error) {
	workers := e.mgr.Store().Workers()
	filtered := workers[:0]
	for _, w := range workers {
		ok := true
		for _, c := range q.Where {
			match, err := matchWorker(w, c)
			if err != nil {
				return Result{}, err
			}
			if !match {
				ok = false
				break
			}
		}
		if ok {
			filtered = append(filtered, w)
		}
	}
	switch q.OrderBy {
	case "name":
		sort.SliceStable(filtered, func(a, b int) bool { return filtered[a].Name < filtered[b].Name })
	case "resolved":
		sort.SliceStable(filtered, func(a, b int) bool { return filtered[a].Resolved < filtered[b].Resolved })
	}
	if q.Desc {
		for i, j := 0, len(filtered)-1; i < j; i, j = i+1, j-1 {
			filtered[i], filtered[j] = filtered[j], filtered[i]
		}
	}
	if q.Limit > 0 && len(filtered) > q.Limit {
		filtered = filtered[:q.Limit]
	}
	res := Result{Columns: []string{"id", "name", "online", "resolved"}}
	for _, w := range filtered {
		res.Rows = append(res.Rows, []string{
			strconv.Itoa(w.ID), w.Name, strconv.FormatBool(w.Online), strconv.Itoa(w.Resolved),
		})
	}
	return res, nil
}

func (e *Engine) selectTasks(q SelectTasks) (Result, error) {
	var tasks []crowddb.TaskRecord
	statuses := []crowddb.TaskStatus{crowddb.TaskOpen, crowddb.TaskAssigned, crowddb.TaskResolved}
	if q.Status != "" {
		switch q.Status {
		case "open":
			statuses = statuses[:1]
		case "assigned":
			statuses = statuses[1:2]
		case "resolved":
			statuses = statuses[2:]
		}
	}
	for _, st := range statuses {
		tasks = append(tasks, e.mgr.Store().ListTasks(st)...)
	}
	sort.Slice(tasks, func(a, b int) bool { return tasks[a].ID < tasks[b].ID })
	if q.Limit > 0 && len(tasks) > q.Limit {
		tasks = tasks[:q.Limit]
	}
	res := Result{Columns: []string{"id", "status", "answers", "text"}}
	for _, t := range tasks {
		text := t.Text
		if len(text) > 60 {
			text = text[:57] + "..."
		}
		res.Rows = append(res.Rows, []string{
			strconv.Itoa(t.ID), t.Status.String(), strconv.Itoa(len(t.Answers)), text,
		})
	}
	return res, nil
}

// matchWorker evaluates one condition against a worker row.
func matchWorker(w crowddb.Worker, c Cond) (bool, error) {
	switch c.Field {
	case "id":
		return compareInt(int64(w.ID), c.Op, c.Int)
	case "resolved":
		return compareInt(int64(w.Resolved), c.Op, c.Int)
	case "name":
		if c.Op == "=" {
			return w.Name == c.Str, nil
		}
		return w.Name != c.Str, nil
	case "online":
		if c.Op == "=" {
			return w.Online == c.Bool, nil
		}
		return w.Online != c.Bool, nil
	default:
		return false, fmt.Errorf("crowdql: unknown field %q", c.Field)
	}
}

func compareInt(v int64, op string, rhs int64) (bool, error) {
	switch op {
	case "=":
		return v == rhs, nil
	case "!=":
		return v != rhs, nil
	case ">":
		return v > rhs, nil
	case ">=":
		return v >= rhs, nil
	case "<":
		return v < rhs, nil
	case "<=":
		return v <= rhs, nil
	default:
		return false, fmt.Errorf("crowdql: bad operator %q", op)
	}
}

// HTTPAdapter adapts the engine to crowddb.Server's QueryEngine
// interface, mapping parse errors to the server's bad-request class.
type HTTPAdapter struct {
	Engine *Engine
}

// Execute runs the statement under the request context; parse failures
// surface as crowddb.ErrBadRequest so the HTTP layer returns 400.
func (a HTTPAdapter) Execute(ctx context.Context, q string) (any, error) {
	parsed, err := Parse(q)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", crowddb.ErrBadRequest, err)
	}
	return a.Engine.RunContext(ctx, parsed)
}
