package crowdclient

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"crowdselect/internal/crowddb"
)

// caller sends one request on a canonical (unscoped) path and, when out
// is non-nil, decodes the response into it. Client sends it to its one
// server; Multi and Router pick the endpoint or shard from the
// request's route-table row (crowddb.RouteOf).
type caller interface {
	call(ctx context.Context, method, path string, body, out any) error
}

// api is the typed data surface of the v1 API, written once over a
// caller: Client and Multi embed it, and Router's {id}-keyed methods
// are façades over it.
type api struct{ c caller }

// SubmitTask submits one task (POST /api/v1/tasks); k ≤ 0 selects the
// server's default crowd size.
func (a api) SubmitTask(ctx context.Context, text string, k int) (crowddb.SubmitResponse, error) {
	var out crowddb.SubmitResponse
	err := a.c.call(ctx, http.MethodPost, "/api/v1/tasks", crowddb.SubmitRequest{Text: text, K: k}, &out)
	return out, err
}

// SubmitBatch submits a whole batch in one round trip
// (POST /api/v1/tasks:batch) and returns one result per task, in
// request order.
func (a api) SubmitBatch(ctx context.Context, tasks []crowddb.SubmitRequest) ([]crowddb.SubmitResponse, error) {
	var out crowddb.BatchSubmitResponse
	err := a.c.call(ctx, http.MethodPost, "/api/v1/tasks:batch", crowddb.BatchSubmitRequest{Tasks: tasks}, &out)
	return out.Results, err
}

// selections posts one POST /api/v1/selections body.
func (a api) selections(ctx context.Context, req crowddb.BatchSubmitRequest) (crowddb.SelectionsResponse, error) {
	var out crowddb.SelectionsResponse
	err := a.c.call(ctx, http.MethodPost, "/api/v1/selections", req, &out)
	return out, err
}

// Selections ranks crowds for a batch of task texts without storing
// anything (POST /api/v1/selections) — the pure read that keeps
// answering while the server is in degraded read-only mode. It is
// idempotent, so the client retries it on any transport failure, and
// any copy (primary or replica) serves it.
func (a api) Selections(ctx context.Context, tasks []crowddb.SubmitRequest) (crowddb.SelectionsResponse, error) {
	return a.selections(ctx, crowddb.BatchSubmitRequest{Tasks: tasks})
}

// SelectionsScored is Selections with include_scores set: each result
// carries the workers' Eq. 1 scores, parallel to the ranking — what
// makes per-shard top-k lists mergeable. A Router's own legs are
// pre-encoded and sent by Multi.leg.
func (a api) SelectionsScored(ctx context.Context, tasks []crowddb.SubmitRequest) (crowddb.SelectionsResponse, error) {
	return a.selections(ctx, crowddb.BatchSubmitRequest{Tasks: tasks, IncludeScores: true})
}

// SkillFeedback folds feedback scores into the posteriors of workers
// this server owns, without touching a task row
// (POST /api/v1/skills:feedback) — the cross-shard red path. A server
// that does not own one of the scored workers refuses with 421
// wrong_shard and an owner hint. forwardOf >= 0 keys the request to
// the home-shard task it forwards, making it idempotent at the owner:
// retrying a failed leg cannot double-fold a posterior. forwardOf < 0
// sends unkeyed model-only feedback.
func (a api) SkillFeedback(ctx context.Context, forwardOf int, taskText string, scores map[int]float64) error {
	body := map[string]any{"text": taskText, "scores": wireScores(scores)}
	if forwardOf >= 0 {
		body["task"] = forwardOf
	}
	return a.c.call(ctx, http.MethodPost, "/api/v1/skills:feedback", body, nil)
}

// wireScores spells per-worker scores with the JSON object's string keys.
func wireScores(scores map[int]float64) map[string]float64 {
	wire := make(map[string]float64, len(scores))
	for w, s := range scores {
		wire[strconv.Itoa(w)] = s
	}
	return wire
}

// Topology fetches the server's live fleet layout
// (GET /api/v1/topology). Every node serves it, replicas included.
func (a api) Topology(ctx context.Context) (crowddb.Topology, error) {
	var out crowddb.Topology
	err := a.c.call(ctx, http.MethodGet, "/api/v1/topology", nil, &out)
	return out, err
}

// GetTask fetches a stored task (GET /api/v1/tasks/{id}).
func (a api) GetTask(ctx context.Context, id int) (crowddb.TaskRecord, error) {
	var out crowddb.TaskRecord
	err := a.c.call(ctx, http.MethodGet, "/api/v1/tasks/"+strconv.Itoa(id), nil, &out)
	return out, err
}

// Answer records one worker's answer
// (POST /api/v1/tasks/{id}/answers).
func (a api) Answer(ctx context.Context, taskID, workerID int, answer string) error {
	return a.c.call(ctx, http.MethodPost, fmt.Sprintf("/api/v1/tasks/%d/answers", taskID),
		map[string]any{"worker": workerID, "answer": answer}, nil)
}

// Feedback resolves a task with per-worker scores
// (POST /api/v1/tasks/{id}/feedback) and returns the resolved record.
func (a api) Feedback(ctx context.Context, taskID int, scores map[int]float64) (crowddb.TaskRecord, error) {
	var out crowddb.TaskRecord
	err := a.c.call(ctx, http.MethodPost, fmt.Sprintf("/api/v1/tasks/%d/feedback", taskID),
		map[string]any{"scores": wireScores(scores)}, &out)
	return out, err
}

// GetWorker fetches a worker row (GET /api/v1/workers/{id}).
func (a api) GetWorker(ctx context.Context, id int) (crowddb.Worker, error) {
	var out crowddb.Worker
	err := a.c.call(ctx, http.MethodGet, "/api/v1/workers/"+strconv.Itoa(id), nil, &out)
	return out, err
}

// SetPresence flips a worker's online flag
// (POST /api/v1/workers/{id}/presence).
func (a api) SetPresence(ctx context.Context, id int, online bool) error {
	return a.c.call(ctx, http.MethodPost, fmt.Sprintf("/api/v1/workers/%d/presence", id),
		map[string]any{"online": online}, nil)
}

// Stats fetches the crowd database counters (GET /api/v1/stats).
func (a api) Stats(ctx context.Context) (crowddb.StatsResponse, error) {
	var out crowddb.StatsResponse
	err := a.c.call(ctx, http.MethodGet, "/api/v1/stats", nil, &out)
	return out, err
}

// Query runs one crowdql statement (POST /api/v1/query) and returns
// the raw JSON result. A SELECT CROWD submits tasks, so the route is
// never repeated and a Multi sends it to the primary.
func (a api) Query(ctx context.Context, q string) (json.RawMessage, error) {
	var out json.RawMessage
	err := a.c.call(ctx, http.MethodPost, "/api/v1/query", map[string]string{"q": q}, &out)
	return out, err
}
