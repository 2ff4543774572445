package crowddb

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
)

// postStatus posts a JSON body and returns the status code; it is
// goroutine-safe (no t.Fatal) so the hammer workers can use it.
func postStatus(url string, body any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

// TestConcurrentSelectVsFeedback hammers the full HTTP server with
// crowd-selection requests (model reads via Project/Rank) racing
// feedback posts (posterior writes via UpdateWorkerSkill). Before the
// manager wrapped the model in a core.ConcurrentModel, this test
// failed under `go test -race`.
func TestConcurrentSelectVsFeedback(t *testing.T) {
	ts, mgr := serverFixture(t)

	// Stage resolvable tasks: submitted, answered, awaiting feedback.
	const nResolve = 12
	type target struct{ task, worker int }
	targets := make([]target, 0, nResolve)
	for i := 0; i < nResolve; i++ {
		sub, err := mgr.SubmitTask(context.Background(), fmt.Sprintf("question %d about database indexes", i), 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.CollectAnswer(sub.Task.ID, sub.Workers[0], "an answer"); err != nil {
			t.Fatal(err)
		}
		targets = append(targets, target{sub.Task.ID, sub.Workers[0]})
	}

	var wg sync.WaitGroup
	// Selection traffic: every submit projects the task and ranks the
	// crowd, reading the worker posteriors.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				status, err := postStatus(ts.URL+"/api/v1/tasks",
					map[string]any{"text": fmt.Sprintf("hammer %d-%d trees queries", g, i), "k": 2})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if status != http.StatusCreated {
					t.Errorf("submit status = %d", status)
					return
				}
			}
		}(g)
	}
	// Feedback traffic: every resolve updates the answerer's posterior.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, tg := range targets {
			status, err := postStatus(fmt.Sprintf("%s/api/v1/tasks/%d/feedback", ts.URL, tg.task),
				map[string]any{"scores": map[string]float64{fmt.Sprint(tg.worker): 4}})
			if err != nil {
				t.Errorf("feedback: %v", err)
				return
			}
			if status != http.StatusOK {
				t.Errorf("feedback status = %d", status)
				return
			}
		}
	}()
	wg.Wait()

	// The metrics middleware saw the whole hammer.
	resp, err := http.Get(ts.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	snap := decode[MetricsSnapshot](t, resp)
	if got := snap.Endpoints["POST /api/v1/tasks"].Count; got < 4*8 {
		t.Errorf("metrics counted %d submits, want >= 32", got)
	}
	if got := snap.Endpoints["POST /api/v1/tasks/{id}/feedback"].Count; got != nResolve {
		t.Errorf("metrics counted %d feedback posts, want %d", got, nResolve)
	}
}
