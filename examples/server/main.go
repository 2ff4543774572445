// Crowd-manager service demo: boots the Figure 1 pipeline end to end,
// in process. It generates a Quora-like corpus, trains TDPM, stands up
// the crowd database and HTTP crowd manager, and then plays both
// sides — submitting a question over HTTP, collecting answers from the
// selected workers, and posting feedback that updates their skills.
//
// Run with:
//
//	go run ./examples/server
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"

	"crowdselect/internal/core"
	"crowdselect/internal/corpus"
	"crowdselect/internal/crowddb"
	"crowdselect/internal/eval"
)

func main() {
	// Build the platform: corpus → model → crowd database → manager.
	d, err := corpus.Generate(corpus.Quora().Scaled(0.05))
	if err != nil {
		log.Fatal(err)
	}
	model, _, err := core.Train(eval.ResolvedTasks(d), len(d.Workers), d.Vocab.Size(), core.NewConfig(8))
	if err != nil {
		log.Fatal(err)
	}
	store := crowddb.NewStore()
	for _, w := range d.Workers {
		if _, err := store.AddWorker(w.ID, fmt.Sprintf("worker-%03d", w.ID)); err != nil {
			log.Fatal(err)
		}
	}
	// The server handles each request on its own goroutine, so the model
	// is wrapped for concurrent selection and feedback.
	mgr, err := crowddb.NewManager(store, d.Vocab, core.NewConcurrentModel(model), 3)
	if err != nil {
		log.Fatal(err)
	}
	srv := httptest.NewServer(crowddb.NewServer(mgr))
	defer srv.Close()
	fmt.Printf("crowd manager (%s) serving %d workers at %s\n\n",
		mgr.SelectorName(), store.NumWorkers(), srv.URL)

	// Submit a task: the manager projects it and dispatches to the
	// top-3 online workers.
	question := d.Tasks[3].Tokens // reuse generated platform language
	text := ""
	for _, tok := range question {
		text += tok + " "
	}
	var sub struct {
		TaskID  int    `json:"task_id"`
		Workers []int  `json:"workers"`
		Model   string `json:"model"`
	}
	post(srv.URL+"/api/v1/tasks", map[string]any{"text": text, "k": 3}, &sub)
	fmt.Printf("submitted task %d; dispatcher sent it to workers %v\n", sub.TaskID, sub.Workers)

	// The selected workers answer.
	for i, w := range sub.Workers {
		post(fmt.Sprintf("%s/api/v1/tasks/%d/answers", srv.URL, sub.TaskID),
			map[string]any{"worker": w, "answer": fmt.Sprintf("answer #%d", i)}, nil)
	}
	fmt.Printf("collected %d answers\n", len(sub.Workers))

	// The requester scores the answers (thumbs-up counts); feedback
	// resolves the task and updates skills.
	scores := map[string]float64{}
	for i, w := range sub.Workers {
		scores[fmt.Sprint(w)] = float64(5 - 2*i)
	}
	var resolved struct {
		Status  int `json:"status"`
		Answers []struct {
			Worker int     `json:"worker"`
			Score  float64 `json:"score"`
		} `json:"answers"`
	}
	post(fmt.Sprintf("%s/api/v1/tasks/%d/feedback", srv.URL, sub.TaskID),
		map[string]any{"scores": scores}, &resolved)
	fmt.Println("feedback recorded; answer scores:")
	for _, a := range resolved.Answers {
		fmt.Printf("  worker %3d scored %.0f\n", a.Worker, a.Score)
	}

	// Final pipeline state.
	resp, err := http.Get(srv.URL + "/api/v1/stats")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstats: %v\n", stats)

	// The middleware tracked every call above: per-endpoint counts,
	// errors and latency quantiles.
	mresp, err := http.Get(srv.URL + "/api/v1/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer mresp.Body.Close()
	var metrics struct {
		Requests  int64 `json:"requests"`
		Errors    int64 `json:"errors"`
		Endpoints map[string]struct {
			Count int64   `json:"count"`
			P50Ms float64 `json:"p50_ms"`
			P99Ms float64 `json:"p99_ms"`
		} `json:"endpoints"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&metrics); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmetrics: %d requests, %d errors\n", metrics.Requests, metrics.Errors)
	for ep, m := range metrics.Endpoints {
		fmt.Printf("  %-32s count %2d  p50 %6.2fms  p99 %6.2fms\n", ep, m.Count, m.P50Ms, m.P99Ms)
	}
}

func post(url string, body, out any) {
	b, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		log.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			log.Fatal(err)
		}
	}
}
