// Crowd-manager service demo: boots the Figure 1 pipeline end to end,
// in process. It generates a Quora-like corpus, trains TDPM, stands up
// the crowd database and HTTP crowd manager, and then plays both
// sides through the typed client — previewing a crowd with a pure
// selection, submitting the question, collecting answers from the
// selected workers, and posting feedback that updates their skills.
//
// Run with:
//
//	go run ./examples/server
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"crowdselect/internal/core"
	"crowdselect/internal/corpus"
	"crowdselect/internal/crowdclient"
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

	// Talk to it through the typed client, as any crowdd caller would.
	ctx := context.Background()
	cli := crowdclient.New(srv.URL, crowdclient.Options{})

	// Preview the crowd: a pure selection ranks it and stores nothing —
	// the read any replica serves.
	question := d.Tasks[3].Tokens // reuse generated platform language
	text := strings.Join(question, " ")
	preview, err := cli.Selections(ctx, []crowddb.SubmitRequest{{Text: text, K: 3}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("a pure selection ranks workers %v for the question\n", preview.Results[0].Workers)

	// Submit the task: the manager projects it and dispatches to the
	// top-3 online workers.
	sub, err := cli.SubmitTask(ctx, text, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted task %d; dispatcher sent it to workers %v\n", sub.TaskID, sub.Workers)

	// The selected workers answer.
	for i, w := range sub.Workers {
		if err := cli.Answer(ctx, sub.TaskID, w, fmt.Sprintf("answer #%d", i)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("collected %d answers\n", len(sub.Workers))

	// The requester scores the answers (thumbs-up counts); feedback
	// resolves the task and updates skills.
	scores := map[int]float64{}
	for i, w := range sub.Workers {
		scores[w] = float64(5 - 2*i)
	}
	resolved, err := cli.Feedback(ctx, sub.TaskID, scores)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("feedback recorded; answer scores:")
	for _, a := range resolved.Answers {
		fmt.Printf("  worker %3d scored %.0f\n", a.Worker, a.Score)
	}

	// Final pipeline state.
	stats, err := cli.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstats: %+v\n", stats)

	// The middleware tracked every call above: per-endpoint counts,
	// errors and latency quantiles. The metrics snapshot has no typed
	// method; Do fetches its raw payload.
	raw, err := cli.Do(ctx, http.MethodGet, "/api/v1/metrics", nil)
	if err != nil {
		log.Fatal(err)
	}
	var metrics struct {
		Requests  int64 `json:"requests"`
		Errors    int64 `json:"errors"`
		Endpoints map[string]struct {
			Count int64   `json:"count"`
			P50Ms float64 `json:"p50_ms"`
			P99Ms float64 `json:"p99_ms"`
		} `json:"endpoints"`
	}
	if err := json.Unmarshal(raw, &metrics); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmetrics: %d requests, %d errors\n", metrics.Requests, metrics.Errors)
	for ep, m := range metrics.Endpoints {
		fmt.Printf("  %-32s count %2d  p50 %6.2fms  p99 %6.2fms\n", ep, m.Count, m.P50Ms, m.P99Ms)
	}
}
