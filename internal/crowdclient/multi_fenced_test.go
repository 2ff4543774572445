package crowdclient

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crowdselect/internal/clock"
	"crowdselect/internal/crowddb"
)

// fencedHandler refuses every request with the sealed node's 409
// fenced envelope, hinting at newPrimary and gossiping its fencing
// state.
func fencedHandler(hits *int32, newPrimary, history string, epoch uint64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(hits, 1)
		if newPrimary != "" {
			w.Header().Set("X-Crowdd-Primary", newPrimary)
		}
		w.Header().Set("X-Crowdd-History", history)
		w.Header().Set("X-Crowdd-Fencing-Epoch", "2")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		json.NewEncoder(w).Encode(crowddb.ErrorEnvelope{
			Error: crowddb.ErrorBody{Code: "fenced", Message: "node is fenced"},
		})
	})
}

// TestMultiWriteFollowsFencedRedirect: a 409 fenced from the believed
// primary proves the mutation was not applied, so the Multi forgets it
// and re-resolves from the X-Crowdd-Primary hint — the client half of
// a supervisor failover.
func TestMultiWriteFollowsFencedRedirect(t *testing.T) {
	var newHits int32
	var sawEpoch atomic.Value
	newPrimary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&newHits, 1)
		sawEpoch.Store(r.Header.Get("X-Crowdd-Fencing-Epoch"))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		w.Write([]byte(`{"task_id": 7, "workers": [1, 2]}`))
	}))
	defer newPrimary.Close()
	var oldHits int32
	oldPrimary := httptest.NewServer(fencedHandler(&oldHits, newPrimary.URL, "h1", 2))
	defer oldPrimary.Close()

	// The deposed node is listed first: the initial believed primary.
	m, err := NewMulti([]string{oldPrimary.URL, newPrimary.URL}, Options{
		Timeout: 5 * time.Second, Retries: 1, Backoff: time.Millisecond, Clock: new(clock.Manual),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sub, err := m.SubmitTask(ctx, "land on the new primary", 2)
	if err != nil {
		t.Fatalf("write through fenced redirect: %v", err)
	}
	if sub.TaskID != 7 {
		t.Errorf("sub = %+v", sub)
	}
	if got := m.Primary(); got != newPrimary.URL {
		t.Errorf("believed primary %q, want the hinted %q", got, newPrimary.URL)
	}
	if m.Failovers() != 1 {
		t.Errorf("failovers = %d, want 1", m.Failovers())
	}

	// The believed primary is forgotten for good: the next write never
	// touches the deposed node again.
	if _, err := m.SubmitTask(ctx, "straight to the winner", 2); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&oldHits); got != 1 {
		t.Errorf("deposed node hit %d times, want 1", got)
	}

	// The Multi gossips the epoch it learned from the refusal onward:
	// the write that landed on the new primary carried epoch 2.
	if got, _ := sawEpoch.Load().(string); got != "2" {
		t.Errorf("new primary saw X-Crowdd-Fencing-Epoch %q, want 2 (gossiped from the refusal)", got)
	}
}

// TestMultiFencedRedirectIsBounded: two sealed nodes hinting at each
// other must not trap the Multi in a redirect loop — each endpoint is
// tried a bounded number of times, then the typed error surfaces.
func TestMultiFencedRedirectIsBounded(t *testing.T) {
	var hitsA, hitsB int32
	var urlA, urlB string
	a := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fencedHandler(&hitsA, urlB, "h1", 2).ServeHTTP(w, r)
	}))
	defer a.Close()
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fencedHandler(&hitsB, urlA, "h1", 2).ServeHTTP(w, r)
	}))
	defer b.Close()
	urlA, urlB = a.URL, b.URL

	m, err := NewMulti([]string{a.URL, b.URL}, Options{
		Timeout: 5 * time.Second, Retries: 0, Backoff: time.Millisecond, Clock: new(clock.Manual),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.SubmitTask(context.Background(), "nobody takes this", 2)
	if err == nil {
		t.Fatal("write into a fully fenced fleet succeeded")
	}
	if !strings.Contains(err.Error(), "fenced") {
		t.Errorf("err = %v, want the fenced refusal surfaced", err)
	}
	total := atomic.LoadInt32(&hitsA) + atomic.LoadInt32(&hitsB)
	if max := int32(len(m.Endpoints()) + 1); total > max {
		t.Errorf("fenced ping-pong made %d requests, want <= %d", total, max)
	}
}
