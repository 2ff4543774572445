package crowdclient

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"crowdselect/internal/clock"
	"crowdselect/internal/crowddb"
)

// notPrimaryHandler refuses every request with the replica gate's 421
// envelope, pointing at primaryURL.
func notPrimaryHandler(hits *int32, primaryURL string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(hits, 1)
		w.Header().Set("X-Crowdd-Primary", primaryURL)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusMisdirectedRequest)
		json.NewEncoder(w).Encode(crowddb.ErrorEnvelope{
			Error: crowddb.ErrorBody{Code: "not_primary", Message: "replica: mutations go to the primary"},
		})
	})
}

func submitOK(hits *int32) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(hits, 1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		fmt.Fprintln(w, `{"task_id": 7, "workers": [1, 2]}`)
	})
}

// TestRetryAfterFloorsBackoff: a shedding 503 with Retry-After must
// stretch the next backoff to at least the server's hint instead of
// hammering it again after the (much shorter) exponential delay.
func TestRetryAfterFloorsBackoff(t *testing.T) {
	var hits int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&hits, 1) == 1 {
			w.Header().Set("Retry-After", "3")
			http.Error(w, "shed", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"workers": 3}`)
	}))
	defer srv.Close()

	clk := new(clock.Manual)
	start := clk.Now()
	cli := New(srv.URL, Options{
		Timeout: 5 * time.Second,
		Retries: 3,
		Backoff: time.Millisecond,
		Clock:   clk,
	})
	if _, err := cli.Stats(context.Background()); err != nil {
		t.Fatalf("GET through shedding server: %v", err)
	}
	if got := atomic.LoadInt32(&hits); got != 2 {
		t.Fatalf("server hit %d times, want 2 (one shed, one success)", got)
	}
	if slept := clk.Now().Sub(start); slept < 3*time.Second {
		t.Errorf("backoff after shed = %v, want >= 3s (the Retry-After floor)", slept)
	}
}

// TestRetryAfterCapped: an absurd Retry-After must not park the client
// for the server's full ask — the floor is capped at 10s.
func TestRetryAfterCapped(t *testing.T) {
	var hits int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&hits, 1) == 1 {
			w.Header().Set("Retry-After", "3600")
			http.Error(w, "shed", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, `{"workers": 1}`)
	}))
	defer srv.Close()

	clk := new(clock.Manual)
	start := clk.Now()
	cli := New(srv.URL, Options{
		Timeout: 5 * time.Second,
		Retries: 2,
		Backoff: time.Millisecond,
		Clock:   clk,
	})
	if _, err := cli.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, slept := atomic.LoadInt32(&hits), clk.Now().Sub(start); got != 2 || slept != 10*time.Second {
		t.Errorf("%d hits after sleeping %v, want 2 after exactly one 10s sleep (capped hint)", got, slept)
	}
}

// TestParseRetryAfter covers both RFC forms and the garbage cases.
func TestParseRetryAfter(t *testing.T) {
	if d := parseRetryAfter("5"); d != 5*time.Second {
		t.Errorf("delta-seconds: %v", d)
	}
	if d := parseRetryAfter(""); d != 0 {
		t.Errorf("empty: %v", d)
	}
	if d := parseRetryAfter("-3"); d != 0 {
		t.Errorf("negative: %v", d)
	}
	if d := parseRetryAfter("soon"); d != 0 {
		t.Errorf("garbage: %v", d)
	}
	future := time.Now().Add(30 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(future); d < 25*time.Second || d > 30*time.Second {
		t.Errorf("http-date: %v, want ~30s", d)
	}
	past := time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(past); d != 0 {
		t.Errorf("past http-date: %v", d)
	}
}

// TestMultiWriteFollowsPrimaryRedirect: a write hitting a replica gets
// the 421 + X-Crowdd-Primary refusal and lands on the named endpoint;
// the Multi then remembers it so the next write pays no extra hop.
func TestMultiWriteFollowsPrimaryRedirect(t *testing.T) {
	var primaryHits int32
	primary := httptest.NewServer(submitOK(&primaryHits))
	defer primary.Close()
	var replicaHits int32
	replica := httptest.NewServer(notPrimaryHandler(&replicaHits, primary.URL))
	defer replica.Close()

	// The replica is listed first, so the first write starts wrong.
	m, err := NewMulti([]string{replica.URL, primary.URL}, Options{
		Timeout: 5 * time.Second, Retries: 1, Backoff: time.Millisecond, Clock: new(clock.Manual),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sub, err := m.SubmitTask(ctx, "which endpoint takes writes", 2)
	if err != nil {
		t.Fatalf("write through redirect: %v", err)
	}
	if sub.TaskID != 7 {
		t.Errorf("sub = %+v", sub)
	}
	if got := m.Primary(); got != primary.URL {
		t.Errorf("believed primary %q, want %q", got, primary.URL)
	}
	if m.Failovers() != 1 {
		t.Errorf("failovers = %d, want 1", m.Failovers())
	}

	// Second write goes straight to the learned primary.
	if _, err := m.SubmitTask(ctx, "again", 2); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&replicaHits); got != 1 {
		t.Errorf("replica hit %d times, want 1 (primary learned after redirect)", got)
	}
}

// TestMultiWriteFailsOverOnDialError: a dead believed-primary (the
// request provably never left the client) rotates the write to the
// next endpoint.
func TestMultiWriteFailsOverOnDialError(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close() // nothing listens here any more

	var hits int32
	alive := httptest.NewServer(submitOK(&hits))
	defer alive.Close()

	m, err := NewMulti([]string{deadURL, alive.URL}, Options{
		Timeout: 2 * time.Second, Retries: 0, Backoff: time.Millisecond, Clock: new(clock.Manual),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SubmitTask(context.Background(), "failover please", 2); err != nil {
		t.Fatalf("write with dead primary: %v", err)
	}
	if got := m.Primary(); got != alive.URL {
		t.Errorf("believed primary %q, want %q", got, alive.URL)
	}
}

// TestMultiWriteDoesNotFailoverOnAmbiguous5xx: a 500 from the primary
// does not prove the mutation was unapplied, so the Multi must return
// the error instead of risking a double-apply elsewhere.
func TestMultiWriteDoesNotFailoverOnAmbiguous5xx(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer bad.Close()
	var hits int32
	other := httptest.NewServer(submitOK(&hits))
	defer other.Close()

	m, err := NewMulti([]string{bad.URL, other.URL}, Options{
		Timeout: 2 * time.Second, Retries: 0, Backoff: time.Millisecond, Clock: new(clock.Manual),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SubmitTask(context.Background(), "ambiguous", 2); err == nil {
		t.Fatal("write returned nil through a 500")
	}
	if got := atomic.LoadInt32(&hits); got != 0 {
		t.Errorf("mutation reached the other endpoint %d times — double-apply risk", got)
	}
	if m.Failovers() != 0 {
		t.Errorf("failovers = %d, want 0", m.Failovers())
	}
}

// TestMultiReadFailsOverToAnyEndpoint: reads round-robin and keep
// answering while one endpoint serves 5xx.
func TestMultiReadFailsOverToAnyEndpoint(t *testing.T) {
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer down.Close()
	var hits int32
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&hits, 1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"workers": 9}`)
	}))
	defer up.Close()

	m, err := NewMulti([]string{down.URL, up.URL}, Options{
		Timeout: 2 * time.Second, Retries: 0, Backoff: time.Millisecond, Clock: new(clock.Manual),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every read lands regardless of where the cursor starts.
	for i := 0; i < 4; i++ {
		st, err := m.Stats(context.Background())
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if st.Workers != 9 {
			t.Fatalf("read %d: stats = %+v", i, st)
		}
	}
	if got := atomic.LoadInt32(&hits); got != 4 {
		t.Errorf("healthy endpoint answered %d reads, want 4", got)
	}
}
