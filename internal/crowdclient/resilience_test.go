package crowdclient

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crowdselect/internal/clock"
	"crowdselect/internal/crowddb"
)

// deadAddr returns an address nothing listens on, so dials fail fast.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestBreakerOpensAndFastFails: consecutive transport failures open
// the breaker; further calls fail fast with ErrCircuitOpen without
// touching the network.
func TestBreakerOpensAndFastFails(t *testing.T) {
	addr := deadAddr(t)
	cli := New("http://"+addr, Options{
		Retries:          -1, // one attempt per call: failures count cleanly
		BreakerThreshold: 3,
		Clock:            new(clock.Manual), // stands still: stays open for the whole test
		Timeout:          2 * time.Second,
	})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := cli.Stats(ctx); err == nil || errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("call %d = %v, want a transport error", i, err)
		}
	}
	st := cli.ResilienceStats()
	if st.BreakerState != "open" || st.BreakerOpens != 1 {
		t.Fatalf("after threshold: state %q, opens %d; want open, 1", st.BreakerState, st.BreakerOpens)
	}
	if _, err := cli.Stats(ctx); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("call while open = %v, want ErrCircuitOpen", err)
	}
	if st := cli.ResilienceStats(); st.BreakerFastFails == 0 {
		t.Error("fast-fail not counted")
	}
}

// TestBreakerHalfOpenRecovery: after the cooldown one trial request is
// let through; a failing trial re-opens the breaker, a succeeding one
// closes it.
func TestBreakerHalfOpenRecovery(t *testing.T) {
	addr := deadAddr(t)
	clk := new(clock.Manual)
	cli := New("http://"+addr, Options{
		Retries:          -1,
		BreakerThreshold: 2,
		Clock:            clk,
		Timeout:          2 * time.Second,
	})
	ctx := context.Background()
	cli.Stats(ctx)
	cli.Stats(ctx)
	if st := cli.ResilienceStats(); st.BreakerState != "open" {
		t.Fatalf("state = %q, want open", st.BreakerState)
	}
	// Cooldown elapses but the server is still down: the half-open
	// trial fails and re-opens the breaker.
	clk.Sleep(ctx, 2*breakerCooldown)
	if _, err := cli.Stats(ctx); err == nil || errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("half-open trial = %v, want a transport error", err)
	}
	st := cli.ResilienceStats()
	if st.BreakerState != "open" || st.BreakerOpens != 2 {
		t.Fatalf("after failed trial: state %q, opens %d; want open, 2", st.BreakerState, st.BreakerOpens)
	}
	// The server comes back on the same address; the next trial closes
	// the breaker.
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"workers": 1}`)
	}))
	srv.Listener.Close()
	srv.Listener = l
	srv.Start()
	defer srv.Close()

	clk.Sleep(ctx, 2*breakerCooldown)
	if _, err := cli.Stats(ctx); err != nil {
		t.Fatalf("trial against recovered server: %v", err)
	}
	if st := cli.ResilienceStats(); st.BreakerState != "closed" {
		t.Fatalf("state after recovery = %q, want closed", st.BreakerState)
	}
}

// TestBreakerIgnoresHTTPErrors: a server answering 503s is alive —
// HTTP responses of any status must never open the breaker, or
// degraded-mode reads would be cut off exactly when they matter.
func TestBreakerIgnoresHTTPErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "degraded", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	cli := New(srv.URL, Options{Retries: -1, BreakerThreshold: 2})
	for i := 0; i < 5; i++ {
		var apiErr *APIError
		if _, err := cli.Stats(context.Background()); !errors.As(err, &apiErr) {
			t.Fatalf("call %d = %v, want *APIError", i, err)
		}
	}
	if st := cli.ResilienceStats(); st.BreakerState != "closed" || st.BreakerOpens != 0 {
		t.Fatalf("breaker after 5xx storm: state %q, opens %d; want closed, 0", st.BreakerState, st.BreakerOpens)
	}
}

// TestRetryBudgetBoundsRetryStorm: the client-wide token bucket cuts
// retries off once spent, turning calls into first-attempt-only.
func TestRetryBudgetBoundsRetryStorm(t *testing.T) {
	var hits int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&hits, 1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()
	cli := New(srv.URL, Options{
		Retries:     3,
		Backoff:     time.Millisecond,
		Clock:       new(clock.Manual),
		RetryBudget: 2,
	})
	// First call: 1 attempt + 2 budgeted retries, then the bucket runs
	// dry mid-loop.
	_, err := cli.Stats(context.Background())
	if err == nil || !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Fatalf("first call = %v, want retry budget exhausted", err)
	}
	if got := atomic.LoadInt32(&hits); got != 3 {
		t.Fatalf("server hit %d times, want 3 (1 + 2 budgeted retries)", got)
	}
	// Second call: no tokens left, so exactly one attempt.
	_, err = cli.Stats(context.Background())
	if err == nil || !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Fatalf("second call = %v, want retry budget exhausted", err)
	}
	if got := atomic.LoadInt32(&hits); got != 4 {
		t.Fatalf("server hit %d times, want 4 (budget empty: first attempt only)", got)
	}
	if st := cli.ResilienceStats(); st.RetryTokens != 0 {
		t.Errorf("tokens = %v, want 0", st.RetryTokens)
	}
}

// TestRetryBudgetRefundsOnSuccess: successful requests refill the
// bucket so a transient blip does not permanently disable retries.
func TestRetryBudgetRefundsOnSuccess(t *testing.T) {
	var hits int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&hits, 1) <= 2 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"workers": 3}`)
	}))
	defer srv.Close()
	cli := New(srv.URL, Options{
		Retries:     3,
		Backoff:     time.Millisecond,
		Clock:       new(clock.Manual),
		RetryBudget: 10,
	})
	if _, err := cli.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Two retries spent, one refunded by the success.
	if st := cli.ResilienceStats(); st.RetryTokens != 9 {
		t.Errorf("tokens = %v, want 9", st.RetryTokens)
	}
}

// TestIdempotentClassification: only GETs and the pure selections POST
// are replay-safe.
func TestIdempotentClassification(t *testing.T) {
	cases := []struct {
		method, url string
		want        bool
	}{
		{http.MethodGet, "/api/v1/stats", true},
		{http.MethodPost, "/api/v1/selections", true},
		{http.MethodPost, "/api/v1/tasks", false},
		{http.MethodPost, "/api/v1/query", false},
		{http.MethodPost, "/api/v1/tasks/1/feedback", false},
	}
	for _, c := range cases {
		if got := idempotent(c.method, c.url); got != c.want {
			t.Errorf("idempotent(%s %s) = %v, want %v", c.method, c.url, got, c.want)
		}
	}
}

// TestSelectionsTypedAndRetried: the Selections method decodes the
// server payload, and — being idempotent — retries transport failures
// that a mutation would not.
func TestSelectionsTypedAndRetried(t *testing.T) {
	var hits int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/api/v1/selections" || r.Method != http.MethodPost {
			http.NotFound(w, r)
			return
		}
		if atomic.AddInt32(&hits, 1) == 1 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"results":[{"workers":[2,0]}],"model":"TDPM"}`)
	}))
	defer srv.Close()

	sel, err := testClient(srv.URL).Selections(context.Background(),
		[]crowddb.SubmitRequest{{Text: "rank me", K: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Results) != 1 || len(sel.Results[0].Workers) != 2 || sel.Model != "TDPM" {
		t.Fatalf("selections = %+v", sel)
	}
	if got := atomic.LoadInt32(&hits); got != 2 {
		t.Errorf("server hit %d times, want 2 (5xx retried: selections are idempotent)", got)
	}
}
