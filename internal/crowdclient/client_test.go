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
	"crowdselect/internal/text"
)

// testClient retries without real sleeping so tests stay fast.
func testClient(baseURL string) *Client {
	return New(baseURL, Options{
		Timeout: 5 * time.Second,
		Retries: 3,
		Backoff: time.Millisecond,
		Clock:   new(clock.Manual),
	})
}

// TestRetryFlaky5xx: a GET that hits a server failing its first
// responses with 500s must succeed once the server recovers, within
// the retry budget.
func TestRetryFlaky5xx(t *testing.T) {
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

	st, err := testClient(srv.URL).Stats(context.Background())
	if err != nil {
		t.Fatalf("GET through flaky server: %v", err)
	}
	if got := atomic.LoadInt32(&hits); got != 3 {
		t.Errorf("server hit %d times, want 3 (2 failures + success)", got)
	}
	if st.Workers != 3 {
		t.Errorf("stats = %+v", st)
	}
}

// TestRetryBudgetExhausted: a persistently failing GET returns the
// last error after the bounded retries, not an infinite loop.
func TestRetryBudgetExhausted(t *testing.T) {
	var hits int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&hits, 1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	_, err := testClient(srv.URL).Stats(context.Background())
	if err == nil {
		t.Fatal("persistent 500s reported success")
	}
	if !strings.Contains(err.Error(), "500") {
		t.Errorf("error %q does not surface the final status", err)
	}
	if got := atomic.LoadInt32(&hits); got != 4 {
		t.Errorf("server hit %d times, want 4 (1 + 3 retries)", got)
	}
}

// TestPostNotRetriedOn5xx: mutations must not be replayed when the
// server answered — only dial failures are safe to retry.
func TestPostNotRetriedOn5xx(t *testing.T) {
	var hits int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&hits, 1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()

	if _, err := testClient(srv.URL).SubmitTask(context.Background(), "q", 1); err == nil {
		t.Fatal("500 on POST reported success")
	}
	if got := atomic.LoadInt32(&hits); got != 1 {
		t.Errorf("POST sent %d times, want exactly 1", got)
	}
}

// TestRetryConnectionRefused: dial errors are retried for POSTs too —
// the request never reached a server. The server comes up between
// attempts.
func TestRetryConnectionRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listening: first attempts get connection refused

	started := make(chan *httptest.Server, 1)
	dials := 0
	dialer := &net.Dialer{}
	cli := New("http://"+addr, Options{
		Retries: 3,
		Backoff: time.Millisecond,
		Clock:   new(clock.Manual),
		HTTPClient: &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, address string) (net.Conn, error) {
				dials++
				if dials == 3 {
					// Bring the server up on the probed address before the
					// third attempt dials it.
					l, err := net.Listen("tcp", addr)
					if err != nil {
						return nil, err
					}
					s := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
						w.WriteHeader(http.StatusNoContent)
					}))
					s.Listener.Close()
					s.Listener = l
					s.Start()
					started <- s
				}
				return dialer.DialContext(ctx, network, address)
			},
		}},
	})
	if err := cli.SetPresence(context.Background(), 0, false); err != nil {
		t.Fatalf("POST after server came up: %v", err)
	}
	select {
	case s := <-started:
		s.Close()
	default:
		t.Fatal("server never started; POST succeeded against nothing")
	}
}

// TestAPIErrorEnvelope: a non-2xx response with the server's envelope
// decodes into a typed *APIError carrying the stable code.
func TestAPIErrorEnvelope(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprintln(w, `{"error":{"code":"not_found","message":"task 7 does not exist"}}`)
	}))
	defer srv.Close()

	_, err := testClient(srv.URL).GetTask(context.Background(), 7)
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v (%T), want *APIError", err, err)
	}
	if apiErr.StatusCode != http.StatusNotFound || apiErr.Code != "not_found" {
		t.Errorf("APIError = %+v", apiErr)
	}
	if !strings.Contains(apiErr.Error(), "task 7 does not exist") {
		t.Errorf("Error() = %q", apiErr.Error())
	}
	// Non-envelope bodies still produce a usable error.
	srv2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "plain text", http.StatusBadRequest)
	}))
	defer srv2.Close()
	_, err = testClient(srv2.URL).SubmitTask(context.Background(), "x", 1)
	if !errors.As(err, &apiErr) || apiErr.Code != "" || !strings.Contains(apiErr.Message, "plain text") {
		t.Errorf("plain error = %v", err)
	}
}

// failingEngine is a query engine that fails every statement with err,
// so the server's own writer answers whatever refusal a test names.
type failingEngine struct{ err error }

func (e *failingEngine) Execute(context.Context, string) (any, error) { return nil, e.err }

// idleSelector stands in for the model of a node whose test selects
// nothing.
type idleSelector struct{ crowddb.Selector }

// TestErrorTableRoundTrip: every row of the server's error table,
// written by the server's writer, reads back as the row's status, code
// and typed error; a response without an envelope reads as its
// status's default row, and a code the table does not hold as no typed
// error.
func TestErrorTableRoundTrip(t *testing.T) {
	mgr, err := crowddb.NewManager(crowddb.NewStore(), text.NewVocabulary(), idleSelector{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	engine := &failingEngine{}
	srv, err := crowddb.New(crowddb.NodeConfig{Tenants: []crowddb.TenantConfig{{Name: crowddb.DefaultTenant, Manager: mgr, Query: engine}}})
	if err != nil {
		t.Fatal(err)
	}
	rows := crowddb.ErrorTable()
	for _, row := range rows {
		engine.err = row.Err
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/query", strings.NewReader(`{"q":"SELECT 1"}`)))
		ae := apiError(rec.Result(), rec.Body.Bytes())
		if ae.StatusCode != row.Status || ae.Code != row.Code || !errors.Is(ae, row.Err) {
			t.Errorf("row %d %s read back as %d %s (%v), errors.Is = %v", row.Status, row.Code, ae.StatusCode, ae.Code, ae.Unwrap(), errors.Is(ae, row.Err))
		}
	}

	read := func(status int, body string) *APIError {
		return apiError(&http.Response{StatusCode: status, Status: http.StatusText(status), Header: http.Header{}}, []byte(body))
	}
	if ae := read(http.StatusMisdirectedRequest, "misdirected\n"); !errors.Is(ae, crowddb.ErrNotPrimary) {
		t.Errorf("envelope-less 421 unwraps to %v, want ErrNotPrimary", ae.Unwrap())
	}
	ae := read(http.StatusConflict, `{"error":{"code":"no_such_code","message":"m"}}`)
	for _, row := range rows {
		if errors.Is(ae, row.Err) {
			t.Errorf("unknown code reads as %s", row.Code)
		}
	}
}

// TestContextCancelStopsRetries: a cancelled context ends the retry
// loop instead of burning the whole budget.
func TestContextCancelStopsRetries(t *testing.T) {
	var hits int32
	ctx, cancel := context.WithCancel(context.Background())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&hits, 1)
		cancel()
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	cli := New(srv.URL, Options{
		Timeout: 5 * time.Second,
		Retries: 3,
		Backoff: time.Millisecond,
		Clock:   new(clock.Manual),
	})
	if _, err := cli.Stats(ctx); err == nil {
		t.Fatal("cancelled request reported success")
	}
	if got := atomic.LoadInt32(&hits); got != 1 {
		t.Errorf("server hit %d times after cancel, want 1", got)
	}
}

// TestCancelEndsRetryBackoff: a caller that cancels while the client
// waits out a shedding server's Retry-After gets context.Canceled at
// once, not after the backoff.
func TestCancelEndsRetryBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var cancelled atomic.Int64 // wall time of the cancel, in ns
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "10")
		http.Error(w, "shed", http.StatusServiceUnavailable)
		// Cancel once the client is well into its 10 s backoff.
		time.AfterFunc(50*time.Millisecond, func() {
			cancelled.Store(time.Now().UnixNano())
			cancel()
		})
	}))
	defer srv.Close()

	_, err := New(srv.URL, Options{Timeout: 5 * time.Second, Retries: 1}).Stats(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call = %v, want context.Canceled", err)
	}
	if took := time.Since(time.Unix(0, cancelled.Load())); took > 100*time.Millisecond {
		t.Fatalf("call returned %v after its cancel, want < 100ms", took)
	}
}
