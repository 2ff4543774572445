package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer: name, start, end, the span that
// caused it and the op all spans of one request share.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects spans in memory; they are written out once, when the
// run ends. A nil *tracer records nothing, which is how an untraced run
// is free of tracing: it never allocates one.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, op int64, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, Op: op, ID: id, Parent: parent, Start: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, op int64, fn func()) time.Duration {
	id := t.begin(name, op, 0)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// selfTimes returns, for every closed span called name whose op lies in
// [lo, hi), the part of it that its child spans do not cover, in
// microseconds.
func (t *tracer) selfTimes(name string, lo, hi int64) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]interval)
	for _, s := range t.spans {
		if s.Parent != 0 && s.End != 0 {
			children[s.Parent] = append(children[s.Parent], interval{time.Duration(s.Start), time.Duration(s.End)})
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End != 0 && s.Op >= lo && s.Op < hi {
			self := uncovered(interval{time.Duration(s.Start), time.Duration(s.End)}, children[s.ID])
			out = append(out, float64(self)/float64(time.Microsecond))
		}
	}
	return out
}

// writeFile dumps every span as one JSON array.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opRef names the op span a request belongs to; it travels in the
// request context so the transport below can attach its span.
type opRef struct {
	op     int64
	parent int
}

type opRefKey struct{}

func withOp(ctx context.Context, ref opRef) context.Context {
	return context.WithValue(ctx, opRefKey{}, ref)
}

// tracingTransport records one "http.roundtrip" span per request — to
// the last byte of the response body — and counts requests and body
// bytes in both directions. Only a traced run installs it.
type tracingTransport struct {
	rt       http.RoundTripper
	tr       *tracer
	requests atomic.Int64
	bytes    atomic.Int64
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, _ := req.Context().Value(opRefKey{}).(opRef)
	id := t.tr.begin("http.roundtrip", ref.op, ref.parent)
	t.requests.Add(1)
	if req.ContentLength > 0 {
		t.bytes.Add(req.ContentLength)
	}
	resp, err := t.rt.RoundTrip(req)
	if err != nil {
		t.tr.end(id)
		return nil, err
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, t: t, id: id}
	return resp, nil
}

// tracedBody closes the round-trip span when the body has been read to
// its end or closed, whichever comes first.
type tracedBody struct {
	io.ReadCloser
	t    *tracingTransport
	id   int
	once sync.Once
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.t.bytes.Add(int64(n))
	if err != nil {
		b.once.Do(func() { b.t.tr.end(b.id) })
	}
	return n, err
}

func (b *tracedBody) Close() error {
	b.once.Do(func() { b.t.tr.end(b.id) })
	return b.ReadCloser.Close()
}
