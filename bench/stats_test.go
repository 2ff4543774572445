package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6},
	} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{1, 2, 3, 10}); !near(got, 2.5) {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The expected values are what Python prints for
// q = statistics.quantiles(xs, n=4); (q[2]-q[0])/q[1].
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5 / 5.5},
		{[]float64{2.1, 2.0, 2.4, 1.9, 2.2, 2.05, 2.3, 2.15, 1.95, 2.25}, 0.275 / 2.125},
		{[]float64{1, 2}, 1.5 / 1.5},
		{[]float64{3, 1, 2}, 2.0 / 2.0},
	} {
		if got := quartileSpread(c.xs); !near(got, c.want) {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestRateOver(t *testing.T) {
	done := []time.Duration{10 * time.Millisecond, 400 * time.Millisecond, 999 * time.Millisecond,
		// Sent inside the window, completed after it: not counted.
		time.Second, 1200 * time.Millisecond}
	if got := rateOver(done, time.Second); !near(got, 3) {
		t.Errorf("rateOver = %v, want 3 per second", got)
	}
	if got := rateOver(done, 500*time.Millisecond); !near(got, 4) {
		t.Errorf("rateOver over half a second = %v, want 2 ops in 0.5 s = 4 per second", got)
	}
	if got := rateOver(nil, time.Second); got != 0 {
		t.Errorf("rateOver of nothing = %v", got)
	}
}

func TestSelfTime(t *testing.T) {
	if got := selfTime(100, 30, 20); got != 50 {
		t.Errorf("selfTime = %v, want 50", got)
	}
	if got := selfTime(40, 30, 20); got != -10 {
		t.Errorf("selfTime = %v, want -10: children timed alone may cost more", got)
	}
}

func TestUncovered(t *testing.T) {
	outer := interval{10, 110}
	for _, c := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"two disjoint", []interval{{20, 40}, {60, 90}}, 50},
		{"parallel legs overlap", []interval{{20, 80}, {30, 100}}, 20},
		{"nested", []interval{{20, 100}, {30, 40}}, 20},
		{"clipped to the outer span", []interval{{0, 30}, {100, 200}}, 70},
		{"unordered", []interval{{60, 90}, {20, 40}}, 50},
	} {
		if got := uncovered(outer, c.children); got != c.want {
			t.Errorf("%s: uncovered = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestTracerSelfTimes(t *testing.T) {
	tr := newTracer()
	op := tr.begin("client.op", 7, 0)
	leg := tr.begin("http.roundtrip", 7, op)
	time.Sleep(2 * time.Millisecond)
	tr.end(leg)
	tr.end(op)
	other := tr.begin("client.op", 99, 0)
	tr.end(other)

	self := tr.selfTimes("client.op", 0, 10)
	if len(self) != 1 {
		t.Fatalf("%d spans in the op range, want 1", len(self))
	}
	total := float64(tr.spans[op-1].End-tr.spans[op-1].Start) / 1000
	if self[0] < 0 || self[0] > total-2000 {
		t.Errorf("self time %v us of a %v us span with a 2 ms child", self[0], total)
	}

	var none *tracer
	if id := none.begin("x", 0, 0); id != 0 {
		t.Errorf("nil tracer handed out span %d", id)
	}
	none.end(0) // must not panic
}
