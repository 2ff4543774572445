package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; xs is not modified. An empty
// sample has no quantile and yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartileSpread is the acceptance rule's noise figure: the distance
// between the first and third quartile as a share of the median, with
// the quartiles exactly as Python's statistics.quantiles(xs, n=4)
// gives them (its default exclusive method, which extrapolates past the
// ends of a very small sample).
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	const n = 4
	m := len(s) + 1
	var q [n]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*n)
		q[i] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	if q[2] == 0 {
		return 0
	}
	return (q[3] - q[1]) / math.Abs(q[2])
}

// rateOver is the operations per second of one window: the completions
// (offsets from the window's start) that fall inside it, over its
// length. An op still in flight when the window ends was sent, but does
// not count.
func rateOver(done []time.Duration, window time.Duration) float64 {
	n := 0
	for _, d := range done {
		if d < window {
			n++
		}
	}
	return float64(n) / window.Seconds()
}

// selfTime is a composite's cost that none of its separately measured
// children explains. It may be negative when the children, timed alone,
// cost more than they do inside the composite; the budget table prints
// it as measured.
func selfTime(composite float64, children ...float64) float64 {
	for _, c := range children {
		composite -= c
	}
	return composite
}

// interval is a half-open span of time on one clock.
type interval struct{ start, end time.Duration }

// uncovered is the span-based self time: the part of outer that no
// child interval covers. Children may overlap each other (the legs of a
// scatter run in parallel) and are clipped to outer.
func uncovered(outer interval, children []interval) time.Duration {
	cs := append([]interval(nil), children...)
	sort.Slice(cs, func(a, b int) bool { return cs[a].start < cs[b].start })
	covered := time.Duration(0)
	cursor := outer.start
	for _, c := range cs {
		if c.start < cursor {
			c.start = cursor
		}
		if c.end > outer.end {
			c.end = outer.end
		}
		if c.end > c.start {
			covered += c.end - c.start
			cursor = c.end
		}
	}
	return outer.end - outer.start - covered
}
