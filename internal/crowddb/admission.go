package crowddb

import (
	"math"
	"sync"
	"time"
)

// Adaptive admission control for the HTTP server: an AIMD concurrency
// limiter in the spirit of TCP congestion control. The admitted
// concurrency limit grows additively while requests complete inside
// their deadline budget and shrinks multiplicatively when the server
// blows a deadline — so the cap finds the real capacity of the
// hardware instead of being a number someone guessed in a flag.
//
// Shedding is priority-aware: read requests are refused once the limit
// is reached, while mutations may dip into a small reserve above it —
// a dropped read is a retry, a dropped mutation is lost crowd work —
// and probe endpoints never pass through the limiter at all. The
// Retry-After attached to a shed response is computed from the
// observed service rate (limit / smoothed latency), not hardcoded.

// AdmissionConfig tunes the adaptive limiter. The zero value of a
// field selects the default noted on it.
type AdmissionConfig struct {
	// Min is the floor the limit never shrinks below (default 1).
	Min int
	// Max is the ceiling the limit never grows above and the limit it
	// starts at; a node given Max <= 0 runs no controller. Min == Max
	// pins the limit: a fixed cap with no adaptation.
	Max int
	// Clock replaces time.Now (tests).
	Clock func() time.Time
}

const (
	// admissionBeta is the multiplicative-decrease factor applied on
	// overload.
	admissionBeta = 0.7
	// admissionCooldown is the minimum spacing between two decreases, so
	// one burst of deadline overruns counts once.
	admissionCooldown = 100 * time.Millisecond
)

// admission is the limiter state. All methods are safe for concurrent
// use.
type admission struct {
	mu           sync.Mutex
	limit        float64
	min, max     float64
	lastDecrease time.Time
	inflight     int
	avgLatency   float64 // EWMA, seconds
	shedReads    int64
	shedWrites   int64
	overruns     int64
	clock        func() time.Time
}

func newAdmission(cfg AdmissionConfig) *admission {
	if cfg.Min <= 0 {
		cfg.Min = 1
	}
	if cfg.Max < cfg.Min {
		cfg.Max = cfg.Min
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &admission{
		limit: float64(cfg.Max),
		min:   float64(cfg.Min),
		max:   float64(cfg.Max),
		clock: cfg.Clock,
	}
}

// mutationReserve is the headroom above the read limit that mutations
// may still use: reads shed first.
func (a *admission) mutationReserve() int {
	r := int(math.Ceil(a.limit / 4))
	if r < 1 {
		r = 1
	}
	return r
}

// acquire admits or sheds one request. When shed (ok == false),
// retryAfter is the drain-based hint in whole seconds.
func (a *admission) acquire(mutation bool) (ok bool, retryAfter int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	cap := int(a.limit)
	if mutation {
		cap += a.mutationReserve()
	}
	if a.inflight < cap {
		a.inflight++
		return true, 0
	}
	if mutation {
		a.shedWrites++
	} else {
		a.shedReads++
	}
	return false, a.retryAfterLocked()
}

// retryAfterLocked estimates how long until the backlog above the
// limit drains: excess requests divided by the observed service rate
// (limit / smoothed latency), clamped to [1s, 30s].
func (a *admission) retryAfterLocked() int {
	excess := float64(a.inflight-int(a.limit)) + 1
	if excess < 1 {
		excess = 1
	}
	lat := a.avgLatency
	if lat <= 0 {
		lat = 0.05 // no samples yet: assume a 50ms service time
	}
	rate := a.limit / lat // completions per second
	if rate <= 0 {
		rate = 1
	}
	secs := int(math.Ceil(excess / rate))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// release completes one admitted request. overloaded marks a
// server-side deadline overrun: the AIMD decrease signal. A healthy
// completion is the additive-increase signal.
func (a *admission) release(latency time.Duration, overloaded bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.inflight > 0 {
		a.inflight--
	}
	sec := latency.Seconds()
	if a.avgLatency == 0 {
		a.avgLatency = sec
	} else {
		a.avgLatency = 0.9*a.avgLatency + 0.1*sec
	}
	if overloaded {
		a.overruns++
		now := a.clock()
		if now.Sub(a.lastDecrease) >= admissionCooldown {
			a.lastDecrease = now
			a.limit *= admissionBeta
			if a.limit < a.min {
				a.limit = a.min
			}
		}
		return
	}
	// Additive increase: +1 per limit's worth of successes (one RTT of
	// full-rate traffic), like TCP's congestion-avoidance ramp.
	a.limit += 1 / a.limit
	if a.limit > a.max {
		a.limit = a.max
	}
}

// AdmissionSnapshot is the admission-control section of
// GET /api/v1/metrics.
type AdmissionSnapshot struct {
	Limit            float64 `json:"limit"`
	MinLimit         int     `json:"min_limit"`
	MaxLimit         int     `json:"max_limit"`
	Inflight         int     `json:"inflight"`
	ShedReads        int64   `json:"shed_reads"`
	ShedMutations    int64   `json:"shed_mutations"`
	DeadlineOverruns int64   `json:"deadline_overruns"`
	AvgLatencyMs     float64 `json:"avg_latency_ms"`
}

func (a *admission) snapshot() AdmissionSnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AdmissionSnapshot{
		Limit:            math.Round(a.limit*100) / 100,
		MinLimit:         int(a.min),
		MaxLimit:         int(a.max),
		Inflight:         a.inflight,
		ShedReads:        a.shedReads,
		ShedMutations:    a.shedWrites,
		DeadlineOverruns: a.overruns,
		AvgLatencyMs:     a.avgLatency * 1000,
	}
}
